"""One lazy analysis per metric: every geometric object of an instance.

Each object is a cached property that reads its inputs from the other
properties, so it is built at most once, and only when a check or a table
reads it.  With ``alpha`` the analysis is that of the conformally rescaled
metric at the base point (see ``conformal``): only the Koszul assembly sees
the rescaling, through the metric derivatives 2 du(x) g(y, z); everything
else is built from the rescaled Levi-Civita connection as for the base.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import levicivita, natural
from .levicivita import ClassFlags, LeeForm, RicciScalar
from .natural import (
    FlatReport,
    NaturalConnection,
    ParallelTorsionReport,
    PCurvatureCriterion,
    RicciRelation,
    STensor,
    TorsionIdentityDefects,
)
from .structure import RpmInstance, StructureReport, validate_structure
from .tensors import CO, DEFAULT_EPS, blocks, max_abs


class InstanceAnalysis:
    """Every tensor and predicate the verification commands report."""

    def __init__(self, inst: RpmInstance, eps: float = DEFAULT_EPS, alpha=None):
        self.inst = inst
        self.eps = eps
        self.alpha = None if alpha is None else np.asarray(alpha, dtype=float)

    @cached_property
    def structure(self) -> StructureReport:
        return validate_structure(self.inst, self.eps)

    @cached_property
    def nabla(self) -> np.ndarray:
        dg = None if self.alpha is None else 2.0 * self.alpha[:, None, None] * self.inst.g
        return levicivita.levi_civita_coeffs(self.inst, dg)

    @cached_property
    def F(self) -> np.ndarray:
        return levicivita.structure_tensor_F(self.inst, self.nabla)

    @cached_property
    def lee(self) -> LeeForm:
        return levicivita.lee_form(self.inst, self.F)

    @cached_property
    def flags(self) -> ClassFlags:
        return levicivita.class_flags(self.inst, self.F, self.lee.theta, self.eps)

    @cached_property
    def R(self) -> np.ndarray:
        return levicivita.curvature_tensor(self.nabla, self.inst.alg, self.inst.metric)

    @cached_property
    def ricci(self) -> RicciScalar:
        return levicivita.ricci_and_scalar(self.R, self.inst.metric)

    @cached_property
    def sectional(self) -> dict[tuple[int, int], float]:
        """Sectional curvatures of the basis planes, keyed by 0-based (i, j), i < j."""
        basis = np.eye(self.inst.dim)
        return {
            (i, j): levicivita.sectional_curvature(self.R, self.inst.metric, basis[i], basis[j])
            for i in range(self.inst.dim)
            for j in range(i + 1, self.inst.dim)
        }

    @cached_property
    def D(self) -> NaturalConnection:
        return natural.connection_D_from(self.inst, self.nabla, self.lee.theta)

    @cached_property
    def grad_theta(self) -> np.ndarray:
        """Derivative of the Lee form along the Levi-Civita connection, direction slot first."""
        return levicivita.cov_deriv_components(self.nabla, self.lee.theta, (CO,))

    @cached_property
    def dtheta(self) -> np.ndarray:
        """Derivative of the Lee form along D, direction slot first."""
        return levicivita.cov_deriv_components(self.D.gamma, self.lee.theta, (CO,))

    @cached_property
    def t_sharp(self) -> np.ndarray:
        """Torsion of D with its last slot raised."""
        return np.einsum("ijl,lk->ijk", self.D.T, self.inst.g_inv)

    @cached_property
    def Rprime(self) -> np.ndarray:
        return natural.curvature_Rprime(self.D, self.inst.alg, self.inst.metric)

    @cached_property
    def ricci_prime(self) -> RicciScalar:
        return levicivita.ricci_and_scalar(self.Rprime, self.inst.metric)

    @cached_property
    def S(self) -> STensor:
        return natural.s_tensor(self.inst, self.dtheta, self.lee.norm_sq)

    @cached_property
    def W(self) -> np.ndarray:
        return levicivita.weyl_tensor(self.R, self.ricci.rho, self.ricci.tau, self.inst.metric)

    @cached_property
    def Wprime(self) -> np.ndarray:
        return levicivita.weyl_tensor(
            self.Rprime, self.ricci_prime.rho, self.ricci_prime.tau, self.inst.metric
        )

    @cached_property
    def _naturality_defects(self) -> tuple[float, float]:
        return natural.naturality_defects(self.D, self.inst)

    @property
    def naturality_metric_defect(self) -> float:
        return self._naturality_defects[0]

    @property
    def naturality_structure_defect(self) -> float:
        return self._naturality_defects[1]

    @cached_property
    def torsion_reconstruction_defect(self) -> float:
        return max_abs(natural.recomputed_torsion(self.D.gamma, self.inst) - self.D.T)

    @cached_property
    def torsion_identities(self) -> TorsionIdentityDefects:
        return natural.torsion_identity_defects(self.inst, self.D, self.lee.theta, self.t_sharp)

    @cached_property
    def curvature_relation_residual(self) -> float:
        return natural.verify_curvature_relation(
            self.R, self.Rprime, self.S, self.inst.metric, self.inst.n
        )

    @cached_property
    def ricci_relation(self) -> RicciRelation:
        return natural.ricci_scalar_relation(
            self.ricci.rho, self.ricci_prime.rho, self.ricci.tau, self.ricci_prime.tau,
            self.S, self.inst.metric, self.inst.n,
        )

    @cached_property
    def weyl_invariance_residual(self) -> float:
        """Largest component difference of the Weyl tensors of the two connections."""
        return float(np.maximum.reduce([max_abs(self.W[b] - self.Wprime[b]) for b in blocks(self.inst.dim)]))

    @cached_property
    def p_criterion(self) -> PCurvatureCriterion:
        return natural.p_curvature_criterion(
            self.inst, self.grad_theta, self.dtheta, self.Rprime, self.eps
        )

    @cached_property
    def parallel(self) -> ParallelTorsionReport:
        return natural.has_parallel_torsion(
            self.inst, self.D, self.t_sharp, self.lee, self.grad_theta, self.dtheta, self.eps
        )

    @cached_property
    def is_flat(self) -> bool:
        """Whether D is flat: the one flatness test, which the reports read."""
        return max_abs(self.Rprime) <= self.eps

    @cached_property
    def flat(self) -> FlatReport:
        """The flat-branch residuals; no report reads them, only tests."""
        return natural.flat_D_report(
            self.inst, self.D, self.R, self.ricci, self.Rprime, self.is_flat, self.W,
            self.lee.norm_sq, self.parallel, self.eps,
        )


def analyze_instance(inst: RpmInstance, eps: float = DEFAULT_EPS, alpha=None) -> InstanceAnalysis:
    """The lazy analysis of ``inst``, or of its rescaling by the closed form ``alpha``.

    ``alpha`` is not checked for closedness here; ``conformal.deformed_geometry``
    checks it.
    """
    return InstanceAnalysis(inst, eps, alpha)
