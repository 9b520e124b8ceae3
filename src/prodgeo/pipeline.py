"""One lazy analysis per metric: every geometric object of an instance.

Each object is a cached property that reads its inputs from the other
properties, so it is built at most once, and only when a check or a table
reads it.  With ``alpha`` the analysis is that of the conformally rescaled
metric at the base point (see ``conformal``): only the Koszul assembly sees
the rescaling, through the metric derivatives 2 du(x) g(y, z); everything
else is built from the rescaled Levi-Civita connection as for the base.
A stack of forms, shape (k, dim), stacks what the conformal checks read:
the connections, the Lee form and the class defects, maxima over the stack.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import levicivita, natural
from .errors import DegeneratePlane
from .levicivita import LeeForm, RicciScalar
from .natural import NaturalConnection, STensor
from .structure import RpmInstance, StructureReport, validate_structure
from .tensors import CO, DEFAULT_EPS, max_abs


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
        dg = None if self.alpha is None else 2.0 * self.alpha[..., :, None, None] * self.inst.g
        return levicivita.levi_civita_coeffs(self.inst, dg)

    @cached_property
    def F(self) -> np.ndarray:
        return levicivita.structure_tensor_F(self.inst, self.nabla)

    @cached_property
    def lee(self) -> LeeForm:
        return levicivita.lee_form(self.inst, self.F)

    @cached_property
    def class_residual(self) -> float:
        """max |F - conformal_class_rhs|, zero on the conformally flat class; the largest over a stack."""
        return max_abs(self.F - levicivita.conformal_class_rhs(self.inst, self.lee.theta))

    @cached_property
    def R(self) -> np.ndarray:
        return levicivita.curvature_tensor(self.nabla, self.inst.c, self.inst.g)

    @cached_property
    def ricci(self) -> RicciScalar:
        return levicivita.ricci_and_scalar(self.R, self.inst.g_inv)

    @cached_property
    def sectional(self) -> dict[tuple[int, int], float]:
        """Sectional curvatures of the basis planes, keyed by 0-based (i, j), i < j; NaN for a plane
        the metric makes degenerate, so the report nulls it and fails, and the other planes stay."""

        def curvature(i, j):
            try:
                return levicivita.sectional_curvature(self.R, self.inst.g, i, j)
            except DegeneratePlane:
                return np.nan

        return {
            (i, j): curvature(i, j)
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
        return self.D.T @ self.inst.g_inv

    @cached_property
    def Rprime(self) -> np.ndarray:
        return natural.curvature_Rprime(self.D, self.inst.c, self.inst.g)

    @cached_property
    def ricci_prime(self) -> RicciScalar:
        return levicivita.ricci_and_scalar(self.Rprime, self.inst.g_inv)

    @cached_property
    def S(self) -> STensor:
        return natural.s_tensor(self.inst, self.dtheta, self.lee.norm_sq)

    @cached_property
    def W(self) -> np.ndarray:
        return levicivita.weyl_tensor(self.R, self.ricci.rho, self.ricci.tau, self.inst.g)

    @cached_property
    def naturality(self) -> dict[str, float]:
        return natural.naturality_defects(self.D, self.inst)

    @cached_property
    def torsion_reconstruction_defect(self) -> float:
        return max_abs(natural.recomputed_torsion(self.D.gamma, self.inst) - self.D.T)

    @cached_property
    def torsion_identities(self) -> dict[str, float]:
        return natural.torsion_identity_defects(self.inst, self.D, self.lee.theta, self.t_sharp)

    @cached_property
    def curvature_relation_residual(self) -> float:
        return natural.verify_curvature_relation(self.R, self.Rprime, self.S, self.inst.g)

    @cached_property
    def ricci_relation(self) -> dict[str, float]:
        return natural.ricci_scalar_relation(
            self.ricci.rho, self.ricci_prime.rho, self.ricci.tau, self.ricci_prime.tau,
            self.S, self.inst.g,
        )

    @cached_property
    def weyl_invariance_residual(self) -> float:
        """Largest component of W - W', the Weyl tensor of R - R': the Weyl tensor is linear in the curvature."""
        rho, tau = self.ricci.rho - self.ricci_prime.rho, self.ricci.tau - self.ricci_prime.tau
        g = self.inst.g
        return levicivita.psi1_defect(self.R, self.Rprime, levicivita.weyl_extension(rho, tau, g), g)

    @cached_property
    def p_criterion(self) -> dict[str, float]:
        return natural.p_curvature_criterion(self.inst, self.grad_theta, self.dtheta, self.Rprime)

    @cached_property
    def parallel(self) -> dict[str, float]:
        return natural.parallel_torsion_defects(
            self.inst, self.D, self.t_sharp, self.lee, self.grad_theta, self.dtheta
        )

    def vanishes(self, defect: float) -> bool:
        """Whether ``defect`` is within the tolerance: the one judgement of a flag or an
        indicator's defect.  A NaN never vanishes."""
        return bool(defect <= self.eps)

    def agree(self, *defects: float) -> bool:
        """Whether the defects of an equivalence agree: all vanish or none does."""
        return len({self.vanishes(d) for d in defects}) == 1

    @cached_property
    def theorem_checks(self) -> dict[str, float | bool]:
        """The identity battery of every report on this analysis, ``{check name: defect}`` in
        report order; a bool is an indicator, true when its defects agree."""
        return {
            **self.naturality,
            "torsion_reconstruction": self.torsion_reconstruction_defect,
            **self.torsion_identities,
            "curvature_relation": self.curvature_relation_residual,
            **self.ricci_relation,
            "weyl_invariance": self.weyl_invariance_residual,
            "curvature_type_criterion_agreement": self.agree(
                self.p_criterion["dtheta_symmetry"], self.p_criterion["bianchi_rprime"]
            ),
            "curvature_type_closedness_agreement": self.agree(
                self.p_criterion["closedness"], self.p_criterion["dtheta_symmetry"]
            ),
            "parallel_torsion_equivalence": self.agree(*self.parallel.values()),
        }

    @cached_property
    def flags(self) -> dict[str, bool]:
        """The class, flatness and parallel-torsion flags of every report on this analysis."""
        return {
            "is_w0": self.vanishes(max_abs(self.F)),
            "is_w1": self.vanishes(self.class_residual),
            "is_product": self.vanishes(self.inst.nijenhuis_defect),
            "flat_natural_connection": self.vanishes(max_abs(self.Rprime)),
            "torsion_parallel": self.vanishes(self.parallel["dt"]),
        }

    @cached_property
    def flat(self) -> dict[str, float]:
        """The flat-branch residuals that apply; no report reads them, only tests."""
        return natural.flat_D_report(
            self.inst, self.D, self.R, self.ricci, self.Rprime, self.W, self.lee.norm_sq,
            self.flags["flat_natural_connection"], self.flags["torsion_parallel"],
        )


def analyze_instance(inst: RpmInstance, eps: float = DEFAULT_EPS, alpha=None) -> InstanceAnalysis:
    """The lazy analysis of ``inst``, or of its rescaling by the closed form ``alpha``.

    ``alpha`` is not checked for closedness here; ``conformal.deformed_geometry``
    checks it.
    """
    return InstanceAnalysis(inst, eps, alpha)
