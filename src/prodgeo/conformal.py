"""Conformal rescaling of the metric in the frame-constant calculus.

The conformal factor exp(2u) is represented only through the constant
frame components of du, normalized so u vanishes at the evaluation point:
there the rescaled metric equals g numerically while its first derivatives
do not vanish.  Closedness of du forces its components to annihilate the
derived subalgebra, which is exactly what makes a globally consistent u
exist.  All comparisons happen at the base point; metric-weight-sensitive
comparisons are made in (1,3) variance where the scale factors cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotClosed
from .levicivita import ConnectionCoeffs, curvature_components
from .liealg import LieFrameAlgebra, derived_annihilator
from .natural import NaturalConnection
from .pipeline import InstanceAnalysis, analyze_instance
from .structure import ProductStructure, RpmInstance
from .tensors import CO, CONTRA, DEFAULT_EPS, DenseTensor, MetricTensor, max_abs


@dataclass(frozen=True)
class ConformalDeformation:
    """Constant frame components of du, normalized to u = 0 at the base point."""

    alpha: DenseTensor
    basepoint_normalized: bool = True

    def closedness_defect(self, alg: LieFrameAlgebra) -> float:
        return closedness_defect(alg, self.alpha.components)


def closedness_defect(alg: LieFrameAlgebra, alpha) -> float:
    """Largest value of the form on a bracket of frame vectors."""
    return max_abs(alg.c @ np.asarray(alpha, dtype=float))


def closedness_tolerance(alg: LieFrameAlgebra, alpha, eps: float = DEFAULT_EPS) -> float:
    """``eps`` scaled by the size of the terms of the defect; ``eps`` at unit scale."""
    return eps * max(1.0, max_abs(alg.c) * max_abs(alpha))


def require_closed(alg: LieFrameAlgebra, alpha, eps: float = DEFAULT_EPS) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    defect = closedness_defect(alg, alpha)
    if defect > closedness_tolerance(alg, alpha, eps):
        raise NotClosed(
            f"form does not annihilate the derived subalgebra (defect {defect:.3e})"
        )
    return alpha


def closed_form_basis(alg: LieFrameAlgebra) -> np.ndarray:
    """Orthonormal basis (rows) of the closed constant 1-forms."""
    return derived_annihilator(alg)


def random_closed_form(alg: LieFrameAlgebra, rng: np.random.Generator, scale: float = 2.0) -> np.ndarray:
    """A random closed 1-form; zero when the algebra admits none but zero."""
    basis = closed_form_basis(alg)
    if basis.shape[0] == 0:
        return np.zeros(alg.dim)
    return rng.uniform(-scale, scale, basis.shape[0]) @ basis


def transform_levi_civita(
    conn: ConnectionCoeffs, alpha, metric: MetricTensor, alg: LieFrameAlgebra | None = None,
    eps: float = DEFAULT_EPS,
) -> ConnectionCoeffs:
    """Levi-Civita coefficients of the rescaled metric at the base point."""
    alpha = np.asarray(alpha, dtype=float)
    if alg is not None:
        require_closed(alg, alpha, eps)
    dim = metric.dim
    eye = np.eye(dim)
    grad = metric.inverse @ alpha
    gamma = (
        conn.gamma
        + np.einsum("i,jk->ijk", alpha, eye)
        + np.einsum("j,ik->ijk", alpha, eye)
        - np.einsum("ij,k->ijk", metric.matrix, grad)
    )
    return ConnectionCoeffs(gamma, torsion_free=True)


@dataclass(frozen=True)
class LeeTransform:
    theta_bar: DenseTensor
    omega_bar: DenseTensor


def transform_lee(
    theta, omega, alpha, structure: ProductStructure, metric: MetricTensor,
    alg: LieFrameAlgebra | None = None, eps: float = DEFAULT_EPS,
) -> LeeTransform:
    """Lee form and dual of the rescaled metric at the base point.

    The form picks up 2n times du composed with the structure; the dual
    vector correspondingly picks up 2n times the structure image of grad u.
    """
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if alg is not None:
        require_closed(alg, alpha, eps)
    p = structure.components
    n = metric.dim // 2
    grad = metric.inverse @ alpha
    theta_bar = theta + 2.0 * n * (alpha @ p)
    omega_bar = omega + 2.0 * n * (p @ grad)
    return LeeTransform(
        theta_bar=DenseTensor(metric.dim, (CO,), theta_bar),
        omega_bar=DenseTensor(metric.dim, (CONTRA,), omega_bar),
    )


def transform_D(
    d: NaturalConnection, alpha, alg: LieFrameAlgebra | None = None, eps: float = DEFAULT_EPS
) -> ConnectionCoeffs:
    """Natural-connection coefficients of the rescaled metric: du(x) stretches y."""
    alpha = np.asarray(alpha, dtype=float)
    if alg is not None:
        require_closed(alg, alpha, eps)
    dim = d.coeffs.gamma.shape[0]
    gamma = d.coeffs.gamma + np.einsum("i,jk->ijk", alpha, np.eye(dim))
    return ConnectionCoeffs(gamma, torsion_free=False)


def deformed_geometry(inst: RpmInstance, alpha, eps: float = DEFAULT_EPS) -> InstanceAnalysis:
    """From-scratch analysis of the instance rescaled by the closed form ``alpha``.

    Built through the Koszul assembly with the metric-derivative terms
    2 du(x) g(y, z), never through the closed-form transformation rules, so
    it can serve as the independent oracle for them.
    """
    return analyze_instance(inst, eps, require_closed(inst.alg, alpha, eps))


def conformal_curvature_residual(base: InstanceAnalysis, alpha, eps: float = DEFAULT_EPS) -> float:
    """Invariance defect of the natural-connection curvature of ``base`` under rescaling."""
    alg = base.inst.alg
    alpha = require_closed(alg, alpha, eps)
    r_bar = curvature_components(transform_D(base.D, alpha).gamma, alg.c)
    return max_abs(r_bar - base.Rprime13)


def conformal_weyl_residual(base: InstanceAnalysis, rescaled: InstanceAnalysis) -> float:
    """Invariance defect of the Weyl tensor, compared in (1,3) variance."""
    return max_abs((rescaled.W.components - base.W.components) @ base.inst.g_inv)


def conformal_checks(base: InstanceAnalysis, rescaled: InstanceAnalysis, alpha) -> dict[str, float]:
    """The five conformal defects of ``rescaled``, the rescaling of ``base`` by ``alpha``."""
    inst = base.inst
    lee = transform_lee(
        base.lee.theta_components, base.lee.omega_components, alpha, inst.structure, inst.metric
    )
    return {
        "conformal_curvature_invariance": conformal_curvature_residual(base, alpha),
        "conformal_weyl_invariance": conformal_weyl_residual(base, rescaled),
        "conformal_lee_reconstruction": max_abs(
            lee.theta_bar.components - rescaled.lee.theta_components
        ),
        "conformal_connection_reconstruction": max_abs(
            transform_D(base.D, alpha).gamma - rescaled.D.coeffs.gamma
        ),
        "conformal_class_closure": rescaled.flags.conformal_class_residual,
    }
