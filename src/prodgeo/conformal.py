"""Conformal rescaling of the metric in the frame-constant calculus.

The conformal factor exp(2u) is represented only through the constant
frame components of du, normalized so u vanishes at the evaluation point:
there the rescaled metric equals g numerically while its first derivatives
do not vanish.  Closedness of du forces its components to annihilate the
derived subalgebra, which is exactly what makes a globally consistent u
exist.  All comparisons happen at the base point, where the two metrics
agree, so lowering by either gives the same components.
"""

from __future__ import annotations

import numpy as np

from .errors import NotClosed
from .levicivita import curvature_components, psi1_defect, ricci_and_scalar, weyl_extension
from .liealg import LieFrameAlgebra
from .natural import NaturalConnection
from .pipeline import InstanceAnalysis, analyze_instance
from .structure import RpmInstance
from .tensors import DEFAULT_EPS, max_abs


def closedness_defect(alg: LieFrameAlgebra, alpha) -> float | np.ndarray:
    """Largest value of the form on a bracket of frame vectors; one per form of a stack (k, dim)."""
    defects = np.abs(alg.c @ np.asarray(alpha, dtype=float).T).max(axis=(0, 1))
    return float(defects) if defects.ndim == 0 else defects


def require_closed(alg: LieFrameAlgebra, alpha, eps: float = DEFAULT_EPS) -> np.ndarray:
    """``alpha`` as a float array; NotClosed, with the closed-form basis, if it is not closed.

    Each form of a stack is judged against its own tolerance: ``eps`` scaled
    by the size of the terms of its defect, and ``eps`` itself at unit scale.
    ``eps`` is floored at dim ulps, the roundoff of one bracket sum.  A NaN
    defect is above no tolerance.
    """
    alpha = np.asarray(alpha, dtype=float)
    defects = np.atleast_1d(closedness_defect(alg, alpha))
    scale = np.maximum(1.0, max_abs(alg.c) * np.abs(alpha).max(axis=-1))
    above = np.flatnonzero(defects > max(eps, alg.dim * np.finfo(float).eps) * scale)
    if above.size:
        raise NotClosed(
            f"the 1-form is not closed (bracket defect {defects[above[0]]:.3e}); "
            f"closed forms must annihilate the derived subalgebra.\n"
            f"closed-form basis rows:\n{np.array2string(alg.closed_forms, precision=6)}",
            alg.closed_forms,
        )
    return alpha


def random_closed_form(alg: LieFrameAlgebra, rng: np.random.Generator) -> np.ndarray:
    """A random closed 1-form, basis coefficients uniform in [-2, 2]; zero when the algebra admits none but zero."""
    basis = alg.closed_forms
    if basis.shape[0] == 0:
        return np.zeros(alg.dim)
    return rng.uniform(-2.0, 2.0, basis.shape[0]) @ basis


def transform_lee(theta, alpha, p: np.ndarray) -> np.ndarray:
    """Lee form of the rescaled metric at the base point, one per form of a stack:
    it picks up 2n times du composed with the structure ``p``."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = len(p) // 2
    return theta + 2.0 * n * (alpha @ p)


def transform_D(d: NaturalConnection, alpha) -> np.ndarray:
    """Natural-connection coefficients of the rescaled metric: du(x) stretches y; one per form of a stack."""
    alpha = np.asarray(alpha, dtype=float)
    dim = d.gamma.shape[-1]
    return d.gamma + np.einsum("...i,jk->...ijk", alpha, np.eye(dim))


def deformed_geometry(inst: RpmInstance, alpha, eps: float = DEFAULT_EPS) -> InstanceAnalysis:
    """From-scratch analysis of the instance rescaled by the closed form ``alpha``.

    Built through the Koszul assembly with the metric-derivative terms
    2 du(x) g(y, z), never through the closed-form transformation rules, so
    it can serve as the independent oracle for them.  ``alpha`` is checked for closedness
    here (``require_closed``), the one check of a form from outside.
    """
    return analyze_instance(inst, eps, require_closed(inst.alg, alpha, eps))


def conformal_curvature_residual(base: InstanceAnalysis, gamma_bar: np.ndarray) -> float:
    """Invariance defect of the curvature of D: ``gamma_bar`` is ``base.D``
    transformed by a closed form (``transform_D``)."""
    return max_abs(curvature_components(gamma_bar, base.inst.c, minus=base.D.gamma))


def conformal_weyl_residual(base: InstanceAnalysis, rescaled: InstanceAnalysis) -> float:
    """Invariance defect of the Weyl tensor, compared lowered: the Weyl tensor is
    linear in the curvature and the metrics agree at the base point, so the Weyl
    difference is the Weyl tensor of the curvature difference."""
    inst = base.inst
    diff = curvature_components(rescaled.nabla, inst.c, inst.g, minus=base.nabla)
    ricci = ricci_and_scalar(diff, inst.g_inv)
    # alpha is closed, so both Ricci tensors are symmetric: any asymmetry here is their roundoff
    return psi1_defect(diff, None, weyl_extension(ricci.rho, ricci.tau, inst.g), inst.g, eps=np.inf)


def conformal_checks(base: InstanceAnalysis, rescaled: InstanceAnalysis) -> dict[str, float]:
    """The five conformal defects of ``rescaled``, a ``deformed_geometry`` of ``base``, or of a
    stack of forms, each then the largest over the stack: a NaN of any form is kept."""
    inst, alpha = base.inst, rescaled.alpha
    theta_bar = transform_lee(base.lee.theta, alpha, inst.p)
    gamma_bar = transform_D(base.D, alpha)
    return {
        "conformal_curvature_invariance": conformal_curvature_residual(base, gamma_bar),
        "conformal_weyl_invariance": conformal_weyl_residual(base, rescaled),
        "conformal_lee_reconstruction": max_abs(theta_bar - rescaled.lee.theta),
        "conformal_connection_reconstruction": max_abs(gamma_bar - rescaled.D.gamma),
        "conformal_class_closure": rescaled.flags.conformal_class_residual,
    }
