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
from .levicivita import curvature_components, ricci_and_scalar, weyl_tensor
from .liealg import LieFrameAlgebra
from .natural import NaturalConnection
from .pipeline import InstanceAnalysis, analyze_instance
from .structure import ProductStructure, RpmInstance
from .tensors import DEFAULT_EPS, MetricTensor, blocks, max_abs


def closedness_defect(alg: LieFrameAlgebra, alpha) -> float:
    """Largest value of the form on a bracket of frame vectors."""
    return max_abs(alg.c @ np.asarray(alpha, dtype=float))


def require_closed(alg: LieFrameAlgebra, alpha, eps: float = DEFAULT_EPS) -> np.ndarray:
    """``alpha`` as a float array; NotClosed, with the closed-form basis, if it is not closed.

    The tolerance is ``eps`` scaled by the size of the terms of the defect,
    and ``eps`` itself at unit scale.  ``eps`` is floored at dim ulps, the
    roundoff of one bracket sum, so a form taken from ``alg.closed_forms``
    passes at ``eps`` = 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    defect = closedness_defect(alg, alpha)
    if defect > max(eps, alg.dim * np.finfo(float).eps) * max(1.0, max_abs(alg.c) * max_abs(alpha)):
        raise NotClosed(
            f"the 1-form is not closed (bracket defect {defect:.3e}); "
            f"closed forms must annihilate the derived subalgebra.\n"
            f"closed-form basis rows:\n{np.array2string(alg.closed_forms, precision=6)}",
            alg.closed_forms,
        )
    return alpha


def random_closed_form(alg: LieFrameAlgebra, rng: np.random.Generator, scale: float = 2.0) -> np.ndarray:
    """A random closed 1-form; zero when the algebra admits none but zero."""
    basis = alg.closed_forms
    if basis.shape[0] == 0:
        return np.zeros(alg.dim)
    return rng.uniform(-scale, scale, basis.shape[0]) @ basis


def transform_levi_civita(gamma: np.ndarray, alpha, metric: MetricTensor) -> np.ndarray:
    """Levi-Civita coefficients of the rescaled metric at the base point."""
    alpha = np.asarray(alpha, dtype=float)
    dim = metric.dim
    eye = np.eye(dim)
    grad = metric.inverse @ alpha
    return (
        gamma
        + np.einsum("i,jk->ijk", alpha, eye)
        + np.einsum("j,ik->ijk", alpha, eye)
        - np.einsum("ij,k->ijk", metric.matrix, grad)
    )


@dataclass(frozen=True)
class LeeTransform:
    theta_bar: np.ndarray
    omega_bar: np.ndarray


def transform_lee(
    theta, omega, alpha, structure: ProductStructure, metric: MetricTensor
) -> LeeTransform:
    """Lee form and dual of the rescaled metric at the base point.

    The form picks up 2n times du composed with the structure; the dual
    vector correspondingly picks up 2n times the structure image of grad u.
    """
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    p = structure.components
    n = metric.dim // 2
    grad = alpha @ metric.inverse.T
    return LeeTransform(
        theta_bar=theta + 2.0 * n * (alpha @ p),
        omega_bar=omega + 2.0 * n * (grad @ p.T),
    )


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
    here (``require_closed``), as ``verify-paper`` checks each form of its sampled stack.
    """
    return analyze_instance(inst, eps, require_closed(inst.alg, alpha, eps))


def conformal_curvature_residual(base: InstanceAnalysis, gamma_bar: np.ndarray) -> float:
    """Invariance defect of the curvature of D: ``gamma_bar`` is ``base.D``
    transformed by a closed form (``transform_D``)."""
    return max_abs(curvature_components(gamma_bar, base.inst.c, minus=base.D.gamma))


def conformal_weyl_residual(base: InstanceAnalysis, rescaled: InstanceAnalysis) -> float:
    """Invariance defect of the Weyl tensor, compared in (1,3) variance: the Weyl
    tensor is linear in the curvature and the metrics agree at the base point, so
    the Weyl difference is the Weyl tensor of the curvature difference."""
    metric = base.inst.metric
    diff = curvature_components(rescaled.nabla, base.inst.c, metric.matrix, minus=base.nabla)
    ricci = ricci_and_scalar(diff, metric)
    # alpha is closed, so both Ricci tensors are symmetric: any asymmetry here is their roundoff
    w = weyl_tensor(diff, ricci.rho, ricci.tau, metric, eps=np.inf, out=diff)
    return float(np.maximum.reduce([max_abs(w[..., b, :, :, :] @ metric.inverse) for b in blocks(metric.dim)]))


def conformal_checks(base: InstanceAnalysis, rescaled: InstanceAnalysis) -> dict[str, float]:
    """The five conformal defects of ``rescaled``, a ``deformed_geometry`` of ``base``, or of a
    stack of forms, each then the largest over the stack: a NaN of any form is kept."""
    inst, alpha = base.inst, rescaled.alpha
    lee = transform_lee(base.lee.theta, base.lee.omega, alpha, inst.structure, inst.metric)
    gamma_bar = transform_D(base.D, alpha)
    return {
        "conformal_curvature_invariance": conformal_curvature_residual(base, gamma_bar),
        "conformal_weyl_invariance": conformal_weyl_residual(base, rescaled),
        "conformal_lee_reconstruction": max_abs(lee.theta_bar - rescaled.lee.theta),
        "conformal_connection_reconstruction": max_abs(gamma_bar - rescaled.D.gamma),
        "conformal_class_closure": rescaled.flags.conformal_class_residual,
    }
