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

from . import levicivita, natural
from .errors import NotClosed
from .levicivita import ConnectionCoeffs, curvature_components
from .liealg import LieFrameAlgebra, derived_annihilator
from .natural import NaturalConnection
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


@dataclass(frozen=True)
class DeformedGeometry:
    """From-scratch geometry of the rescaled instance at the base point.

    Built through the generalized Koszul assembly with the metric-derivative
    terms 2 du(x) g(y, z), never through the closed-form transformation
    rules, so it can serve as the independent oracle for them.
    """

    inst: RpmInstance
    alpha: np.ndarray
    nabla: ConnectionCoeffs
    F: DenseTensor
    theta: np.ndarray
    omega: np.ndarray
    D: NaturalConnection
    R: DenseTensor
    rho: DenseTensor
    tau: float
    Rprime: DenseTensor
    rho_prime: DenseTensor
    tau_prime: float
    S: natural.STensor
    W: DenseTensor
    Wprime: DenseTensor
    conformal_class_residual: float


def deformed_geometry(inst: RpmInstance, alpha, eps: float = DEFAULT_EPS) -> DeformedGeometry:
    alpha = require_closed(inst.alg, alpha, eps)
    g, g_inv = inst.g, inst.g_inv
    metric = inst.metric

    # Koszul with non-vanishing metric derivatives: d[i,j,k] = X_i(gbar(X_j, X_k))
    dg = 2.0 * np.einsum("i,jk->ijk", alpha, g)
    b = np.einsum("ijm,mk->ijk", inst.c, g)
    low = 0.5 * (
        dg + np.einsum("jik->ijk", dg) - np.einsum("kij->ijk", dg)
        + b + np.einsum("kij->ijk", b) + np.einsum("kji->ijk", b)
    )
    nabla = ConnectionCoeffs(np.einsum("ijk,kl->ijl", low, g_inv), torsion_free=True)

    f = levicivita.structure_tensor_F(inst, nabla)
    lee = levicivita.lee_form(inst, f)
    theta, omega = lee.theta_components, lee.omega_components

    d = natural.connection_D_from(inst, nabla, theta)

    r = DenseTensor(inst.dim, (CO, CO, CO, CO), curvature_components(nabla.gamma, inst.c) @ g)
    ricci = levicivita.ricci_and_scalar(r, metric)
    r_prime = natural.curvature_Rprime(d, inst.alg, metric)
    ricci_prime = levicivita.ricci_and_scalar(r_prime, metric)
    s = natural.s_tensor(inst, d, theta)

    w = levicivita.weyl_tensor(r, ricci.rho, ricci.tau, metric)
    w_prime = levicivita.weyl_tensor(r_prime, ricci_prime.rho, ricci_prime.tau, metric)

    class_residual = max_abs(f.components - levicivita.conformal_class_rhs(inst, theta))

    return DeformedGeometry(
        inst=inst,
        alpha=alpha,
        nabla=nabla,
        F=f,
        theta=theta,
        omega=omega,
        D=d,
        R=r,
        rho=ricci.rho,
        tau=ricci.tau,
        Rprime=r_prime,
        rho_prime=ricci_prime.rho,
        tau_prime=ricci_prime.tau,
        S=s,
        W=w,
        Wprime=w_prime,
        conformal_class_residual=class_residual,
    )


def conformal_curvature_residual(
    d: NaturalConnection, alpha, alg: LieFrameAlgebra, metric: MetricTensor,
    eps: float = DEFAULT_EPS,
) -> float:
    """Invariance defect of the natural-connection curvature under rescaling."""
    alpha = require_closed(alg, alpha, eps)
    transformed = transform_D(d, alpha)
    r_bar = curvature_components(transformed.gamma, alg.c)
    r = curvature_components(d.coeffs.gamma, alg.c)
    return max_abs(r_bar - r)


def conformal_weyl_residual(inst: RpmInstance, alpha, eps: float = DEFAULT_EPS) -> float:
    """Invariance defect of the Weyl tensor, compared in (1,3) variance."""
    alpha = require_closed(inst.alg, alpha, eps)
    geo = deformed_geometry(inst, alpha, eps)

    nabla = levicivita.levi_civita_coeffs(inst)
    r = levicivita.curvature_tensor(nabla, inst.alg, inst.metric)
    ricci = levicivita.ricci_and_scalar(r, inst.metric)
    w = levicivita.weyl_tensor(r, ricci.rho, ricci.tau, inst.metric)

    return max_abs(geo.W.components @ inst.g_inv - w.components @ inst.g_inv)
