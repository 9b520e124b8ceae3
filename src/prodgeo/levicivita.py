"""Levi-Civita connection and the curvature objects built from it.

Everything is evaluated in a frame of left-invariant fields, so tensor
components are constant and directional derivatives of components vanish:
the Koszul formula reduces to its bracket terms and covariant derivatives
reduce to connection-coefficient corrections.

Conventions (fixed by the golden component tables of the builtin example):
  * gamma[i, j, k] is the coefficient of the k-th frame vector in the
    derivative of frame vector j along frame vector i;
  * curvature R(x, y)z = del_x del_y z - del_y del_x z - del_[x,y] z,
    lowered in the last slot, stored as R[i, j, k, l];
  * Ricci contracts the first and last slots of the lowered curvature;
  * sectional curvature k(u, v) = R(u, v, v, u) / (g(u,u)g(v,v) - g(u,v)^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, NonSymmetricInputWarning, RankOverflow, SingularMetric
from .liealg import LieFrameAlgebra
from .structure import RpmInstance, nijenhuis_tensor
from .tensors import (
    CO,
    CONTRA,
    DEFAULT_EPS,
    MAX_RANK,
    DenseTensor,
    MetricTensor,
    compose,
    freeze,
    max_abs,
)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Frame-constant coefficients of a linear connection."""

    gamma: np.ndarray
    torsion_free: bool

    def __post_init__(self):
        object.__setattr__(self, "gamma", freeze(self.gamma))


@dataclass(frozen=True)
class LeeForm:
    """A 1-form together with its metric-dual vector."""

    theta: DenseTensor
    omega: DenseTensor

    @property
    def theta_components(self) -> np.ndarray:
        return self.theta.components

    @property
    def omega_components(self) -> np.ndarray:
        return self.omega.components

    @property
    def norm_sq(self) -> float:
        """theta applied to its own dual; zero exactly when the form vanishes."""
        return float(self.theta.components @ self.omega.components)


def torsion_defect(conn: ConnectionCoeffs, alg: LieFrameAlgebra) -> float:
    return max_abs(conn.gamma - np.swapaxes(conn.gamma, 0, 1) - alg.c)


def compatibility_defect(conn: ConnectionCoeffs, metric: MetricTensor) -> float:
    low = np.einsum("ijm,mk->ijk", conn.gamma, metric.matrix)
    return max_abs(low + np.swapaxes(low, 1, 2))


def levi_civita_coeffs(inst: RpmInstance, dg: np.ndarray | None = None) -> ConnectionCoeffs:
    """Koszul assembly at a point where the metric equals ``inst.g``.

    ``dg[i, j, k] = X_i(g(X_j, X_k))`` are the frame derivatives of the
    metric there; None (zero) for a frame-constant metric.
    """
    if not np.all(np.isfinite(inst.g_inv)):
        raise SingularMetric("metric inverse has non-finite entries")
    b = np.einsum("ijm,mk->ijk", inst.c, inst.g)
    terms = [b, np.einsum("kij->ijk", b), np.einsum("kji->ijk", b)]
    if dg is not None:
        terms = [dg, np.einsum("jik->ijk", dg), -np.einsum("kij->ijk", dg)] + terms
    low = 0.5 * sum(terms)
    return ConnectionCoeffs(np.einsum("ijk,kl->ijl", low, inst.g_inv), torsion_free=True)


def cov_deriv_components(gamma: np.ndarray, components: np.ndarray, variance) -> np.ndarray:
    """Covariant derivative of frame-constant components; direction slot first.

    ``gamma`` may be a slab of directions, shape ``(k, dim, dim)``; the
    result then has ``k`` entries in the direction slot.  Each slot is one
    batched matrix product over the leading slots.
    """
    dim = gamma.shape[1]
    out = np.zeros((gamma.shape[0],) + components.shape)
    for slot, tag in enumerate(variance):
        g = gamma if tag == CO else gamma.transpose(0, 2, 1)
        if slot == len(variance) - 1:  # one product per direction, not dim**slot small ones
            term = components.reshape(-1, dim) @ g.transpose(0, 2, 1)
        else:
            term = g[:, None] @ components.reshape(dim**slot, dim, -1)
        term = term.reshape(out.shape)
        if tag == CO:
            out -= term
        else:
            out += term
    return out


def covariant_derivative(conn: ConnectionCoeffs, t: DenseTensor) -> DenseTensor:
    """Covariant derivative as a tensor of one higher rank (direction slot first)."""
    if t.rank >= MAX_RANK:
        raise RankOverflow(f"derivative of a rank-{t.rank} tensor exceeds rank {MAX_RANK}")
    out = cov_deriv_components(conn.gamma, t.components, t.variance)
    return DenseTensor(t.dim, (CO,) + t.variance, out)


def structure_tensor_F(inst: RpmInstance, conn: ConnectionCoeffs) -> DenseTensor:
    """Lowered covariant derivative of the product structure."""
    dp = np.einsum("iml,mj->ijl", conn.gamma, inst.p) - np.einsum(
        "lm,ijm->ijl", inst.p, conn.gamma
    )
    return DenseTensor(inst.dim, (CO, CO, CO), np.einsum("ijl,lk->ijk", dp, inst.g))


def lee_form(inst: RpmInstance, f: DenseTensor) -> LeeForm:
    """Metric trace of the structure tensor over its first two slots."""
    theta = np.einsum("ij,ijk->k", inst.g_inv, f.components)
    omega = inst.g_inv @ theta
    return LeeForm(
        theta=DenseTensor(inst.dim, (CO,), theta),
        omega=DenseTensor(inst.dim, (CONTRA,), omega),
    )


def conformal_class_rhs(inst: RpmInstance, theta: np.ndarray) -> np.ndarray:
    """The g-and-Lee-form expression that characterizes the conformally flat class."""
    g, p = inst.g, inst.p
    theta_p = theta @ p
    g_p = g @ p
    return (
        np.einsum("ij,k->ijk", g, theta)
        + np.einsum("ik,j->ijk", g, theta)
        - np.einsum("ij,k->ijk", g_p, theta_p)
        - np.einsum("ik,j->ijk", g_p, theta_p)
    ) / (2.0 * inst.n)


@dataclass(frozen=True)
class ClassFlags:
    """Membership predicates with the defect magnitudes behind them."""

    is_w0: bool
    is_w1: bool
    is_product: bool
    structure_tensor_defect: float
    conformal_class_residual: float
    nijenhuis_defect: float


def class_flags(inst: RpmInstance, f: DenseTensor, theta, eps: float = DEFAULT_EPS) -> ClassFlags:
    """Class membership from the structure tensor ``f`` and its Lee form ``theta``."""
    w0_defect = max_abs(f.components)
    w1_residual = max_abs(f.components - conformal_class_rhs(inst, theta))
    n_defect = max_abs(nijenhuis_tensor(inst).components)
    return ClassFlags(
        is_w0=w0_defect <= eps,
        is_w1=w1_residual <= eps,
        is_product=n_defect <= eps,
        structure_tensor_defect=w0_defect,
        conformal_class_residual=w1_residual,
        nijenhuis_defect=n_defect,
    )


def curvature_components(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Frame curvature of constant connection coefficients, value slot last.

    Both quadratic terms come from one batched matrix product,
    t[i, j, k, l] = gamma[j, k, m] gamma[i, m, l]: the second term is t with
    its first two slots swapped.
    """
    d = gamma.shape[0]
    t = (gamma.reshape(d * d, d) @ gamma).reshape((d,) * 4)
    return t - t.swapaxes(0, 1) - compose(c, gamma)


def curvature_tensor(conn: ConnectionCoeffs, alg: LieFrameAlgebra, metric: MetricTensor) -> DenseTensor:
    """Lowered curvature tensor of a frame-constant connection."""
    r13 = curvature_components(conn.gamma, alg.c)
    return DenseTensor(alg.dim, (CO, CO, CO, CO), r13 @ metric.matrix)


@dataclass(frozen=True)
class RicciScalar:
    rho: DenseTensor
    tau: float


def ricci_and_scalar(r: DenseTensor, metric: MetricTensor) -> RicciScalar:
    """Ricci tensor and scalar curvature by first/last-slot metric traces."""
    rho = np.einsum("il,ijkl->jk", metric.inverse, r.components)
    tau = float(np.einsum("jk,jk->", metric.inverse, rho))
    return RicciScalar(rho=DenseTensor(r.dim, (CO, CO), rho), tau=tau)


def sectional_curvature(r: DenseTensor, metric: MetricTensor, u, v, eps: float = DEFAULT_EPS) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = metric.matrix
    area_sq = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if abs(area_sq) <= eps:
        raise DegeneratePlane("the two directions span a degenerate 2-plane")
    numer = float(((r.components @ u) @ v) @ v @ u)
    return numer / float(area_sq)


def pi1_tensor(metric: MetricTensor) -> DenseTensor:
    """The curvature-type tensor of a unit-curvature space form for this metric."""
    g = metric.matrix
    out = g[None, :, :, None] * g[:, None, None, :] - g[:, None, :, None] * g[None, :, None, :]
    return DenseTensor(metric.dim, (CO, CO, CO, CO), out)


def psi1_operator(metric: MetricTensor, s, eps: float = DEFAULT_EPS) -> DenseTensor:
    """Curvature-type extension of a 2-tensor by the metric.

    Warns (and still evaluates) when the input is not symmetric, in which
    case the first-Bianchi property of the output is lost.
    """
    s = np.asarray(s, dtype=float)
    if max_abs(s - s.T) > eps * max(1.0, max_abs(s)):
        warnings.warn("extending a non-symmetric 2-tensor", NonSymmetricInputWarning)
    g = metric.matrix
    out = (
        g[None, :, :, None] * s[:, None, None, :]
        - g[:, None, :, None] * s[None, :, None, :]
        + s[None, :, :, None] * g[:, None, None, :]
        - s[:, None, :, None] * g[None, :, None, :]
    )
    return DenseTensor(metric.dim, (CO, CO, CO, CO), out)


def weyl_tensor(r: DenseTensor, rho: DenseTensor, tau: float, metric: MetricTensor) -> DenseTensor:
    """Trace-free conformally invariant part of a curvature tensor."""
    n = metric.dim // 2
    correction = (
        psi1_operator(metric, rho.components).components
        - (tau / (2 * n - 1)) * pi1_tensor(metric).components
    )
    return DenseTensor(
        metric.dim, (CO, CO, CO, CO), r.components - correction / (2 * (n - 1))
    )
