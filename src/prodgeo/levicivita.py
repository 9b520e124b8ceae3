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
  * sectional curvature k(u, v) = R(u, v, v, u) / (g(u,u)g(v,v) - g(u,v)^2), taken on basis planes.

The kernels the conformal checks read (the Koszul terms of ``dg``, the Lee
form, the class expression, the curvature, Ricci, the Weyl 2-tensor and psi1)
take leading stack axes on their array arguments, one result per slice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePlane, NonSymmetricInputWarning
from .structure import RpmInstance
from .tensors import CO, DEFAULT_EPS, blocks, max_abs, nan_max


@dataclass(frozen=True)
class LeeForm:
    """A 1-form together with its metric-dual vector."""

    theta: np.ndarray
    omega: np.ndarray

    @cached_property
    def norm_sq(self) -> float:
        """theta applied to its own dual; zero exactly when the form vanishes."""
        return float(self.theta @ self.omega)


def levi_civita_coeffs(inst: RpmInstance, dg: np.ndarray | None = None) -> np.ndarray:
    """Koszul assembly of gamma at a point where the metric equals ``inst.g``.

    ``dg[i, j, k] = X_i(g(X_j, X_k))`` are the frame derivatives of the
    metric there; None (zero) for a frame-constant metric.
    """
    b = inst.c @ inst.g
    terms = [b, np.einsum("kij->ijk", b), np.einsum("kji->ijk", b)]
    if dg is not None:
        terms = [dg, np.einsum("...jik->...ijk", dg), -np.einsum("...kij->...ijk", dg)] + terms
    low = 0.5 * sum(terms)
    with np.errstate(invalid="ignore"):  # NaN only from an inf of the sum, whose overflow has warned
        return low @ inst.g_inv


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
        del term  # else it is alive while the next slot's term is built
    return out


def structure_tensor_F(inst: RpmInstance, gamma: np.ndarray) -> np.ndarray:
    """Lowered covariant derivative of the product structure."""
    return (inst.p.T @ gamma - gamma @ inst.p.T) @ inst.g


def lee_form(inst: RpmInstance, f: np.ndarray) -> LeeForm:
    """Metric trace of the structure tensor over its first two slots."""
    theta = np.einsum("ij,...ijk->...k", inst.g_inv, f)
    return LeeForm(theta=theta, omega=theta @ inst.g_inv.T)


def conformal_class_rhs(inst: RpmInstance, theta: np.ndarray) -> np.ndarray:
    """The g-and-Lee-form expression that characterizes the conformally flat class."""
    g, p = inst.g, inst.p
    theta_p = theta @ p
    g_p = g @ p
    return (
        np.einsum("ij,...k->...ijk", g, theta)
        + np.einsum("ik,...j->...ijk", g, theta)
        - np.einsum("ij,...k->...ijk", g_p, theta_p)
        - np.einsum("ik,...j->...ijk", g_p, theta_p)
    ) / (2.0 * inst.n)


def curvature_components(
    gamma: np.ndarray, c: np.ndarray, g: np.ndarray | None = None, minus: np.ndarray | None = None
) -> np.ndarray:
    """Frame curvature of constant connection coefficients, value slot last, lowered by ``g`` if given.

    Filled one third-slot block B at a time (``tensors.blocks``) into the one buffer.
    Both quadratic terms come from one batched matrix product, t[i, j, k, l] =
    gamma[j, k, m] gamma[i, m, l] for k in B: the second term is t with its first two
    slots swapped.  The bracket term then goes into t's buffer.  With ``g`` the right
    factor of both products is gamma g, so lowering costs a dim**3 product, not a dim**5
    one.  With ``minus``, the curvature of gamma minus that of ``minus``, which has the
    stack axes of gamma or none: the products are differenced before the swap, the
    bracket term is that of gamma - minus.
    """
    d, lead = gamma.shape[-1], gamma.shape[:-3]
    right = bracket = gamma if g is None else gamma @ g
    if minus is not None:
        minus_right = minus if g is None else minus @ g
        bracket = gamma - minus if g is None else (gamma - minus) @ g
        low = minus.shape[:-3]
    r = np.empty(lead + (d,) * 4, dtype=np.result_type(gamma, c))
    for b in blocks(d):
        t = (gamma[..., None, :, b, :].reshape(lead + (1, -1, d)) @ right).reshape(lead + (d, d, -1, d))
        if minus is not None:
            t -= (minus[..., None, :, b, :].reshape(low + (1, -1, d)) @ minus_right).reshape(low + (d, d, -1, d))
        np.subtract(t, t.swapaxes(-4, -3), out=r[..., b, :])
        np.matmul(c.reshape(d * d, d), bracket[..., b, :].reshape(lead + (d, -1)), out=t.reshape(lead + (d * d, -1)))
        r[..., b, :] -= t
    return r


def curvature_tensor(gamma: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Lowered curvature tensor of a frame-constant connection."""
    return curvature_components(gamma, c, g)


@dataclass(frozen=True)
class RicciScalar:
    rho: np.ndarray
    tau: float | np.ndarray


def ricci_and_scalar(r: np.ndarray, g_inv: np.ndarray) -> RicciScalar:
    """Ricci tensor and scalar curvature by first/last-slot traces with the inverse metric ``g_inv``;
    tau is an array for a stack."""
    rho = np.einsum("il,...ijkl->...jk", g_inv, r)
    tau = np.einsum("jk,...jk->...", g_inv, rho)
    return RicciScalar(rho=rho, tau=float(tau) if tau.ndim == 0 else tau)


def sectional_curvature(r: np.ndarray, g: np.ndarray, i: int, j: int) -> float:
    """k(X_i, X_j) = R_ijji over the squared area, degenerate at ``DEFAULT_EPS`` times its Cauchy-Schwarz bound
    g_ii g_jj (a NaN passes): on a basis plane every sum of k(u, v) has one non-zero term, so four entries."""
    gii, gij, gjj = g[i, i], g[i, j], g[j, j]
    area_sq = gii * gjj - gij**2
    if area_sq <= DEFAULT_EPS * gii * gjj:
        raise DegeneratePlane("the two directions span a degenerate 2-plane")
    return float(r[i, j, j, i]) / float(area_sq)


def psi1_blocks(g: np.ndarray, s, eps: float = DEFAULT_EPS):
    """Curvature-type extension of a 2-tensor by the metric ``g``: yields each first-slot block's
    slice b and psi1(s)[..., b, :, :, :].

    Warns once (and still evaluates) when the input is not symmetric, in which
    case the first-Bianchi property of the output is lost.
    """
    s = np.asarray(s, dtype=float)
    if max_abs(s - s.swapaxes(-1, -2)) > eps * max(1.0, max_abs(s)):
        warnings.warn("extending a non-symmetric 2-tensor", NonSymmetricInputWarning)
    # a = g(y, z) s(x, w) + s(y, z) g(x, w) at [x, y, z, w] is [vec g, vec s] [vec s; vec g] at
    # [(y, z), (x, w)], and a with x, y swapped is that at [(x, z), (y, w)]: one rank-2 product each
    d, lead = len(g), s.shape[:-2]
    u = np.empty(lead + (2, d * d))
    u[..., 0, :], u[..., 1, :] = g.ravel(), s.reshape(lead + (-1,))
    columns, flipped = u.swapaxes(-1, -2), u[..., ::-1, :]
    a_shape, swapped_shape = lead + (d, d, -1, d), lead + (-1, d, d, d)
    x_first = (*range(len(lead)), -2, -4, -3, -1)  # [y, z, x, w] to [x, y, z, w]
    for b in blocks(d):
        rows = u[..., b.start * d : b.stop * d]  # [vec g[b], vec s[b]], a view
        a = (columns @ rows[..., ::-1, :]).reshape(a_shape).transpose(x_first)
        swapped = (rows.swapaxes(-1, -2) @ flipped).reshape(swapped_shape).swapaxes(-3, -2)
        yield b, a - swapped


def psi1_defect(r: np.ndarray, minus: np.ndarray | None, s, g: np.ndarray, eps: float = DEFAULT_EPS) -> float:
    """max |r - minus + psi1(s)|, ``minus`` None for zero, by ``psi1_blocks`` blocks: no dim**4 difference is
    held.  r - minus is formed before psi1(s) is added; the arrays may share leading stack axes."""
    maxima = []
    for b, residual in psi1_blocks(g, s, eps):
        residual += r[..., b, :, :, :] if minus is None else r[..., b, :, :, :] - minus[..., b, :, :, :]
        maxima.append(max_abs(residual))
    return nan_max(maxima)


def weyl_extension(rho: np.ndarray, tau, g: np.ndarray) -> np.ndarray:
    """The 2-tensor s with W = R + psi1(s), (tau g / (2(2n - 1)) - rho) / (2(n - 1)); one per slice of a stack."""
    n = len(g) // 2
    return (np.multiply.outer(tau / (2 * (2 * n - 1)), g) - rho) / (2 * (n - 1))


def weyl_tensor(r: np.ndarray, rho: np.ndarray, tau: float, g: np.ndarray) -> np.ndarray:
    """Trace-free conformally invariant part of a curvature tensor, r + psi1(``weyl_extension``), block by block."""
    w = np.empty(r.shape)
    for b, extension in psi1_blocks(g, weyl_extension(rho, tau, g)):
        np.add(r[..., b, :, :, :], extension, out=w[..., b, :, :, :])
    return w
