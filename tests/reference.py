"""Independent reference formulas that the tests compare the package against.

Each function restates an object by a route no command takes: by explicit
einsum expansions, by the general two-parameter natural-torsion family, or
by the closed-form transformation rules of a conformal rescaling.  The
package computes each of these objects once, its own way; a test holds the
two routes to the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prodgeo.errors import DimensionMismatch
from prodgeo.levicivita import levi_civita_coeffs
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.natural import NaturalConnection
from prodgeo.structure import RpmInstance, structure_pullback
from prodgeo.tensors import max_abs


def abelian(dim: int) -> LieFrameAlgebra:
    """The abelian algebra of a frame of ``dim`` vectors: every bracket vanishes."""
    return LieFrameAlgebra(dim=dim, c=np.zeros((dim, dim, dim)))


def bracket(alg: LieFrameAlgebra, u, v) -> np.ndarray:
    """Components of the bracket of two frame-constant vector fields."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (alg.dim,) or v.shape != (alg.dim,):
        raise DimensionMismatch(f"vectors must have {alg.dim} components")
    return np.einsum("i,j,ijk->k", u, v, alg.c)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i, j, m] b[m, k, l] for two (dim, dim, dim) arrays, as one matrix product."""
    d = a.shape[0]
    return (a.reshape(d * d, d) @ b.reshape(d, d * d)).reshape((d,) * 4)


def torsion_defect(gamma: np.ndarray, alg: LieFrameAlgebra) -> float:
    """Largest torsion component of the connection ``gamma`` on the frame of ``alg``."""
    return max_abs(gamma - np.swapaxes(gamma, 0, 1) - alg.c)


def compatibility_defect(gamma: np.ndarray, g: np.ndarray) -> float:
    """Largest component of the covariant derivative of the frame-constant metric ``g``."""
    low = np.einsum("ijm,mk->ijk", gamma, g)
    return max_abs(low + np.swapaxes(low, 1, 2))


def abelian_structure_defect(inst: RpmInstance) -> float:
    """Largest component of [P·, P·] + [·, ·] over all frame pairs."""
    return max_abs(structure_pullback(inst.p, inst.c) + inst.c)


def transform_levi_civita(gamma: np.ndarray, alpha, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients of the metric ``g`` (inverse ``g_inv``) rescaled by the closed form
    ``alpha``, at the base point."""
    alpha = np.asarray(alpha, dtype=float)
    eye = np.eye(len(g))
    grad = g_inv @ alpha
    return (
        gamma
        + np.einsum("i,jk->ijk", alpha, eye)
        + np.einsum("j,ik->ijk", alpha, eye)
        - np.einsum("ij,k->ijk", g, grad)
    )


def transform_lee_dual(omega, alpha, p: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Metric dual of the rescaled Lee form at the base point, one per form of a stack:
    it picks up 2n times the structure image ``p`` of grad u (``g_inv`` the inverse metric)."""
    omega = np.asarray(omega, dtype=float)
    grad = np.asarray(alpha, dtype=float) @ g_inv.T
    return omega + 2.0 * (len(p) // 2) * (grad @ p.T)


@dataclass(frozen=True)
class TorsionParams:
    """Coefficients selecting a member of the natural-torsion family."""

    lambda_p: float = 0.0
    mu_p: float = 0.0


def canonical_params(n: int) -> TorsionParams:
    """Parameters of the canonical natural connection in dimension 2n."""
    return TorsionParams(lambda_p=0.0, mu_p=-1.0 / (4 * n))


def torsion_family(inst: RpmInstance, theta, params: TorsionParams) -> np.ndarray:
    """Lowered torsion of the natural-connection family member for ``params``.

    On the conformally flat product class every natural connection's torsion
    lies in this family; both parameters zero give the distinguished D.  The
    class is not checked here.
    """
    theta = np.asarray(theta, dtype=float)
    g, p, n = inst.g, inst.p, inst.n
    theta_p = theta @ p
    g_p = g @ p

    base = (np.einsum("jk,i->ijk", g, theta_p) - np.einsum("ik,j->ijk", g, theta_p)) / (2.0 * n)
    lam_block = (
        np.einsum("jk,i->ijk", g, theta)
        - np.einsum("ik,j->ijk", g, theta)
        + np.einsum("jk,i->ijk", g_p, theta_p)
        - np.einsum("ik,j->ijk", g_p, theta_p)
    )
    mu_block = (
        np.einsum("jk,i->ijk", g_p, theta)
        - np.einsum("ik,j->ijk", g_p, theta)
        + np.einsum("jk,i->ijk", g, theta_p)
        - np.einsum("ik,j->ijk", g, theta_p)
    )
    return base + params.lambda_p * lam_block + params.mu_p * mu_block


def torsion_of_D(inst: RpmInstance, theta) -> np.ndarray:
    """Lowered torsion of the distinguished natural connection."""
    theta = np.asarray(theta, dtype=float)
    theta_p = theta @ inst.p
    return (
        np.einsum("jk,i->ijk", inst.g, theta_p) - np.einsum("ik,j->ijk", inst.g, theta_p)
    ) / (2.0 * inst.n)


def potential_from_torsion(t3: np.ndarray) -> np.ndarray:
    """Metric-compatible transformation potential of a prescribed torsion.

    The half coefficient is forced: lowering the distinguished torsion and
    antisymmetrizing with 1/2 reproduces its closed-form potential exactly.
    """
    return 0.5 * (t3 - np.einsum("jki->ijk", t3) + np.einsum("kij->ijk", t3))


def connection_from_torsion(inst: RpmInstance, t: np.ndarray) -> NaturalConnection:
    """The metric connection whose lowered torsion is ``t``."""
    q3 = potential_from_torsion(t)
    q_up = np.einsum("ijl,lk->ijk", q3, inst.g_inv)
    return NaturalConnection(gamma=levi_civita_coeffs(inst) + q_up, Q=q3, T=t)
