"""The natural connection D, with torsion built from the metric and the Lee form.

D is the Levi-Civita connection plus a closed-form potential linear in the
Lee form composed with the structure; on the conformally flat product class
it preserves both the metric and the structure (Dg = DP = 0).  Its
curvature differs from the Levi-Civita curvature by a curvature-type
extension of a single 2-tensor built from the derivative of the Lee form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levicivita import LeeForm, RicciScalar, cov_deriv_components, curvature_components, psi1_defect
from .liealg import jacobi_defect
from .structure import RpmInstance, structure_pullback
from .tensors import CO, CONTRA, blocks, max_abs, nan_max


@dataclass(frozen=True)
class NaturalConnection:
    """Connection coefficients plus the lowered potential and torsion tensors."""

    gamma: np.ndarray
    Q: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class STensor:
    """The 2-tensor mediating between the two curvature tensors."""

    S: np.ndarray
    trace_S: float


def direct_potential(inst: RpmInstance, theta) -> np.ndarray:
    """Closed-form potential of the distinguished connection, or of a stack of Lee forms."""
    theta = np.asarray(theta, dtype=float)
    theta_p = theta @ inst.p
    return (
        np.einsum("ij,...k->...ijk", inst.g, theta_p) - np.einsum("ik,...j->...ijk", inst.g, theta_p)
    ) / (2.0 * inst.n)


def connection_D_from(inst: RpmInstance, nabla: np.ndarray, theta) -> NaturalConnection:
    """Distinguished natural connection from the Levi-Civita coefficients ``nabla``, or a stack of them."""
    q3 = direct_potential(inst, theta)
    t3 = q3 - np.einsum("...jik->...ijk", q3)
    return NaturalConnection(gamma=nabla + q3 @ inst.g_inv, Q=q3, T=t3)


def recomputed_torsion(gamma: np.ndarray, inst: RpmInstance) -> np.ndarray:
    """Lowered torsion read back from connection coefficients."""
    return (gamma - np.swapaxes(gamma, 0, 1) - inst.c) @ inst.g


def naturality_defects(d: NaturalConnection, inst: RpmInstance) -> dict[str, float]:
    """The metric and structure parallelism defects of a candidate natural connection."""
    dg = cov_deriv_components(d.gamma, inst.g, (CO, CO))
    dp = cov_deriv_components(d.gamma, inst.p, (CONTRA, CO))
    return {
        "natural_connection_preserves_metric": max_abs(dg),
        "natural_connection_preserves_structure": max_abs(dp),
    }


def curvature_Rprime(d: NaturalConnection, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Lowered curvature tensor of the natural connection."""
    return curvature_components(d.gamma, c, g)


def s_tensor(inst: RpmInstance, dtheta: np.ndarray, theta_norm_sq: float) -> STensor:
    """Correction 2-tensor of the curvature relation, from the derivative
    ``dtheta`` of the Lee form along D and its squared norm.

    The metric part carries the squared Lee norm over 4n, the coefficient
    forced by contracting the curvature relation against the golden scalar
    curvature of the builtin example.
    """
    s = dtheta @ inst.p + (theta_norm_sq / (4.0 * inst.n)) * inst.g
    trace = float(np.einsum("ij,ij->", inst.g_inv, s))
    return STensor(S=s, trace_S=trace)


def verify_curvature_relation(
    r: np.ndarray, r_prime: np.ndarray, s: STensor, g: np.ndarray
) -> float:
    """Residual of the curvature relation R - R' + psi1(S / 2n) between the two connections, 2n = len(g)."""
    return psi1_defect(r, r_prime, s.S / len(g), g)


def ricci_scalar_relation(
    rho: np.ndarray,
    rho_prime: np.ndarray,
    tau: float,
    tau_prime: float,
    s: STensor,
    g: np.ndarray,
) -> dict[str, float]:
    """Residuals of the contracted curvature relation, in dimension 2n = len(g)."""
    n = len(g) // 2
    ricci_corr = (g * s.trace_S + 2.0 * (n - 1) * s.S) / (2.0 * n)
    return {
        "ricci_relation": max_abs(rho - rho_prime + ricci_corr),
        "scalar_relation": abs(tau - tau_prime + (2.0 * n - 1.0) / n * s.trace_S),
    }


def bianchi_defect(components: np.ndarray) -> float:
    """First-Bianchi defect: the cyclic sum over the first three slots, by first-slot blocks."""
    x, y, z = components, np.einsum("jkil->ijkl", components), np.einsum("kijl->ijkl", components)
    maxima = []
    for b in blocks(len(x)):
        cyc = x[b] + y[b]
        cyc += z[b]  # in place, the absolute value too
        maxima.append(np.abs(cyc, out=cyc).max())
    return nan_max(maxima)


def p_curvature_criterion(
    inst: RpmInstance, grad_theta: np.ndarray, dtheta: np.ndarray, r_prime: np.ndarray
) -> dict[str, float]:
    """Defects of the criterion that the curvature of D is curvature-type: ``grad_theta`` and
    ``dtheta`` are the derivatives of the Lee form along the Levi-Civita connection and along
    D, ``r_prime`` the curvature of D.

    The criterion is an equivalence: ``dtheta_symmetry`` and ``bianchi_rprime`` vanish
    together or not at all, and ``closedness`` restates the symmetry through the
    torsion-free connection, so it vanishes with it.

    R' is a Riemannian P-tensor when it satisfies four axioms, and only the
    first Bianchi identity is checked here.  The other three follow from checks
    every report already makes: R' is skew in its first pair because it is the
    curvature of a connection; Dg = 0 (``natural_connection_preserves_metric``)
    makes it skew in its second pair; and DP = 0
    (``natural_connection_preserves_structure``) with g(P., P.) = g gives
    R'(x, y, Pz, Pw) = R'(x, y, z, w).
    """

    def p_skew(m):  # max |m P - (m P)^T|
        mp = m @ inst.p
        return max_abs(mp - mp.T)

    return {
        "dtheta_symmetry": p_skew(dtheta),
        "bianchi_rprime": bianchi_defect(r_prime),
        "closedness": p_skew(grad_theta),
    }


def parallel_torsion_defects(
    inst: RpmInstance,
    d: NaturalConnection,
    t_sharp: np.ndarray,
    lee: LeeForm,
    grad_theta: np.ndarray,
    dtheta: np.ndarray,
) -> dict[str, float]:
    """The three equivalent measures of parallel torsion, which vanish together or not at
    all: ``t_sharp`` is the torsion of ``d`` with its last slot raised, ``lee`` the Lee
    form, ``grad_theta`` and ``dtheta`` its derivatives along the Levi-Civita connection
    and along ``d``."""
    # one block of directions at a time, as flat_D_report takes the curvature derivative
    dt = nan_max(max_abs(cov_deriv_components(d.gamma[b], t_sharp, (CO, CO, CONTRA))) for b in blocks(inst.dim))
    theta = lee.theta
    theta_p_omega = float(theta @ inst.p @ lee.omega)
    theta_p = theta @ inst.p
    expected = (inst.g * theta_p_omega - np.einsum("j,i->ij", theta_p, theta)) / (2.0 * inst.n)
    return {"dt": dt, "dtheta": max_abs(dtheta), "gradient_identity": max_abs(grad_theta - expected)}


def flat_D_report(
    inst: RpmInstance,
    d: NaturalConnection,
    r: np.ndarray,
    ricci: RicciScalar,
    r_prime: np.ndarray,
    w: np.ndarray,
    theta_norm_sq: float,
    flat: bool,
    parallel: bool,
) -> dict[str, float]:
    """Residuals of the consequences of a flat natural connection, ``{name: residual}`` for
    the branches that apply: ``r``, ``ricci`` and the Weyl tensor ``w`` belong to the
    Levi-Civita connection, ``r_prime`` to ``d``, ``theta_norm_sq`` is the squared norm of
    the Lee form, and ``flat`` and ``parallel`` say whether ``d`` is flat and has parallel
    torsion.

    The space-form residuals and the parallel-curvature defect apply only when
    ``d`` is flat with parallel torsion; the parallel-torsion curvature identity
    applies whenever the torsion is parallel, flat or not.
    """
    n = inst.n
    residuals = {"weyl_max": max_abs(w)} if flat else {}
    space_form_extension = (theta_norm_sq / (8.0 * n * n)) * inst.g  # psi1 of it is R' - R when the torsion is parallel
    if flat and parallel:
        residuals["space_form_residual"] = psi1_defect(r, None, space_form_extension, inst.g)
        residuals["ricci_residual"] = max_abs(ricci.rho + (2.0 * n - 1.0) / (4.0 * n * n) * theta_norm_sq * inst.g)
        residuals["scalar_residual"] = abs(ricci.tau + (2.0 * n - 1.0) / (2.0 * n) * theta_norm_sq)
        # one block of directions at a time: the full derivative would hold dim^5 numbers
        residuals["parallel_curvature_defect"] = nan_max(
            max_abs(cov_deriv_components(d.gamma[b], r, (CO, CO, CO, CO))) for b in blocks(inst.dim, 5)
        )
    if parallel:
        residuals["parallel_relation_residual"] = psi1_defect(r, r_prime, space_form_extension, inst.g)
    return residuals


def torsion_identity_defects(
    inst: RpmInstance, d: NaturalConnection, theta: np.ndarray, t_sharp: np.ndarray
) -> dict[str, float]:
    """Defects of the structural identities of the distinguished torsion;
    ``t_sharp`` is the torsion of ``d`` with its last slot raised."""
    t3 = d.T
    t_pp = structure_pullback(inst.p, t3)
    return {
        "torsion_cyclic_sum": max_abs(t3 + np.einsum("jki->ijk", t3) + np.einsum("kij->ijk", t3)),
        "torsion_structure_cyclic_sum": max_abs(
            t_pp + np.einsum("jki->ijk", t_pp) + np.einsum("kij->ijk", t_pp)
        ),
        # the cyclic sum of T#(T#(x, y), z) has the Jacobi form
        "torsion_nested_cyclic_sum": jacobi_defect(t_sharp),
        "potential_is_transposed_torsion": max_abs(d.Q - np.einsum("kji->ijk", t3)),
        "torsion_lee_orthogonality": max_abs(t_sharp @ (theta @ inst.p)),
    }
