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
from .tensors import CO, CONTRA, DEFAULT_EPS, blocks, max_abs, nan_max


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


@dataclass(frozen=True)
class PCurvatureCriterion:
    """Two-sided check that the natural curvature is a curvature-type tensor.

    The defect pair must agree: either both vanish or both do not.  The
    closedness defect restates the same criterion through the torsion-free
    connection and must reach the same verdict.
    """

    dtheta_symmetry_defect: float
    bianchi_defect_rprime: float
    closedness_defect: float
    equivalence_holds: bool
    closedness_agrees: bool


def p_curvature_criterion(
    inst: RpmInstance,
    grad_theta: np.ndarray,
    dtheta: np.ndarray,
    r_prime: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> PCurvatureCriterion:
    """``grad_theta`` and ``dtheta`` are the derivatives of the Lee form along
    the Levi-Civita connection and along D, ``r_prime`` the curvature of D.

    R' is a Riemannian P-tensor when it satisfies four axioms, and only the
    first Bianchi identity is checked here.  The other three follow from checks
    every report already makes: R' is skew in its first pair because it is the
    curvature of a connection; Dg = 0 (``natural_connection_preserves_metric``)
    makes it skew in its second pair; and DP = 0
    (``natural_connection_preserves_structure``) with g(P., P.) = g gives
    R'(x, y, Pz, Pw) = R'(x, y, z, w).
    """
    dtheta_p = dtheta @ inst.p
    sym_defect = max_abs(dtheta_p - dtheta_p.T)
    bianchi = bianchi_defect(r_prime)

    grad_theta_p = grad_theta @ inst.p
    closedness = max_abs(grad_theta_p - grad_theta_p.T)

    return PCurvatureCriterion(
        dtheta_symmetry_defect=sym_defect,
        bianchi_defect_rprime=bianchi,
        closedness_defect=closedness,
        equivalence_holds=(sym_defect <= eps) == (bianchi <= eps),
        closedness_agrees=(closedness <= eps) == (sym_defect <= eps),
    )


@dataclass(frozen=True)
class ParallelTorsionReport:
    """Parallel-torsion verdict with the three equivalent defect measures.

    ``equivalence_holds`` says the three measures agree: all vanish or none does.
    """

    dt_defect: float
    dtheta_defect: float
    gradient_identity_defect: float
    verdict: bool
    equivalence_holds: bool


def has_parallel_torsion(
    inst: RpmInstance,
    d: NaturalConnection,
    t_sharp: np.ndarray,
    lee: LeeForm,
    grad_theta: np.ndarray,
    dtheta: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> ParallelTorsionReport:
    """``t_sharp`` is the torsion of ``d`` with its last slot raised, ``lee``
    the Lee form, ``grad_theta`` and ``dtheta`` its derivatives along the
    Levi-Civita connection and along ``d``."""
    # one block of directions at a time, as flat_D_report takes the curvature derivative
    dt_defect = nan_max(max_abs(cov_deriv_components(d.gamma[b], t_sharp, (CO, CO, CONTRA))) for b in blocks(inst.dim))
    theta = lee.theta
    theta_p_omega = float(theta @ inst.p @ lee.omega)
    theta_p = theta @ inst.p
    expected = (inst.g * theta_p_omega - np.einsum("j,i->ij", theta_p, theta)) / (2.0 * inst.n)
    dtheta_defect = max_abs(dtheta)
    gradient_defect = max_abs(grad_theta - expected)

    return ParallelTorsionReport(
        dt_defect=dt_defect,
        dtheta_defect=dtheta_defect,
        gradient_identity_defect=gradient_defect,
        verdict=dt_defect <= eps,
        equivalence_holds=(dt_defect <= eps) == (dtheta_defect <= eps) == (gradient_defect <= eps),
    )


@dataclass(frozen=True)
class FlatReport:
    """Consequences of a flat natural connection, checked conditionally.

    The space-form residuals and the parallel-curvature defect only apply
    when the connection is both flat and has parallel torsion; otherwise
    they are None.  The parallel-torsion curvature identity applies
    whenever the torsion is parallel, flat or not.
    """

    is_flat: bool
    weyl_max: float | None
    torsion_parallel: bool
    space_form_residual: float | None
    ricci_residual: float | None
    scalar_residual: float | None
    parallel_curvature_defect: float | None
    tau: float
    tau_negative: bool | None
    parallel_relation_residual: float | None


def flat_D_report(
    inst: RpmInstance,
    d: NaturalConnection,
    r: np.ndarray,
    ricci: RicciScalar,
    r_prime: np.ndarray,
    is_flat: bool,
    w: np.ndarray,
    theta_norm_sq: float,
    parallel: ParallelTorsionReport,
    eps: float = DEFAULT_EPS,
) -> FlatReport:
    """``r``, ``ricci`` and the Weyl tensor ``w`` belong to the Levi-Civita
    connection, ``r_prime``, its flatness ``is_flat`` and ``parallel`` to
    ``d``; ``theta_norm_sq`` is the squared norm of the Lee form."""
    n = inst.n
    tau = ricci.tau

    weyl_max = max_abs(w) if is_flat else None

    space_form = ricci_res = scalar_res = dr_defect = None
    tau_negative = None
    space_form_extension = (theta_norm_sq / (8.0 * n * n)) * inst.g  # psi1 of it is R' - R when the torsion is parallel
    if is_flat and parallel.verdict:
        space_form = psi1_defect(r, None, space_form_extension, inst.g)
        ricci_res = max_abs(
            ricci.rho + (2.0 * n - 1.0) / (4.0 * n * n) * theta_norm_sq * inst.g
        )
        scalar_res = abs(tau + (2.0 * n - 1.0) / (2.0 * n) * theta_norm_sq)
        # one block of directions at a time: the full derivative would hold dim^5 numbers
        dr_defect = nan_max(max_abs(cov_deriv_components(d.gamma[b], r, (CO, CO, CO, CO))) for b in blocks(inst.dim, 5))
        tau_negative = tau < 0.0 if theta_norm_sq > eps else None

    parallel_relation = None
    if parallel.verdict:
        parallel_relation = psi1_defect(r, r_prime, space_form_extension, inst.g)

    return FlatReport(
        is_flat=is_flat,
        weyl_max=weyl_max,
        torsion_parallel=parallel.verdict,
        space_form_residual=space_form,
        ricci_residual=ricci_res,
        scalar_residual=scalar_res,
        parallel_curvature_defect=dr_defect,
        tau=tau,
        tau_negative=tau_negative,
        parallel_relation_residual=parallel_relation,
    )


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
