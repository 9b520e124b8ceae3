"""The natural connection with torsion built from the metric and Lee form.

On a manifold of the conformally flat product class, every natural
connection's torsion lies in a two-parameter family of g-and-Lee-form
expressions.  The distinguished member used throughout (both parameters
zero) has a metric potential recoverable from its torsion by the classic
half-coefficient antisymmetrization; its curvature differs from the
Levi-Civita curvature by a curvature-type extension of a single 2-tensor
built from the derivative of the Lee form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import levicivita
from .errors import NotW1Warning
from .levicivita import (
    ConnectionCoeffs,
    cov_deriv_components,
    curvature_components,
    pi1_tensor,
    psi1_operator,
)
from .structure import RpmInstance, structure_pullback
from .tensors import CO, CONTRA, DEFAULT_EPS, DenseTensor, MetricTensor, compose, max_abs


@dataclass(frozen=True)
class TorsionParams:
    """Coefficients selecting a member of the natural-torsion family."""

    lambda_p: float = 0.0
    mu_p: float = 0.0


def canonical_params(n: int) -> TorsionParams:
    """Parameters of the canonical natural connection in dimension 2n."""
    return TorsionParams(lambda_p=0.0, mu_p=-1.0 / (4 * n))


@dataclass(frozen=True)
class NaturalConnection:
    """Connection coefficients plus the lowered potential and torsion tensors."""

    coeffs: ConnectionCoeffs
    Q: DenseTensor
    T: DenseTensor


@dataclass(frozen=True)
class STensor:
    """The 2-tensor mediating between the two curvature tensors."""

    S: DenseTensor
    trace_S: float


def _checked_lee_form(inst: RpmInstance, nabla: ConnectionCoeffs, eps: float) -> np.ndarray:
    """Lee form of ``nabla``; warns when the instance is outside the class."""
    f = levicivita.structure_tensor_F(inst, nabla)
    theta = levicivita.lee_form(inst, f).theta_components
    flags = levicivita.class_flags(inst, f, theta, eps)
    if not flags.is_w1:
        warnings.warn(
            f"instance is outside the conformally flat product class "
            f"(residual {flags.conformal_class_residual:.3e})",
            NotW1Warning,
        )
    return theta


def torsion_family(
    inst: RpmInstance, theta, params: TorsionParams, eps: float = DEFAULT_EPS
) -> DenseTensor:
    """Lowered torsion of the natural-connection family member for ``params``."""
    _checked_lee_form(inst, levicivita.levi_civita_coeffs(inst), eps)
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
    out = base + params.lambda_p * lam_block + params.mu_p * mu_block
    return DenseTensor(inst.dim, (CO, CO, CO), out)


def torsion_of_D(inst: RpmInstance, theta) -> DenseTensor:
    """Lowered torsion of the distinguished natural connection."""
    theta = np.asarray(theta, dtype=float)
    theta_p = theta @ inst.p
    out = (
        np.einsum("jk,i->ijk", inst.g, theta_p) - np.einsum("ik,j->ijk", inst.g, theta_p)
    ) / (2.0 * inst.n)
    return DenseTensor(inst.dim, (CO, CO, CO), out)


def potential_from_torsion(t3: np.ndarray) -> np.ndarray:
    """Metric-compatible transformation potential of a prescribed torsion.

    The half coefficient is forced: lowering the distinguished torsion and
    antisymmetrizing with 1/2 reproduces its closed-form potential exactly.
    """
    return 0.5 * (t3 - np.einsum("jki->ijk", t3) + np.einsum("kij->ijk", t3))


def connection_from_torsion(inst: RpmInstance, t: DenseTensor) -> NaturalConnection:
    """Build the metric connection whose torsion is ``t``."""
    q3 = potential_from_torsion(t.components)
    q_up = np.einsum("ijl,lk->ijk", q3, inst.g_inv)
    gamma = levicivita.levi_civita_coeffs(inst).gamma + q_up
    return NaturalConnection(
        coeffs=ConnectionCoeffs(gamma, torsion_free=False),
        Q=DenseTensor(inst.dim, (CO, CO, CO), q3),
        T=t,
    )


def direct_potential(inst: RpmInstance, theta) -> DenseTensor:
    """Closed-form potential of the distinguished connection (independent route)."""
    theta = np.asarray(theta, dtype=float)
    theta_p = theta @ inst.p
    out = (
        np.einsum("ij,k->ijk", inst.g, theta_p) - np.einsum("ik,j->ijk", inst.g, theta_p)
    ) / (2.0 * inst.n)
    return DenseTensor(inst.dim, (CO, CO, CO), out)


def connection_D_from(inst: RpmInstance, nabla: ConnectionCoeffs, theta) -> NaturalConnection:
    """Distinguished natural connection from precomputed Levi-Civita data."""
    q3 = direct_potential(inst, theta).components
    q_up = np.einsum("ijl,lk->ijk", q3, inst.g_inv)
    t3 = q3 - np.einsum("jik->ijk", q3)
    return NaturalConnection(
        coeffs=ConnectionCoeffs(nabla.gamma + q_up, torsion_free=False),
        Q=DenseTensor(inst.dim, (CO, CO, CO), q3),
        T=DenseTensor(inst.dim, (CO, CO, CO), t3),
    )


def connection_D(inst: RpmInstance, eps: float = DEFAULT_EPS) -> NaturalConnection:
    nabla = levicivita.levi_civita_coeffs(inst)
    return connection_D_from(inst, nabla, _checked_lee_form(inst, nabla, eps))


def recomputed_torsion(conn: ConnectionCoeffs, inst: RpmInstance) -> np.ndarray:
    """Lowered torsion read back from connection coefficients."""
    t_up = conn.gamma - np.swapaxes(conn.gamma, 0, 1) - inst.c
    return np.einsum("ijm,mk->ijk", t_up, inst.g)


def naturality_defects(d: NaturalConnection, inst: RpmInstance) -> tuple[float, float]:
    """(metric, structure) parallelism defects of a candidate natural connection."""
    dg = cov_deriv_components(d.coeffs.gamma, inst.g, (CO, CO))
    dp = cov_deriv_components(d.coeffs.gamma, inst.p, (CONTRA, CO))
    return max_abs(dg), max_abs(dp)


def curvature_Rprime(d: NaturalConnection, alg, metric: MetricTensor, r13=None) -> DenseTensor:
    """Lowered curvature tensor of the natural connection, from its (1,3) form ``r13`` if given."""
    if r13 is None:
        r13 = curvature_components(d.coeffs.gamma, alg.c)
    return DenseTensor(alg.dim, (CO, CO, CO, CO), r13 @ metric.matrix)


def dtheta_components(d: NaturalConnection, theta) -> np.ndarray:
    """Covariant derivative of a frame-constant 1-form along the connection."""
    return cov_deriv_components(d.coeffs.gamma, np.asarray(theta, dtype=float), (CO,))


def s_tensor(inst: RpmInstance, d: NaturalConnection, theta) -> STensor:
    """Correction 2-tensor of the curvature relation.

    The metric part carries the squared Lee norm over 4n, the coefficient
    forced by contracting the curvature relation against the golden scalar
    curvature of the builtin example.
    """
    theta = np.asarray(theta, dtype=float)
    n = inst.n
    theta_omega = float(theta @ inst.g_inv @ theta)
    s = dtheta_components(d, theta) @ inst.p + (theta_omega / (4.0 * n)) * inst.g
    trace = float(np.einsum("ij,ij->", inst.g_inv, s))
    return STensor(S=DenseTensor(inst.dim, (CO, CO), s), trace_S=trace)


def verify_curvature_relation(
    r: DenseTensor, r_prime: DenseTensor, s: STensor, metric: MetricTensor, n: int
) -> float:
    """Residual of the curvature relation between the two connections."""
    correction = psi1_operator(metric, s.S.components).components / (2.0 * n)
    return max_abs(r.components - r_prime.components + correction)


@dataclass(frozen=True)
class RicciRelation:
    ricci_residual: float
    scalar_residual: float


def ricci_scalar_relation(
    rho: DenseTensor,
    rho_prime: DenseTensor,
    tau: float,
    tau_prime: float,
    s: STensor,
    metric: MetricTensor,
    n: int,
) -> RicciRelation:
    """Residuals of the contracted curvature relation."""
    ricci_corr = (metric.matrix * s.trace_S + 2.0 * (n - 1) * s.S.components) / (2.0 * n)
    ricci_residual = max_abs(rho.components - rho_prime.components + ricci_corr)
    scalar_residual = abs(tau - tau_prime + (2.0 * n - 1.0) / n * s.trace_S)
    return RicciRelation(ricci_residual=ricci_residual, scalar_residual=scalar_residual)


def bianchi_defect(components: np.ndarray) -> float:
    """First-Bianchi defect: cyclic sum over the first three slots."""
    return max_abs(
        components
        + np.einsum("jkil->ijkl", components)
        + np.einsum("kijl->ijkl", components)
    )


@dataclass(frozen=True)
class PTensorReport:
    """Defects of the four curvature-type axioms for a rank-4 tensor."""

    skew12: float
    skew34: float
    bianchi: float
    p_invariance: float
    verdict: bool


def is_riemannian_P_tensor(l: DenseTensor, p, eps: float = DEFAULT_EPS) -> PTensorReport:
    comp = l.components
    p = np.asarray(p, dtype=float)
    skew12 = max_abs(comp + np.einsum("jikl->ijkl", comp))
    skew34 = max_abs(comp + np.einsum("ijlk->ijkl", comp))
    bianchi = bianchi_defect(comp)
    p_inv = max_abs(np.einsum("ijab,ak,bl->ijkl", comp, p, p) - comp)
    return PTensorReport(
        skew12=skew12,
        skew34=skew34,
        bianchi=bianchi,
        p_invariance=p_inv,
        verdict=max(skew12, skew34, bianchi, p_inv) <= eps,
    )


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
    nabla: ConnectionCoeffs,
    d: NaturalConnection,
    theta,
    r_prime: DenseTensor,
    eps: float = DEFAULT_EPS,
) -> PCurvatureCriterion:
    """``nabla`` is the Levi-Civita connection that ``d``, ``theta`` and the
    curvature ``r_prime`` of ``d`` were built from."""
    theta = np.asarray(theta, dtype=float)
    dtheta_p = dtheta_components(d, theta) @ inst.p
    sym_defect = max_abs(dtheta_p - dtheta_p.T)
    bianchi = bianchi_defect(r_prime.components)

    grad_theta_p = cov_deriv_components(nabla.gamma, theta, (CO,)) @ inst.p
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
    """Parallel-torsion verdict with the three equivalent defect measures."""

    dt_defect: float
    dtheta_defect: float
    gradient_identity_defect: float
    verdict: bool


def has_parallel_torsion(
    inst: RpmInstance,
    nabla: ConnectionCoeffs,
    d: NaturalConnection,
    theta,
    eps: float = DEFAULT_EPS,
) -> ParallelTorsionReport:
    """``nabla`` is the Levi-Civita connection that ``d`` and ``theta`` were built from."""
    theta = np.asarray(theta, dtype=float)
    t_up = np.einsum("ijl,lk->ijk", d.T.components, inst.g_inv)
    dt = cov_deriv_components(d.coeffs.gamma, t_up, (CO, CO, CONTRA))
    dtheta = dtheta_components(d, theta)

    grad_theta = cov_deriv_components(nabla.gamma, theta, (CO,))
    omega = inst.g_inv @ theta
    theta_p_omega = float(theta @ inst.p @ omega)
    theta_p = theta @ inst.p
    expected = (inst.g * theta_p_omega - np.einsum("j,i->ij", theta_p, theta)) / (2.0 * inst.n)

    return ParallelTorsionReport(
        dt_defect=max_abs(dt),
        dtheta_defect=max_abs(dtheta),
        gradient_identity_defect=max_abs(grad_theta - expected),
        verdict=max_abs(dt) <= eps,
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
    rprime_max: float
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
    r: DenseTensor,
    ricci: levicivita.RicciScalar,
    r_prime: DenseTensor,
    w: DenseTensor,
    theta,
    parallel: ParallelTorsionReport,
    eps: float = DEFAULT_EPS,
) -> FlatReport:
    """``r``, ``ricci`` and the Weyl tensor ``w`` belong to the Levi-Civita
    connection, ``r_prime`` and ``parallel`` to ``d``."""
    theta = np.asarray(theta, dtype=float)
    n = inst.n
    metric = inst.metric
    theta_omega = float(theta @ inst.g_inv @ theta)
    pi1 = pi1_tensor(metric).components

    rprime_max = max_abs(r_prime.components)
    is_flat = rprime_max <= eps
    tau = ricci.tau

    weyl_max = max_abs(w.components) if is_flat else None

    space_form = ricci_res = scalar_res = dr_defect = None
    tau_negative = None
    if is_flat and parallel.verdict:
        space_form = max_abs(r.components + (theta_omega / (4.0 * n * n)) * pi1)
        ricci_res = max_abs(
            ricci.rho.components + (2.0 * n - 1.0) / (4.0 * n * n) * theta_omega * metric.matrix
        )
        scalar_res = abs(tau + (2.0 * n - 1.0) / (2.0 * n) * theta_omega)
        # one direction at a time: the full derivative would hold dim^5 numbers
        dr_defect = max(
            max_abs(cov_deriv_components(slab, r.components, (CO, CO, CO, CO)))
            for slab in np.split(d.coeffs.gamma, inst.dim)
        )
        tau_negative = tau < 0.0 if theta_omega > eps else None

    parallel_relation = None
    if parallel.verdict:
        parallel_relation = max_abs(
            r.components - r_prime.components + (theta_omega / (4.0 * n * n)) * pi1
        )

    return FlatReport(
        is_flat=is_flat,
        rprime_max=rprime_max,
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


@dataclass(frozen=True)
class TorsionIdentityDefects:
    """Structural identities satisfied by the distinguished torsion."""

    cyclic: float
    structure_cyclic: float
    nested_cyclic: float
    potential_transpose: float
    lee_orthogonality: float


def torsion_identity_defects(
    inst: RpmInstance, d: NaturalConnection, theta
) -> TorsionIdentityDefects:
    theta = np.asarray(theta, dtype=float)
    t3 = d.T.components
    q3 = d.Q.components
    p = inst.p

    cyclic = max_abs(t3 + np.einsum("jki->ijk", t3) + np.einsum("kij->ijk", t3))
    t_pp = structure_pullback(p, t3)
    structure_cyclic = max_abs(
        t_pp + np.einsum("jki->ijk", t_pp) + np.einsum("kij->ijk", t_pp)
    )

    t_up = np.einsum("ijl,lk->ijk", t3, inst.g_inv)
    nested = compose(t_up, t_up)
    nested_cyclic = max_abs(
        nested + np.einsum("jkil->ijkl", nested) + np.einsum("kijl->ijkl", nested)
    )

    potential_transpose = max_abs(q3 - np.einsum("kji->ijk", t3))
    lee_orthogonality = max_abs(np.einsum("m,ml,ijl->ij", theta, p, t_up))

    return TorsionIdentityDefects(
        cyclic=cyclic,
        structure_cyclic=structure_cyclic,
        nested_cyclic=nested_cyclic,
        potential_transpose=potential_transpose,
        lee_orthogonality=lee_orthogonality,
    )
