"""The builtin four-parameter Lie-group instance and its golden tables.

The family lives on a 4-dimensional Lie group with an orthonormal frame,
the block-swap product structure, and brackets linear in four reals.  All
component tables are stored as polynomial evaluators in the parameters,
so any parameter choice is a test point; completions by curvature/Ricci/
torsion symmetries are generated programmatically, never hand-copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import levicivita
from .liealg import LieFrameAlgebra
from .pipeline import InstanceAnalysis
from .structure import ProductStructure, RpmInstance
from .tensors import MetricTensor, max_abs

DIM = 4

# block swap of the two 2-dimensional factors: X1 <-> X3, X2 <-> X4
P_MATRIX = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class ExampleParams:
    lam: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        if len(self.lam) != 4:
            raise ValueError(f"expected 4 parameters, got {len(self.lam)}")

    @property
    def degenerate(self) -> bool:
        """All-zero parameters: the structure-parallel (flat-family) case."""
        return all(v == 0.0 for v in self.lam)


def build_example(params: ExampleParams) -> RpmInstance:
    """Instance with orthonormal metric, block-swap structure, and the family brackets."""
    l1, l2, l3, l4 = params.lam
    v12 = np.array([l1, l2, l3, l4])
    v13 = np.array([l4, -l3, l2, -l1])
    alg = LieFrameAlgebra.from_brackets(
        DIM,
        {
            (0, 1): v12,
            (2, 3): -v12,
            (0, 2): v13,
            (1, 3): v13,
        },
    )
    return RpmInstance(
        alg=alg,
        metric=MetricTensor.from_matrix(np.eye(DIM)),
        structure=ProductStructure(P_MATRIX),
    )


@dataclass(frozen=True)
class GoldenTables:
    """Expected component tables as functions of the four parameters."""

    theta: np.ndarray
    nabla: np.ndarray
    R: np.ndarray
    rho: np.ndarray
    tau: float
    k_inv: dict[tuple[int, int], float]
    k_anti: dict[tuple[int, int], float]
    D: np.ndarray
    T_D: np.ndarray


def _insert_curvature_orbit(r: np.ndarray, i, j, k, s, value) -> None:
    """Write one value and its full symmetry orbit (pair swap, two skews)."""
    for (a, b, c, d), sign in (
        ((i, j, k, s), 1.0),
        ((j, i, k, s), -1.0),
        ((i, j, s, k), -1.0),
        ((j, i, s, k), 1.0),
        ((k, s, i, j), 1.0),
        ((s, k, i, j), -1.0),
        ((k, s, j, i), -1.0),
        ((s, k, j, i), 1.0),
    ):
        current = r[a, b, c, d]
        if not np.isnan(current) and current != sign * value:
            raise AssertionError("inconsistent curvature table entry")
        r[a, b, c, d] = sign * value


def golden_tables(params: ExampleParams) -> GoldenTables:
    l1, l2, l3, l4 = params.lam

    theta = np.array([4 * l4, -4 * l3, -4 * l2, 4 * l1])

    nabla = np.zeros((DIM, DIM, DIM))
    nabla[0, 0] = nabla[3, 3] = [0, -l1, -l4, 0]
    nabla[1, 1] = nabla[2, 2] = [l2, 0, 0, l3]
    nabla[0, 1] = [l1, 0, l3, 0]
    nabla[2, 3] = [-l1, 0, -l3, 0]
    nabla[1, 0] = [0, -l2, 0, -l4]
    nabla[3, 2] = [0, l2, 0, l4]
    nabla[0, 2] = nabla[1, 3] = [l4, -l3, 0, 0]
    nabla[2, 0] = nabla[3, 1] = [0, 0, -l2, l1]

    r = np.full((DIM,) * 4, np.nan)
    entries = [
        (1, 2, 1, 2, l1 * l1 + l2 * l2),
        (1, 3, 1, 3, l2 * l2 + l4 * l4),
        (1, 4, 1, 4, l1 * l1 + l4 * l4),
        (2, 3, 2, 3, l2 * l2 + l3 * l3),
        (2, 4, 2, 4, l1 * l1 + l3 * l3),
        (3, 4, 3, 4, l3 * l3 + l4 * l4),
        (1, 2, 1, 3, l1 * l4),
        (2, 4, 3, 4, l1 * l4),
        (1, 2, 1, 4, l2 * l4),
        (2, 3, 4, 3, l2 * l4),
        (1, 2, 3, 2, l1 * l3),
        (1, 4, 3, 4, l1 * l3),
        (1, 2, 4, 2, l2 * l3),
        (1, 3, 4, 3, l2 * l3),
        (1, 3, 4, 1, l1 * l2),
        (2, 3, 4, 2, l1 * l2),
        (1, 3, 3, 2, l3 * l4),
        (1, 4, 4, 2, l3 * l4),
    ]
    for i, j, k, s, value in entries:
        _insert_curvature_orbit(r, i - 1, j - 1, k - 1, s - 1, value)
    r = np.nan_to_num(r)

    rho = np.zeros((DIM, DIM))
    rho[0, 0] = -2 * (l1 * l1 + l2 * l2 + l4 * l4)
    rho[1, 1] = -2 * (l1 * l1 + l2 * l2 + l3 * l3)
    rho[2, 2] = -2 * (l2 * l2 + l3 * l3 + l4 * l4)
    rho[3, 3] = -2 * (l1 * l1 + l3 * l3 + l4 * l4)
    rho[0, 1] = 2 * l3 * l4
    rho[0, 2] = -2 * l1 * l3
    rho[0, 3] = -2 * l2 * l3
    rho[2, 3] = 2 * l1 * l2
    rho[1, 2] = -2 * l1 * l4
    rho[1, 3] = -2 * l2 * l4
    rho = rho + np.triu(rho, 1).T

    tau = -6.0 * (l1 * l1 + l2 * l2 + l3 * l3 + l4 * l4)

    k_inv = {
        (1, 3): -(l2 * l2 + l4 * l4),
        (2, 4): -(l1 * l1 + l3 * l3),
    }
    k_anti = {
        (1, 2): -(l1 * l1 + l2 * l2),
        (1, 4): -(l1 * l1 + l4 * l4),
        (2, 3): -(l2 * l2 + l3 * l3),
        (3, 4): -(l3 * l3 + l4 * l4),
    }

    d = np.zeros((DIM, DIM, DIM))
    d[0, 0] = [0, 0, 0, -l3]
    d[0, 1] = [0, 0, l3, 0]
    d[0, 2] = [0, -l3, 0, 0]
    d[0, 3] = [l3, 0, 0, 0]
    d[1, 0] = [0, 0, 0, -l4]
    d[1, 1] = [0, 0, l4, 0]
    d[1, 2] = [0, -l4, 0, 0]
    d[1, 3] = [l4, 0, 0, 0]
    d[2, 1] = [0, 0, -l1, 0]
    d[2, 0] = [0, 0, 0, l1]
    d[2, 3] = [-l1, 0, 0, 0]
    d[2, 2] = [0, l1, 0, 0]
    d[3, 1] = [0, 0, -l2, 0]
    d[3, 0] = [0, 0, 0, l2]
    d[3, 3] = [-l2, 0, 0, 0]
    d[3, 2] = [0, l2, 0, 0]

    t = np.zeros((DIM, DIM, DIM))
    t[0, 1] = [-l1, -l2, 0, 0]
    t[0, 2] = [-l4, 0, -l2, 0]
    t[0, 3] = [l3, 0, 0, -l2]
    t[1, 2] = [0, -l4, l1, 0]
    t[1, 3] = [0, l3, 0, l1]
    t[2, 3] = [0, 0, l3, l4]
    t = t - np.swapaxes(t, 0, 1)

    return GoldenTables(
        theta=theta, nabla=nabla, R=r, rho=rho, tau=tau,
        k_inv=k_inv, k_anti=k_anti, D=d, T_D=t,
    )


@dataclass(frozen=True)
class TableDeviations:
    """Per-table max deviation between the computed pipeline and the tables."""

    nabla: float
    R: float
    rho: float
    tau: float
    theta: float
    k_inv: float
    k_anti: float
    D: float
    T_D: float

    def as_dict(self) -> dict[str, float]:
        return {
            "nabla": self.nabla, "R": self.R, "rho": self.rho, "tau": self.tau,
            "theta": self.theta, "k_inv": self.k_inv, "k_anti": self.k_anti,
            "D": self.D, "T_D": self.T_D,
        }

    @property
    def max(self) -> float:
        return max(self.as_dict().values())


@dataclass(frozen=True)
class ExampleReport:
    """Golden-table deviations plus the theorem checklist for one parameter point."""

    deviations: TableDeviations
    tau: float
    tau_negative_ok: bool
    weyl_max: float
    rprime_max: float
    torsion_parallel_ok: bool
    curvature_relation_residual: float
    ricci_relation_residual: float
    scalar_relation_residual: float
    weyl_invariance_residual: float
    p_criterion_ok: bool
    degenerate: bool

    def passed(self, eps: float) -> bool:
        return (
            self.deviations.max <= eps
            and self.tau_negative_ok
            and self.weyl_max <= eps
            and self.rprime_max <= eps
            and self.torsion_parallel_ok
            and self.curvature_relation_residual <= eps
            and self.ricci_relation_residual <= eps
            and self.scalar_relation_residual <= eps
            and self.weyl_invariance_residual <= eps
            and self.p_criterion_ok
        )


def verify_against_tables(params: ExampleParams, a: InstanceAnalysis) -> ExampleReport:
    """Compare the analysis ``a`` of the builtin instance for ``params`` with the tables."""
    tables = golden_tables(params)
    k_inv_dev = max(abs(a.sectional[i - 1, j - 1] - v) for (i, j), v in tables.k_inv.items())
    k_anti_dev = max(abs(a.sectional[i - 1, j - 1] - v) for (i, j), v in tables.k_anti.items())
    t_up = np.einsum("ijl,lk->ijk", a.D.T.components, a.inst.g_inv)

    deviations = TableDeviations(
        nabla=max_abs(a.nabla.gamma - tables.nabla),
        R=max_abs(a.R.components - tables.R),
        rho=max_abs(a.ricci.rho.components - tables.rho),
        tau=abs(a.ricci.tau - tables.tau),
        theta=max_abs(a.lee.theta_components - tables.theta),
        k_inv=k_inv_dev,
        k_anti=k_anti_dev,
        D=max_abs(a.D.coeffs.gamma - tables.D),
        T_D=max_abs(t_up - tables.T_D),
    )

    degenerate = params.degenerate
    return ExampleReport(
        deviations=deviations,
        tau=a.ricci.tau,
        tau_negative_ok=True if degenerate else a.ricci.tau < 0.0,
        weyl_max=max_abs(a.W.components),
        rprime_max=max_abs(a.Rprime.components),
        torsion_parallel_ok=(a.parallel.verdict == degenerate),
        curvature_relation_residual=a.curvature_relation_residual,
        ricci_relation_residual=a.ricci_relation.ricci_residual,
        scalar_relation_residual=a.ricci_relation.scalar_residual,
        weyl_invariance_residual=a.weyl_invariance_residual,
        p_criterion_ok=a.p_criterion.equivalence_holds and a.p_criterion.closedness_agrees,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class ConstantCurvatureFlags:
    """Equal-basis-curvature verdicts, each computed two independent ways.

    ``const_invariant`` says the two P-invariant basis planes (X1X3, X2X4)
    have equal sectional curvature, ``const_anti_invariant`` the same for the
    four anti-invariant basis planes, and ``const_sectional`` that all six
    basis-plane sectional curvatures are equal.  None of them says the
    sectional curvature is constant on every plane.  Each verdict comes from
    the closed-form parameter conditions; the ``*_agrees`` fields record that
    equality of the computed sectional curvatures gives the same answer.
    ``space_form_residual`` is the pointwise test of R = (tau/12) pi1, the
    largest component of the difference, reported only when the six basis
    curvatures agree.  It is zero only at lambda = 0: the curvature keeps
    cross terms such as R_1213 = lambda1*lambda4 where pi1 vanishes.
    """

    const_invariant: bool
    const_anti_invariant: bool
    const_sectional: bool
    invariant_agrees: bool
    anti_invariant_agrees: bool
    sectional_agrees: bool
    space_form_residual: float | None


def constant_curvature_flags(params: ExampleParams, a: InstanceAnalysis) -> ConstantCurvatureFlags:
    """Flags for ``params``, checked against the analysis ``a`` of its instance."""
    eps = a.eps
    l1, l2, l3, l4 = params.lam
    sq = [l1 * l1, l2 * l2, l3 * l3, l4 * l4]

    alg_inv = abs(sq[0] - sq[1] + sq[2] - sq[3]) <= eps
    alg_anti = abs(sq[0] - sq[2]) <= eps and abs(sq[1] - sq[3]) <= eps
    alg_const = max(sq) - min(sq) <= eps

    k = a.sectional
    inv_values = [k[0, 2], k[1, 3]]
    anti_values = [k[0, 1], k[0, 3], k[1, 2], k[2, 3]]
    computed_inv = abs(inv_values[0] - inv_values[1]) <= eps
    computed_anti = max(anti_values) - min(anti_values) <= eps
    all_values = inv_values + anti_values
    computed_const = max(all_values) - min(all_values) <= eps

    space_form = None
    if computed_const:
        pi1 = levicivita.pi1_tensor(a.inst.metric).components
        space_form = max_abs(a.R.components - (a.ricci.tau / 12.0) * pi1)

    return ConstantCurvatureFlags(
        const_invariant=alg_inv,
        const_anti_invariant=alg_anti,
        const_sectional=alg_const,
        invariant_agrees=alg_inv == computed_inv,
        anti_invariant_agrees=alg_anti == computed_anti,
        sectional_agrees=alg_const == computed_const,
        space_form_residual=space_form,
    )
