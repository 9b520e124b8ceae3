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

from .levicivita import psi1_defect
from .liealg import LieFrameAlgebra
from .pipeline import InstanceAnalysis
from .structure import RpmInstance
from .tensors import max_abs, nan_max

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
    return RpmInstance(alg, np.eye(DIM), P_MATRIX)


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


def verify_against_tables(params: ExampleParams, a: InstanceAnalysis) -> dict[str, float | bool]:
    """The builtin family's own checks on the analysis ``a`` of its instance for ``params``:
    the deviation of each computed table from its golden one, that tau is negative and the
    torsion not parallel (off the degenerate point), and the largest W and R' entries."""
    tables = golden_tables(params)
    checks = {
        "table_nabla": max_abs(a.nabla - tables.nabla),
        "table_R": max_abs(a.R - tables.R),
        "table_rho": max_abs(a.ricci.rho - tables.rho),
        "table_tau": abs(a.ricci.tau - tables.tau),
        "table_theta": max_abs(a.lee.theta - tables.theta),
        "table_k_inv": nan_max(abs(a.sectional[i - 1, j - 1] - v) for (i, j), v in tables.k_inv.items()),
        "table_k_anti": nan_max(abs(a.sectional[i - 1, j - 1] - v) for (i, j), v in tables.k_anti.items()),
        "table_D": max_abs(a.D.gamma - tables.D),
        "table_T_D": max_abs(a.t_sharp - tables.T_D),
    }
    if not params.degenerate:
        checks["scalar_curvature_negative"] = a.ricci.tau < 0.0
        checks["torsion_not_parallel"] = not a.flags["torsion_parallel"]
    checks["weyl_zero"] = max_abs(a.W)
    checks["natural_curvature_zero"] = max_abs(a.Rprime)
    return checks


# Each equal-basis-curvature flag: its closed-form condition as a defect of the squared parameters,
# and the 0-based basis planes whose sectional curvatures it says are equal.
_CONSTANT_CURVATURE = {
    "invariant": (lambda sq: abs(sq[0] - sq[1] + sq[2] - sq[3]), ((0, 2), (1, 3))),
    "anti_invariant": (
        lambda sq: nan_max((abs(sq[0] - sq[2]), abs(sq[1] - sq[3]))),
        ((0, 1), (0, 3), (1, 2), (2, 3)),
    ),
    "sectional": (lambda sq: max(sq) - min(sq), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}


def constant_curvature_flags(params: ExampleParams, a: InstanceAnalysis) -> tuple[dict, dict, float | None]:
    """``(checks, flags, space_form_residual)`` for ``params``, on the analysis ``a`` of its instance.

    ``const_invariant`` says the two P-invariant basis planes (X1X3, X2X4) have equal
    sectional curvature, ``const_anti_invariant`` the same for the four anti-invariant
    basis planes, and ``const_sectional`` that all six are equal; none says the sectional
    curvature is constant on every plane.  Each flag is the closed-form condition, and its
    ``constant_*_agreement`` check says that the spread of the computed curvatures (a NaN
    where a plane is degenerate) vanishes with it.  Where all six computed curvatures
    agree, the residual is the pointwise test of R = (tau/12) pi1, else None.  It is zero
    only at lambda = 0: the curvature keeps cross terms such as R_1213 = lambda1*lambda4
    where pi1 vanishes.
    """
    sq = [v * v for v in params.lam]
    checks, flags = {}, {}
    for name, (condition, planes) in _CONSTANT_CURVATURE.items():
        defect, spread = condition(sq), np.ptp([a.sectional[plane] for plane in planes])
        flags[f"const_{name}"] = a.vanishes(defect)
        checks[f"constant_{name}_agreement"] = a.agree(defect, spread)
    # spread is the last entry's: that of all six basis curvatures
    residual = psi1_defect(a.R, None, (-a.ricci.tau / 24.0) * a.inst.g, a.inst.g) if a.vanishes(spread) else None
    return checks, flags, residual
