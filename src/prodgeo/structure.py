"""Almost product structures and the bundled manifold instance.

The structure endomorphism is stored as a matrix ``P[i, j]`` acting on
component columns, so ``P @ v`` gives the components of the image of v.
Axiom failures are data ({axiom name: defect}), not exceptions: the
verification commands need to print full diagnostics for bad instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import liealg
from .errors import ShapeMismatch
from .liealg import LieFrameAlgebra
from .tensors import DEFAULT_EPS, freeze, invert_metric, max_abs, pi1_tensor


@dataclass(frozen=True, eq=False)
class RpmInstance:
    """A left-invariant Riemannian almost product manifold datum (M, P, g); compared and hashed by identity.

    Holds read-only copies of the metric ``g``, its inverse ``g_inv`` (computed
    once, by ``invert_metric`` at ``DEFAULT_EPS``) and the structure ``p``.
    """

    alg: LieFrameAlgebra
    g: np.ndarray
    p: np.ndarray
    g_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "g", freeze(self.g))
        object.__setattr__(self, "g_inv", freeze(invert_metric(self.g)))
        object.__setattr__(self, "p", freeze(self.p))
        if self.p.ndim != 2 or self.p.shape[0] != self.p.shape[1]:
            raise ShapeMismatch(f"structure components have shape {self.p.shape}")
        if not (self.alg.dim == len(self.g) == len(self.p)):
            raise ShapeMismatch(
                f"inconsistent dimensions: algebra {self.alg.dim}, "
                f"metric {len(self.g)}, structure {len(self.p)}"
            )

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def n(self) -> int:
        return self.alg.dim // 2

    @property
    def c(self) -> np.ndarray:
        return self.alg.c

    @cached_property
    def pi1(self) -> np.ndarray:
        """The space-form tensor of g, built on first read and shared by every reader, read-only."""
        pi1 = pi1_tensor(self.g)
        pi1.setflags(write=False)
        return pi1

    @cached_property
    def nijenhuis_defect(self) -> float:
        """max |N| of the integrability obstruction, built once per instance on first read."""
        return max_abs(nijenhuis_tensor(self))


# The structure gate: a failing check of one of these names makes a report exit 3.
AXIOMS = (
    "structure_squares_to_identity",
    "structure_metric_compatibility",
    "structure_trace",
    "jacobi_identity",
    "metric_symmetry",
    "metric_positive_definite",
)
INSTANCE_BUILDABLE = "instance_buildable"  # the indicator of an instance that cannot be built
GATE = frozenset((*AXIOMS, INSTANCE_BUILDABLE))


@dataclass(frozen=True)
class StructureReport:
    """All structural axiom defects, ``{axiom name: defect}``, and the tolerance they are judged by."""

    checks: dict[str, float]
    tolerance: float

    @property
    def ok(self) -> bool:
        """Every defect within tolerance; a NaN defect is a failure."""
        return all(d <= self.tolerance for d in self.checks.values())


def structure_defects(c, g, p, tolerance: float = DEFAULT_EPS) -> StructureReport:
    """Axiom defects from raw component arrays (no metric inverse required)."""
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)
    p = np.asarray(p, dtype=float)
    dim = g.shape[0]
    eye = np.eye(dim)
    eigenvalues = np.linalg.eigvalsh((g + g.T) / 2.0)
    defects = (  # in the order of AXIOMS
        max_abs(p @ p - eye),
        max_abs(p.T @ g @ p - g),
        abs(float(np.trace(p))),
        liealg.jacobi_defect(c),
        max_abs(g - g.T),
        max(0.0, -float(eigenvalues[0])),
    )
    return StructureReport(checks=dict(zip(AXIOMS, defects)), tolerance=tolerance)


def validate_structure(inst: RpmInstance, tolerance: float = DEFAULT_EPS) -> StructureReport:
    return structure_defects(inst.c, inst.g, inst.p, tolerance)


def structure_pullback(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t(P x_i, P x_j) of a rank-3 array, as two matrix products."""
    return p.T @ (p.T @ t.reshape(len(p), -1)).reshape(t.shape)


def nijenhuis_tensor(inst: RpmInstance) -> np.ndarray:
    """Integrability obstruction [Px, Py] + [x, y] - P[Px, y] - P[x, Py]; zero on product manifolds."""
    c, p = inst.c, inst.p
    first = (p.T @ c.reshape(inst.dim, -1)).reshape(c.shape)  # c(P x_i, x_j)
    return p.T @ first + c - first @ p.T - (p.T @ c) @ p.T
