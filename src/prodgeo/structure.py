"""Almost product structures and the bundled manifold instance.

The structure endomorphism is stored as a matrix ``P[i, j]`` acting on
component columns, so ``P @ v`` gives the components of the image of v.
Axiom failures are data ({axiom name: defect}), not exceptions: the
verification commands need to print full diagnostics for bad instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import liealg
from .errors import ShapeMismatch
from .liealg import LieFrameAlgebra
from .tensors import DEFAULT_EPS, MetricTensor, freeze, max_abs


@dataclass(frozen=True, eq=False)
class ProductStructure:
    """Components of an almost product endomorphism; compared and hashed by identity."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", freeze(self.components))
        m = self.components
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"structure components have shape {m.shape}")

    @property
    def dim(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True, eq=False)
class RpmInstance:
    """A left-invariant Riemannian almost product manifold datum; compared and hashed by identity."""

    alg: LieFrameAlgebra
    metric: MetricTensor
    structure: ProductStructure

    def __post_init__(self):
        if not (self.alg.dim == self.metric.dim == self.structure.dim):
            raise ShapeMismatch(
                f"inconsistent dimensions: algebra {self.alg.dim}, "
                f"metric {self.metric.dim}, structure {self.structure.dim}"
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

    @property
    def g(self) -> np.ndarray:
        return self.metric.matrix

    @property
    def g_inv(self) -> np.ndarray:
        return self.metric.inverse

    @property
    def p(self) -> np.ndarray:
        return self.structure.components

    @cached_property
    def nijenhuis_defect(self) -> float:
        """max |N| of the integrability obstruction, built once per instance on first read."""
        return max_abs(nijenhuis_tensor(self))


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
    checks = {
        "structure_squares_to_identity": max_abs(p @ p - eye),
        "structure_metric_compatibility": max_abs(p.T @ g @ p - g),
        "structure_trace": abs(float(np.trace(p))),
        "jacobi_identity": liealg.jacobi_defect(c),
        "metric_symmetry": max_abs(g - g.T),
        "metric_positive_definite": max(0.0, -float(eigenvalues[0])),
    }
    return StructureReport(checks=checks, tolerance=tolerance)


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


def abelian_structure_defect(inst: RpmInstance) -> float:
    """Largest component of [P·, P·] + [·, ·] over all frame pairs."""
    return max_abs(structure_pullback(inst.p, inst.c) + inst.c)
