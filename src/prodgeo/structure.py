"""Almost product structures and the bundled manifold instance.

The structure endomorphism is stored as a matrix ``P[i, j]`` acting on
component columns, so ``P @ v`` gives the components of the image of v.
Axiom failures are data (named defect magnitudes), not exceptions: the
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
class Defect:
    name: str
    magnitude: float


@dataclass(frozen=True)
class StructureReport:
    """All structural axiom defects, plus the subset above tolerance."""

    checks: tuple[Defect, ...]
    tolerance: float

    @property
    def failures(self) -> tuple[Defect, ...]:
        return tuple(d for d in self.checks if d.magnitude > self.tolerance)

    @property
    def ok(self) -> bool:
        return not self.failures


def structure_defects(c, g, p, tolerance: float = DEFAULT_EPS) -> StructureReport:
    """Axiom defects from raw component arrays (no metric inverse required)."""
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)
    p = np.asarray(p, dtype=float)
    dim = g.shape[0]
    eye = np.eye(dim)
    eigenvalues = np.linalg.eigvalsh((g + g.T) / 2.0)
    checks = (
        Defect("structure_squares_to_identity", max_abs(p @ p - eye)),
        Defect("structure_metric_compatibility", max_abs(p.T @ g @ p - g)),
        Defect("structure_trace", abs(float(np.trace(p)))),
        Defect("jacobi_identity", liealg.jacobi_defect(c)),
        Defect("metric_symmetry", max_abs(g - g.T)),
        Defect("metric_positive_definite", max(0.0, -float(eigenvalues[0]))),
    )
    return StructureReport(checks=checks, tolerance=tolerance)


def validate_structure(inst: RpmInstance, tolerance: float = DEFAULT_EPS) -> StructureReport:
    return structure_defects(inst.c, inst.g, inst.p, tolerance)


def structure_pullback(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t(P x_i, P x_j) of a rank-3 array, as two two-operand contractions."""
    return np.einsum("bj,ibk->ijk", p, np.einsum("ai,abk->ibk", p, t))


def nijenhuis_tensor(inst: RpmInstance) -> np.ndarray:
    """Integrability obstruction of the structure; zero on product manifolds."""
    c, p = inst.c, inst.p
    n12 = structure_pullback(p, c)
    n3 = np.einsum("km,ijm->ijk", p, np.einsum("ai,ajm->ijm", p, c))
    n4 = np.einsum("km,ijm->ijk", p, np.einsum("bj,ibm->ijm", p, c))
    return n12 + c - n3 - n4


def abelian_structure_defect(inst: RpmInstance) -> float:
    """Largest component of [P·, P·] + [·, ·] over all frame pairs."""
    return max_abs(structure_pullback(inst.p, inst.c) + inst.c)
