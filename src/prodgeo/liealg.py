"""Lie algebra data for a left-invariant frame.

Structure constants are stored as ``c[i, j, k]``: the coefficient of the
k-th frame vector in the bracket of frame vectors i and j.  Antisymmetry
in (i, j) is enforced at construction; the Jacobi identity is measured,
not enforced, so callers can report its defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadDimension, DimensionMismatch, GeometryError, ShapeMismatch
from .tensors import blocks, freeze, max_abs

DERIVED_PIVOT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LieFrameAlgebra:
    """Structure constants of a frame; compared and hashed by identity."""

    dim: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", freeze(self.c))
        if self.dim < 4 or self.dim % 2 != 0:
            raise BadDimension(f"frame dimension must be even and >= 4, got {self.dim}")
        if self.c.shape != (self.dim,) * 3:
            raise ShapeMismatch(f"structure constants have shape {self.c.shape}")
        if max_abs(self.c + np.swapaxes(self.c, 0, 1)) > 1e-12 * max(1.0, max_abs(self.c)):
            raise GeometryError("structure constants are not antisymmetric in (i, j)")

    @cached_property
    def closed_forms(self) -> np.ndarray:
        """Row basis of the closed constant 1-forms (``derived_bases``), one SVD per algebra, read-only."""
        basis = derived_bases(self)[1]
        basis.setflags(write=False)
        return basis

    @classmethod
    def from_brackets(cls, dim: int, entries: dict[tuple[int, int], object]) -> "LieFrameAlgebra":
        """Build from a sparse table ``{(i, j): coefficients of [X_i, X_j]}`` (0-based, i < j)."""
        c = np.zeros((dim, dim, dim))
        for (i, j), coeffs in entries.items():
            if not (0 <= i < dim and 0 <= j < dim) or i == j:
                raise DimensionMismatch(f"bad bracket index pair ({i}, {j}) for dim {dim}")
            vec = np.asarray(coeffs, dtype=float)
            if vec.shape != (dim,):
                raise DimensionMismatch(f"bracket [{i},{j}] has {vec.shape} coefficients")
            c[i, j] = vec
            c[j, i] = -vec
        return cls(dim=dim, c=c)


def jacobi_defect(c: np.ndarray) -> float:
    """Largest component of the cyclic bracket sum of the structure constants ``c`` over all
    basis triples, one first-slot block at a time (``tensors.blocks``): no dim**4 array.
    ``np.maximum.reduce`` of the block maxima keeps a NaN, where ``max`` could drop it."""
    d = c.shape[0]
    rows = c.reshape(d, d * d)
    maxima = []
    for b in blocks(d):
        cyc = (c[b].reshape(-1, d) @ rows).reshape(-1, d, d, d)
        cyc += (c.reshape(d * d, d) @ c[:, b].reshape(d, -1)).reshape(d, d, -1, d).transpose(2, 0, 1, 3)
        cyc += (c[:, b].reshape(-1, d) @ rows).reshape(d, -1, d, d).transpose(1, 2, 0, 3)
        maxima.append(np.abs(cyc, out=cyc).max())
    return float(np.maximum.reduce(maxima))


def derived_bases(alg: LieFrameAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row bases from one SVD of the bracket images, rank by ``DERIVED_PIVOT_TOL``.

    The first spans the derived subalgebra; the second spans its
    annihilator, the closed constant 1-forms (those vanishing on every
    bracket).
    """
    images = alg.c.reshape(alg.dim * alg.dim, alg.dim)
    _, s, vt = np.linalg.svd(images)
    rank = int(np.sum(s > DERIVED_PIVOT_TOL))
    return vt[:rank], vt[rank:]
