"""Dense arrays over a fixed finite frame: copies, blocks, norms, and the metric's inverse.

Tensor components are plain float64 arrays of shape ``(dim,) * rank``;
which slots are covariant is fixed by the function that builds them.  Only
the instance inputs (structure constants, metric, structure) are copied and
marked read-only, by :func:`freeze`; every derived array is built fresh and
handed on as it is.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric, ShapeMismatch, SingularMetric

DEFAULT_EPS = 1e-9

CO = "co"
CONTRA = "contra"

# Bytes of one block of a blocked rank-4 kernel.  A whole dim-10 array (80 KB)
# fits, so dimensions up to 10 run unblocked; a dim-24 block (108 KiB) stays in
# a core's L2 cache, and the allocator recycles it rather than mapping it afresh.
BLOCK_BYTES = 128 * 1024


def freeze(components) -> np.ndarray:
    """Return a read-only float64 copy of ``components``."""
    arr = np.array(components, dtype=float)
    arr.setflags(write=False)
    return arr


def blocks(dim: int, rank: int = 4) -> list[slice]:
    """Slices of a slot of a ``(dim,) * rank`` float64 array, one entry or a block within ``BLOCK_BYTES``."""
    step = max(1, BLOCK_BYTES // (8 * max(dim, 1) ** (rank - 1)))
    return [slice(i, min(i + step, dim)) for i in range(0, dim, step)]


def max_abs(arr) -> float:
    """max |x| from the max and the min, no |x| copy; a NaN makes both NaN, + 0.0 clears -0.0."""
    a = np.asarray(arr, dtype=float)
    return 0.0 if a.size == 0 else max(float(a.max()), -float(a.min())) + 0.0


def invert_metric(matrix) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix of metric components, symmetry judged at
    ``DEFAULT_EPS``; SingularMetric if the inverse is not finite (1e-310 I passes Cholesky)."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatch(f"metric components have shape {mat.shape}")
    if max_abs(mat - mat.T) > DEFAULT_EPS * max(1.0, max_abs(mat)):
        raise NotSymmetric("metric components are not symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric is not positive definite") from None
    inverse = np.linalg.inv(mat)
    if not np.isfinite(inverse).all():
        raise SingularMetric("metric inverse has non-finite entries")
    return inverse


def pi1_tensor(g: np.ndarray) -> np.ndarray:
    """The curvature-type tensor of a unit-curvature space form for the metric matrix ``g``."""
    return g[None, :, :, None] * g[:, None, None, :] - g[:, None, :, None] * g[None, :, None, :]
