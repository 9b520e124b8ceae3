"""Small dense tensor arithmetic over a fixed finite frame.

Components live in float64 arrays of shape ``(dim,) * rank`` with one
variance tag per slot ('co' or 'contra').  Arrays are copied on
construction and marked read-only, so every value in the package is
immutable and freely shareable.  Rank is capped at 4: nothing computed
here exceeds a (0,4) curvature-type tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    NotPositiveDefinite,
    NotSymmetric,
    ShapeMismatch,
    SlotOutOfRange,
    VarianceMismatch,
)

MAX_RANK = 4
DEFAULT_EPS = 1e-9

CO = "co"
CONTRA = "contra"


def freeze(components) -> np.ndarray:
    """Return a read-only float64 copy of ``components``."""
    arr = np.array(components, dtype=float)
    arr.setflags(write=False)
    return arr


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i, j, m] b[m, k, l] for two (dim, dim, dim) arrays, as one matrix product."""
    d = a.shape[0]
    return (a.reshape(d * d, d) @ b.reshape(d, d * d)).reshape((d,) * 4)


def max_abs(arr) -> float:
    a = np.asarray(arr, dtype=float)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


@dataclass(frozen=True)
class DenseTensor:
    """Dense components of a tensor over the frame, with per-slot variance."""

    dim: int
    variance: tuple[str, ...]
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variance", tuple(self.variance))
        object.__setattr__(self, "components", freeze(self.components))
        if self.dim < 4 or self.dim % 2 != 0:
            raise BadDimension(f"frame dimension must be even and >= 4, got {self.dim}")
        if self.rank > MAX_RANK:
            raise ShapeMismatch(f"rank {self.rank} exceeds the rank-{MAX_RANK} cap")
        for tag in self.variance:
            if tag not in (CO, CONTRA):
                raise VarianceMismatch(f"unknown variance tag {tag!r}")
        if self.components.shape != (self.dim,) * self.rank:
            raise ShapeMismatch(
                f"components of shape {self.components.shape} do not match "
                f"dim={self.dim}, rank={self.rank}"
            )

    @property
    def rank(self) -> int:
        return len(self.variance)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.components, dtype=dtype)


def make_tensor(components, variance, dim: int | None = None) -> DenseTensor:
    """Wrap an array as a :class:`DenseTensor`, inferring ``dim`` when rank >= 1."""
    arr = np.asarray(components, dtype=float)
    if dim is None:
        if arr.ndim == 0:
            raise ShapeMismatch("dim must be given explicitly for rank-0 tensors")
        dim = arr.shape[0]
    return DenseTensor(dim=dim, variance=tuple(variance), components=arr)


def invert_metric(g: DenseTensor, eps: float = DEFAULT_EPS) -> DenseTensor:
    """Inverse of a symmetric positive-definite rank-2 covariant tensor."""
    if g.variance != (CO, CO):
        raise VarianceMismatch(f"metric must be rank-2 covariant, got {g.variance}")
    mat = g.components
    if max_abs(mat - mat.T) > eps * max(1.0, max_abs(mat)):
        raise NotSymmetric("metric components are not symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric is not positive definite") from None
    return DenseTensor(g.dim, (CONTRA, CONTRA), np.linalg.inv(mat))


_LETTERS = "abcd"


def trace_contract(
    t: DenseTensor, slot_a: int, slot_b: int, g_inv: DenseTensor | None = None
) -> DenseTensor:
    """Contract two slots of ``t``, weighting with ``g_inv`` when both are covariant.

    A co/contra slot pair is traced naturally.  Two contravariant slots are
    rejected: the package never needs that case.
    """
    r = t.rank
    if r < 2:
        raise SlotOutOfRange(f"cannot contract a rank-{r} tensor")
    if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
        raise SlotOutOfRange(f"bad slot pair ({slot_a}, {slot_b}) for rank {r}")
    va, vb = t.variance[slot_a], t.variance[slot_b]

    letters = list(_LETTERS[:r])
    if va == CO and vb == CO:
        if g_inv is None:
            raise VarianceMismatch("two covariant slots need g_inv to contract")
        letters[slot_a], letters[slot_b] = "y", "z"
        expr = f"yz,{''.join(letters)}->" + "".join(
            l for i, l in enumerate(letters) if i not in (slot_a, slot_b)
        )
        out = np.einsum(expr, g_inv.components, t.components)
    elif CO in (va, vb) and CONTRA in (va, vb):
        letters[slot_a] = letters[slot_b] = "y"
        expr = f"{''.join(letters)}->" + "".join(
            l for i, l in enumerate(letters) if i not in (slot_a, slot_b)
        )
        out = np.einsum(expr, t.components)
    else:
        raise VarianceMismatch("cannot naturally contract two contravariant slots")

    variance = tuple(v for i, v in enumerate(t.variance) if i not in (slot_a, slot_b))
    return DenseTensor(t.dim, variance, out)


def tensor_close(a: DenseTensor, b: DenseTensor, eps: float = DEFAULT_EPS) -> bool:
    """Componentwise closeness, relative to the larger of 1 and both magnitudes."""
    if a.dim != b.dim or a.variance != b.variance:
        raise ShapeMismatch(
            f"cannot compare tensors of shape {(a.dim, a.variance)} and {(b.dim, b.variance)}"
        )
    scale = max(1.0, max_abs(a.components), max_abs(b.components))
    return max_abs(a.components - b.components) <= eps * scale


@dataclass(frozen=True)
class MetricTensor:
    """A Riemannian metric together with its cached inverse."""

    g: DenseTensor
    g_inv: DenseTensor

    @classmethod
    def from_matrix(cls, matrix, eps: float = DEFAULT_EPS) -> "MetricTensor":
        g = make_tensor(matrix, (CO, CO))
        return cls(g=g, g_inv=invert_metric(g, eps))

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.g.components

    @property
    def inverse(self) -> np.ndarray:
        return self.g_inv.components
