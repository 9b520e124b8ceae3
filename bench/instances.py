"""Seeded instance generator for the benchmark workloads.

Everything here is numpy only: the expected answers come from the geometry
of the two families, never from prodgeo.

Families, in an orthonormal frame e_0 .. e_{d-1} of dimension d = 2n:

* ``hyperbolic``: [e_0, e_i] = a e_i for i >= 1 (real hyperbolic space of
  curvature -a^2), P = Q diag(I_n, -I_n) Q^T with Q random orthogonal.
  Levi-Civita: nabla_x y = a (g(x, y) e_0 - eta(y) x), eta = e^0, which
  gives F = W1 form with Lee form theta = -a d (eta o P), a flat natural
  connection with parallel torsion, and tau = -d (d - 1) a^2.
* ``hyp-product``: H(a) on e_0 .. e_{n-1} times H(b) on e_n .. e_{2n-1},
  P = diag(I_n, -I_n).  P is parallel (class W0, theta = 0), the natural
  connection is the Levi-Civita one and is not flat, and
  tau = -n (n - 1) (a^2 + b^2).

Closed 1-forms annihilate the derived algebra: s e^0 for ``hyperbolic``,
s e^0 + t e^n for ``hyp-product``.  The Lee form of the rescaled metric is
theta + 2n (alpha o P).

Each instance is then moved by a frame change A = I + 0.3 N / sqrt(d):
c'_ijk = A_ai A_bj c_abc (A^-1)_kc, g' = A^T g A, P' = A^-1 P A, and every
1-form maps as w' = A^T w.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("hyperbolic", "hyp-product")


@dataclass(frozen=True)
class Instance:
    """An explicit instance in the moved frame together with its closed-form answers."""

    family: str
    dim: int
    c: np.ndarray
    g: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    tau: float
    theta: np.ndarray
    theta_rescaled: np.ndarray

    def to_dict(self) -> dict:
        """Instance-file JSON: sparse brackets with 1-based indices, i < j."""
        brackets = [
            {"i": i + 1, "j": j + 1, "coeffs": self.c[i, j].tolist()}
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
            if np.any(self.c[i, j] != 0.0)
        ]
        return {
            "dim": self.dim,
            "brackets": brackets,
            "metric": self.g.tolist(),
            "P": self.p.tolist(),
        }

    def write(self, path: Path) -> Path:
        path.write_text(json.dumps(self.to_dict()))
        return path


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _hyperbolic_brackets(c: np.ndarray, first: int, last: int, a: float) -> None:
    """[e_first, e_i] = a e_i for first < i < last."""
    for i in range(first + 1, last):
        c[first, i, i] = a
        c[i, first, i] = -a


def make_instance(family: str, dim: int, rng: np.random.Generator) -> Instance:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if dim < 4 or dim % 2:
        raise ValueError(f"dim must be even and >= 4, got {dim}")
    n = dim // 2
    c = np.zeros((dim, dim, dim))
    eta = np.zeros(dim)
    eta[0] = 1.0
    split = np.diag(np.r_[np.ones(n), -np.ones(n)])

    a = rng.uniform(0.5, 2.0)
    s = rng.uniform(-1.0, 1.0)
    if family == "hyperbolic":
        _hyperbolic_brackets(c, 0, dim, a)
        q = _random_orthogonal(rng, dim)
        p = q @ split @ q.T
        alpha = s * eta
        tau = -dim * (dim - 1) * a * a
        theta = -a * dim * (p.T @ eta)
    else:
        b = rng.uniform(0.5, 2.0)
        t = rng.uniform(-1.0, 1.0)
        _hyperbolic_brackets(c, 0, n, a)
        _hyperbolic_brackets(c, n, dim, b)
        p = split
        alpha = s * eta
        alpha[n] = t
        tau = -n * (n - 1) * (a * a + b * b)
        theta = np.zeros(dim)
    theta_rescaled = theta + 2.0 * n * (p.T @ alpha)

    frame = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    frame_inv = np.linalg.inv(frame)
    return Instance(
        family=family,
        dim=dim,
        c=np.einsum("ai,bj,abc,kc->ijk", frame, frame, c, frame_inv, optimize=True),
        g=frame.T @ frame,
        p=frame_inv @ p @ frame,
        alpha=frame.T @ alpha,
        tau=tau,
        theta=frame.T @ theta,
        theta_rescaled=frame.T @ theta_rescaled,
    )


def make_pool(seed: int, dim: int, per_family: int) -> list[Instance]:
    """``per_family`` instances of each family, alternating hyperbolic, hyp-product."""
    rng = np.random.default_rng(seed)
    return [make_instance(family, dim, rng) for _ in range(per_family) for family in FAMILIES]


def paper_lambdas(rng: np.random.Generator) -> np.ndarray:
    """Parameters of the builtin family, uniform in [-3, 3]^4."""
    return rng.uniform(-3.0, 3.0, 4)


def builtin_brackets(lam) -> np.ndarray:
    """Structure constants of the builtin four-parameter family (orthonormal frame).

    [e1, e2] = v, [e3, e4] = -v, [e1, e3] = [e2, e4] = w with
    v = (l1, l2, l3, l4) and w = (l4, -l3, l2, -l1), as the paper states it.
    """
    l1, l2, l3, l4 = (float(x) for x in lam)
    v = np.array([l1, l2, l3, l4])
    w = np.array([l4, -l3, l2, -l1])
    c = np.zeros((4, 4, 4))
    for (i, j), vec in {(0, 1): v, (2, 3): -v, (0, 2): w, (1, 3): w}.items():
        c[i, j] = vec
        c[j, i] = -vec
    return c


def orthonormal_scalar_curvature(c: np.ndarray) -> float:
    """Scalar curvature of a left-invariant metric from brackets in an orthonormal frame.

    Besse, Einstein Manifolds, 7.39:
    tau = -1/4 sum |[e_i, e_j]|^2 - 1/2 sum B(e_i, e_i) - |Z|^2, with B the
    Killing form and g(Z, x) = tr ad_x.
    """
    ad = np.swapaxes(c, 1, 2)  # ad[i] is the matrix of ad_{e_i}: column j is [e_i, e_j]
    bracket_sq = float(np.sum(c * c))
    killing = float(np.einsum("ijk,ikj->", ad, ad))
    z = np.trace(ad, axis1=1, axis2=2)
    return -0.25 * bracket_sq - 0.5 * killing - float(z @ z)
