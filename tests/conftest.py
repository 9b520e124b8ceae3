import numpy as np
import pytest

from prodgeo.example import ExampleParams, build_example, constant_curvature_flags, verify_against_tables
from prodgeo.levicivita import psi1_blocks, ricci_and_scalar, weyl_tensor
from prodgeo.pipeline import analyze_instance
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance
from prodgeo.tensors import DEFAULT_EPS, max_abs


@pytest.fixture
def inst_1234():
    return build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))


@pytest.fixture
def inst_1000():
    return build_example(ExampleParams((1.0, 0.0, 0.0, 0.0)))


@pytest.fixture
def inst_zero():
    return build_example(ExampleParams((0.0, 0.0, 0.0, 0.0)))


def table_report(params: ExampleParams, eps: float = 1e-9) -> dict:
    """``verify_against_tables`` on a fresh analysis of the builtin instance."""
    return verify_against_tables(params, analyze_instance(build_example(params), eps))


def table_deviation(checks: dict) -> float:
    """The largest golden-table deviation among the ``table_*`` checks of ``checks``."""
    return max(defect for name, defect in checks.items() if name.startswith("table_"))


def curvature_flags(params: ExampleParams, eps: float = 1e-9):
    """``constant_curvature_flags`` on a fresh analysis of the builtin instance: (checks, flags, residual)."""
    return constant_curvature_flags(params, analyze_instance(build_example(params), eps))


def instance_payload(inst: RpmInstance) -> dict:
    """``inst`` as the explicit-components document of an instance file."""
    c, dim = inst.alg.c, inst.dim
    return {
        "dim": dim,
        "brackets": [
            {"i": i + 1, "j": j + 1, "coeffs": c[i, j].tolist()}
            for i in range(dim)
            for j in range(i + 1, dim)
        ],
        "metric": inst.g.tolist(),
        "P": inst.p.tolist(),
    }


def psi1(g: np.ndarray, s, eps: float = DEFAULT_EPS) -> np.ndarray:
    """The whole curvature-type extension of ``s``, put together from the blocks of ``psi1_blocks``."""
    out = np.empty((len(g),) * 4)
    for b, block in psi1_blocks(g, s, eps):
        out[b] = block
    return out


def random_lambdas(seed: int, count: int, low: float = -3.0, high: float = 3.0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(low, high, 4)) for _ in range(count)]


def random_instance(seed: int, dim: int = 8) -> RpmInstance:
    """Random antisymmetric brackets and a random P: the kernels need no axioms."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(dim, dim, dim))
    return RpmInstance(LieFrameAlgebra(dim, c - c.swapaxes(0, 1)), np.eye(dim), rng.normal(size=(dim, dim)))


def weyl_difference(a) -> tuple[float, float]:
    """max|W - W'| of the analysis ``a``, with W' = weyl_tensor(R', rho', tau', g) built here,
    and the roundoff bound 64 ulps of max|R| + max|R'| that its Weyl-invariance residual keeps to it."""
    ricci = ricci_and_scalar(a.Rprime, a.inst.g_inv)
    w_prime = weyl_tensor(a.Rprime, ricci.rho, ricci.tau, a.inst.g)
    return max_abs(a.W - w_prime), 64 * np.finfo(float).eps * (max_abs(a.R) + max_abs(a.Rprime))


def moved_frame(c, p, seed: int) -> RpmInstance:
    """An instance orthonormal in the frame X_a, written in the frame X'_i = A^a_i X_a.

    A = I + 0.3 N is random: c' = A A c A^-1, g' = A^T A, P' = A^-1 P A.
    """
    dim = p.shape[0]
    a = np.eye(dim) + 0.3 * np.random.default_rng(seed).normal(size=(dim, dim))
    a_inv = np.linalg.inv(a)
    return RpmInstance(LieFrameAlgebra(dim, np.einsum("ai,bj,abk,mk->ijm", a, a, c, a_inv)), a.T @ a, a_inv @ p @ a)


def frame_changed_dim8(seed: int = 0) -> RpmInstance:
    """A dim-8 instance with dense brackets and a non-identity metric.

    The builtin family at lambda = (1, 2, 3, 4) summed with the 4-dim
    hyperbolic algebra [X_4, X_i] = X_i, both orthonormal, moved by a random
    frame change (see :func:`moved_frame`).
    """
    family = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
    c = np.zeros((8, 8, 8))
    c[:4, :4, :4] = family.alg.c
    for i in range(4, 7):
        c[7, i, i], c[i, 7, i] = 1.0, -1.0
    p = np.zeros((8, 8))
    p[:4, :4] = family.p
    p[4:, 4:] = np.diag([1.0, 1.0, -1.0, -1.0])
    return moved_frame(c, p, seed)


def hyperbolic(dim: int, a: float = 1.3) -> RpmInstance:
    """Real hyperbolic space of curvature -a^2 as an instance.

    [e_0, e_i] = a e_i for i >= 1 and P = Q diag(I_n, -I_n) Q^T with Q a random
    orthogonal matrix, moved by a random frame change.  The Levi-Civita
    connection is nabla_x y = a (g(x, y) e_0 - eta(y) x) with eta = e^0, so
    the instance is in the conformally flat product class, its natural
    connection is flat with parallel torsion, and tau = -d (d - 1) a^2.
    """
    c = np.zeros((dim, dim, dim))
    for i in range(1, dim):
        c[0, i, i], c[i, 0, i] = a, -a
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(dim, dim)))
    p = q @ np.diag([1.0] * (dim // 2) + [-1.0] * (dim // 2)) @ q.T
    return moved_frame(c, p, seed=8)


@pytest.fixture
def hyperbolic_dim8():
    """The dim-8 ``hyperbolic`` instance, with its a."""
    return hyperbolic(8), 1.3
