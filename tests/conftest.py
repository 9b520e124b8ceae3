import numpy as np
import pytest

from prodgeo.example import ExampleParams, build_example
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import ProductStructure, RpmInstance
from prodgeo.tensors import MetricTensor


@pytest.fixture
def inst_1234():
    return build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))


@pytest.fixture
def inst_1000():
    return build_example(ExampleParams((1.0, 0.0, 0.0, 0.0)))


@pytest.fixture
def inst_zero():
    return build_example(ExampleParams((0.0, 0.0, 0.0, 0.0)))


def random_lambdas(seed: int, count: int, low: float = -3.0, high: float = 3.0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(low, high, 4)) for _ in range(count)]


def frame_changed_dim8(seed: int = 0) -> RpmInstance:
    """A dim-8 instance with dense brackets and a non-identity metric.

    The builtin family at lambda = (1, 2, 3, 4) summed with the 4-dim
    hyperbolic algebra [X_4, X_i] = X_i, both orthonormal, moved to the frame
    X'_i = A^a_i X_a by a random A: c' = A A c A^-1, g' = A^T A, P' = A^-1 P A.
    """
    family = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
    c = np.zeros((8, 8, 8))
    c[:4, :4, :4] = family.alg.c
    for i in range(4, 7):
        c[7, i, i], c[i, 7, i] = 1.0, -1.0
    p = np.zeros((8, 8))
    p[:4, :4] = family.structure.components
    p[4:, 4:] = np.diag([1.0, 1.0, -1.0, -1.0])
    a = np.eye(8) + 0.3 * np.random.default_rng(seed).normal(size=(8, 8))
    a_inv = np.linalg.inv(a)
    return RpmInstance(
        alg=LieFrameAlgebra(8, np.einsum("ai,bj,abk,mk->ijm", a, a, c, a_inv)),
        metric=MetricTensor.from_matrix(a.T @ a),
        structure=ProductStructure(a_inv @ p @ a),
    )
