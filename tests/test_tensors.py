import numpy as np
import pytest

import prodgeo
from prodgeo import errors
from prodgeo.example import ExampleParams, build_example
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance
from prodgeo.tensors import invert_metric
from tests.conftest import frame_changed_dim8


def test_every_exported_name_resolves():
    namespace = {}
    exec("from prodgeo import *", namespace)
    assert all(namespace[name] is getattr(prodgeo, name) for name in prodgeo.__all__)


class TestInstanceInputs:
    @pytest.mark.parametrize("field", ["c", "g", "g_inv", "p"])
    def test_read_only(self, field):
        arr = getattr(frame_changed_dim8(), field)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 2.0

    def test_caller_arrays_are_copied(self):
        model = frame_changed_dim8()
        c, g, p = np.array(model.c), np.array(model.g), np.array(model.p)
        inst = RpmInstance(LieFrameAlgebra(8, c), g, p)
        for arr in (c, g, p):
            arr += 1.0
        for name in ("c", "g", "g_inv", "p"):
            assert np.array_equal(getattr(inst, name), getattr(model, name))

    def test_equal_instances_compare_and_hash_by_identity(self):
        first = build_example(ExampleParams((1, 2, 3, 4)))
        second = build_example(ExampleParams((1, 2, 3, 4)))
        for a, b in ((first, second), (first.alg, second.alg)):
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a: 0, b: 1}) == 2


class TestInvertMetric:
    def test_identity_is_self_inverse(self):
        assert np.allclose(invert_metric(np.eye(4)), np.eye(4))

    def test_scalar_inverse(self):
        assert np.allclose(invert_metric(2.0 * np.eye(4)), 0.5 * np.eye(4))

    def test_orthonormal_example_metric(self):
        inst = build_example(ExampleParams((1, 2, 3, 4)))
        assert np.allclose(invert_metric(inst.g), np.eye(4))

    def test_product_with_metric_is_identity(self):
        g = np.array([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]], dtype=float)
        inv = invert_metric(g)
        assert np.max(np.abs(g @ inv - np.eye(4))) < 1e-12

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            g = a @ a.T + 4.0 * np.eye(4)
            back = invert_metric(invert_metric(g))
            assert np.max(np.abs(back - g)) < 1e-9 * np.max(np.abs(g))

    def test_not_symmetric(self):
        bad = np.eye(4)
        bad = bad + np.diag([0.5, 0, 0], k=1)
        with pytest.raises(errors.NotSymmetric):
            invert_metric(bad)

    def test_not_positive_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            invert_metric(np.diag([1.0, 1.0, -1.0, 1.0]))

    def test_not_square(self):
        with pytest.raises(errors.ShapeMismatch):
            invert_metric(np.eye(4)[:3])
