import numpy as np
import pytest

from prodgeo.example import ExampleParams, build_example
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance, nijenhuis_tensor, structure_defects, validate_structure
from prodgeo.tensors import max_abs
from tests.conftest import random_lambdas
from tests.reference import abelian, abelian_structure_defect, bracket

E = np.eye(4)
BLOCK_P = np.diag([1.0, 1.0, -1.0, -1.0])


def block_instance(alg=None):
    return RpmInstance(alg if alg is not None else abelian(4), np.eye(4), BLOCK_P)


class TestValidateStructure:
    def test_example_instance_is_clean(self, inst_1234):
        report = validate_structure(inst_1234)
        assert report.ok
        assert len(report.checks) == 6

    def test_identity_structure_fails_trace(self):
        inst = RpmInstance(abelian(4), np.eye(4), np.eye(4))
        report = validate_structure(inst)
        assert report.checks["structure_trace"] == pytest.approx(4.0)
        assert not report.ok

    def test_block_reflection_is_valid(self):
        assert validate_structure(block_instance()).ok


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
SHEAR = np.array([[1.0, 1.0], [0.0, -1.0]])
NON_LIE = LieFrameAlgebra.from_brackets(4, {(0, 1): E[1], (0, 2): E[2], (1, 2): E[0]}).c

# Raw (c, g, P) that break exactly one axiom each, starting from the abelian
# algebra, the identity metric and BLOCK_P.
ONE_AXIOM_BROKEN = {
    # orthogonal and trace-free, but P^2 = -I
    "structure_squares_to_identity": (None, None, np.kron(np.eye(2), ROTATION)),
    # P^2 = I and trace-free, but not an isometry
    "structure_metric_compatibility": (None, None, np.kron(np.eye(2), SHEAR)),
    "structure_trace": (None, None, np.eye(4)),
    # [X1,X2]=X2, [X1,X3]=X3, [X2,X3]=X1 (see test_liealg.py)
    "jacobi_identity": (NON_LIE, None, None),
    # an off-diagonal entry inside the +1 eigenblock of BLOCK_P
    "metric_symmetry": (None, np.eye(4) + 0.5 * np.outer(E[0], E[1]), None),
    "metric_positive_definite": (None, np.diag([1.0, 1.0, 1.0, -1.0]), None),
}


class TestStructureDefects:
    @pytest.mark.parametrize("name", list(ONE_AXIOM_BROKEN))
    def test_each_axiom_flags_only_itself(self, name):
        c, g, p = ONE_AXIOM_BROKEN[name]
        report = structure_defects(
            np.zeros((4, 4, 4)) if c is None else c,
            np.eye(4) if g is None else g,
            BLOCK_P if p is None else p,
        )
        assert list(report.checks) == list(ONE_AXIOM_BROKEN)
        assert [n for n, d in report.checks.items() if d > report.tolerance] == [name]
        assert not report.ok


def brute_force_nijenhuis(inst, u, v):
    alg, p = inst.alg, inst.p
    return (
        bracket(alg, p @ u, p @ v)
        + bracket(alg, u, v)
        - p @ bracket(alg, p @ u, v)
        - p @ bracket(alg, u, p @ v)
    )


class TestNijenhuis:
    def test_abelian_vanishes_for_any_structure(self):
        assert max_abs(nijenhuis_tensor(block_instance())) == 0.0

    def test_example_family_integrable(self):
        for lam in random_lambdas(29, 50):
            inst = build_example(ExampleParams(lam))
            assert max_abs(nijenhuis_tensor(inst)) <= 1e-9

    def test_block_structure_on_example_algebra_obstructed(self, inst_1000):
        # pairs mixing the two eigenblocks cancel identically; the obstruction
        # sits inside the negative block, where the bracket leaves it
        inst = block_instance(inst_1000.alg)
        n = nijenhuis_tensor(inst)
        expected = brute_force_nijenhuis(inst, E[2], E[3])
        assert np.allclose(expected, [-4.0, 0.0, 0.0, 0.0])
        assert np.allclose(n[2, 3], expected)
        assert max_abs(n) == pytest.approx(4.0)

    def test_antisymmetric_in_arguments(self, inst_1234):
        n = nijenhuis_tensor(inst_1234)
        assert np.allclose(n, -np.swapaxes(n, 0, 1))

    def test_matches_brute_force(self, inst_1234):
        n = nijenhuis_tensor(inst_1234)
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=(2, 4))
        assert np.allclose(
            np.einsum("ijk,i,j->k", n, u, v), brute_force_nijenhuis(inst_1234, u, v)
        )


class TestAbelianStructure:
    def test_example_family(self):
        for lam in random_lambdas(31, 25):
            assert abelian_structure_defect(build_example(ExampleParams(lam))) <= 1e-9

    def test_abelian_algebra(self):
        assert abelian_structure_defect(block_instance()) <= 1e-9

    def test_block_structure_on_example_algebra(self, inst_1000):
        inst = block_instance(inst_1000.alg)
        # [PX1, PX2] = [X1, X2] = X1 while the axiom needs -X1
        assert abelian_structure_defect(inst) == pytest.approx(2.0)

    def test_abelian_structure_implies_integrable(self):
        for lam in random_lambdas(37, 25):
            inst = build_example(ExampleParams(lam))
            if abelian_structure_defect(inst) <= 1e-9:
                assert max_abs(nijenhuis_tensor(inst)) <= 1e-9
