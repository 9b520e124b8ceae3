import itertools

import numpy as np
import pytest

from prodgeo import errors
from prodgeo.example import ExampleParams, build_example
from prodgeo.liealg import (
    LieFrameAlgebra,
    bracket,
    derived_bases,
    jacobi_defect,
)
from tests.conftest import random_lambdas

E = np.eye(4)


def brute_force_jacobi_defect(alg):
    """Independent oracle: expand every cyclic sum with explicit bracket calls."""
    worst = 0.0
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        total = (
            bracket(alg, bracket(alg, E[i], E[j]), E[k])
            + bracket(alg, bracket(alg, E[j], E[k]), E[i])
            + bracket(alg, bracket(alg, E[k], E[i]), E[j])
        )
        worst = max(worst, np.max(np.abs(total)))
    return worst


class TestBracket:
    def test_abelian_brackets_vanish(self):
        alg = LieFrameAlgebra.abelian(4)
        assert np.allclose(bracket(alg, E[0], E[1]), 0.0)

    def test_example_first_bracket(self, inst_1234):
        assert np.allclose(bracket(inst_1234.alg, E[0], E[1]), [1, 2, 3, 4])

    def test_example_vanishing_pair(self):
        for lam in random_lambdas(5, 10):
            alg = build_example(ExampleParams(lam)).alg
            assert np.allclose(bracket(alg, E[1], E[2]), 0.0)
            assert np.allclose(bracket(alg, E[0], E[3]), 0.0)

    def test_antisymmetry(self, inst_1234):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.normal(size=(2, 4))
            assert np.allclose(
                bracket(inst_1234.alg, u, v), -bracket(inst_1234.alg, v, u)
            )

    def test_bilinearity(self, inst_1234):
        rng = np.random.default_rng(2)
        u, v, w = rng.normal(size=(3, 4))
        a, b = 2.0, -3.5
        assert np.allclose(
            bracket(inst_1234.alg, a * u + b * w, v),
            a * bracket(inst_1234.alg, u, v) + b * bracket(inst_1234.alg, w, v),
        )

    def test_dimension_mismatch(self, inst_1234):
        with pytest.raises(errors.DimensionMismatch):
            bracket(inst_1234.alg, np.zeros(3), np.zeros(4))


class TestJacobi:
    def test_abelian(self):
        assert jacobi_defect(LieFrameAlgebra.abelian(4).c) == 0.0

    def test_example_family_point(self, inst_1234):
        assert jacobi_defect(inst_1234.alg.c) <= 1e-9

    def test_example_family_sweep(self):
        for lam in random_lambdas(17, 100):
            alg = build_example(ExampleParams(lam)).alg
            assert jacobi_defect(alg.c) <= 1e-9

    def test_non_lie_table_has_positive_defect(self):
        # [X1,X2]=X2, [X1,X3]=X3, [X2,X3]=X1 closes on the plane it rotates,
        # so the cyclic sum on (1,2,3) is 2*X1
        alg = LieFrameAlgebra.from_brackets(
            4, {(0, 1): E[1], (0, 2): E[2], (1, 2): E[0]}
        )
        expected = brute_force_jacobi_defect(alg)
        assert expected > 0.0
        assert jacobi_defect(alg.c) == pytest.approx(expected)
        assert jacobi_defect(alg.c) == pytest.approx(2.0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c = rng.normal(size=(4, 4, 4))
            c = c - np.swapaxes(c, 0, 1)
            alg = LieFrameAlgebra(4, c)
            assert jacobi_defect(alg.c) == pytest.approx(brute_force_jacobi_defect(alg))

    def test_antisymmetry_enforced(self):
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = 1.0  # no compensating c[1,0,2]
        with pytest.raises(errors.GeometryError):
            LieFrameAlgebra(4, c)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_dimension_must_be_even_and_at_least_four(self, dim):
        with pytest.raises(errors.BadDimension):
            LieFrameAlgebra.abelian(dim)

    def test_shape_must_match_dimension(self):
        with pytest.raises(errors.ShapeMismatch):
            LieFrameAlgebra(4, np.zeros((4, 4, 3)))


def span_projector(rows):
    if rows.shape[0] == 0:
        return np.zeros((rows.shape[1], rows.shape[1]))
    return rows.T @ rows


class TestDerivedSubalgebra:
    def test_abelian_is_trivial(self):
        assert derived_bases(LieFrameAlgebra.abelian(4))[0].shape[0] == 0

    def test_single_parameter_example(self, inst_1000):
        # brackets are multiples of X1 and X4
        basis = derived_bases(inst_1000.alg)[0]
        assert basis.shape[0] == 2
        proj = span_projector(basis)
        assert np.allclose(proj @ E[0], E[0])
        assert np.allclose(proj @ E[3], E[3])
        assert np.allclose(proj @ E[1], 0.0)

    def test_generic_example_is_two_dimensional(self, inst_1234):
        basis = derived_bases(inst_1234.alg)[0]
        assert basis.shape[0] == 2
        # both generating bracket vectors lie in the span
        proj = span_projector(basis)
        for vec in (np.array([1.0, 2, 3, 4]), np.array([4.0, -3, 2, -1])):
            assert np.max(np.abs(proj @ vec - vec)) < 1e-9

    def test_rows_are_orthonormal(self, inst_1234):
        basis = derived_bases(inst_1234.alg)[0]
        assert np.allclose(basis @ basis.T, np.eye(basis.shape[0]))

    def test_closed_forms_complete_the_derived_basis(self, inst_1234):
        derived, closed = derived_bases(inst_1234.alg)
        both = np.vstack([derived, closed])
        assert np.allclose(both @ both.T, np.eye(4))
        assert np.max(np.abs(inst_1234.c @ closed.T)) < 1e-9
