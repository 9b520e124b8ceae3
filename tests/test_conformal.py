import numpy as np
import pytest

from prodgeo import errors
from prodgeo.conformal import (
    closedness_defect,
    conformal_checks,
    conformal_curvature_residual,
    conformal_weyl_residual,
    deformed_geometry,
    random_closed_form,
    require_closed,
    transform_D,
    transform_lee,
)
from prodgeo.example import ExampleParams, build_example
from prodgeo.levicivita import (
    cov_deriv_components,
    curvature_components,
    levi_civita_coeffs,
    lee_form,
    structure_tensor_F,
)
from prodgeo.pipeline import analyze_instance
from prodgeo.liealg import derived_bases
from prodgeo.tensors import CO, max_abs
from tests.conftest import frame_changed_dim8, hyperbolic, random_lambdas, weyl_difference
from tests.reference import compatibility_defect, torsion_defect, transform_lee_dual, transform_levi_civita

E = np.eye(4)
EPS = np.finfo(float).eps


def lee_of(inst):
    nabla = levi_civita_coeffs(inst)
    return lee_form(inst, structure_tensor_F(inst, nabla)), nabla


class TestClosedness:
    def test_annihilator_annihilates_brackets(self):
        for lam in random_lambdas(151, 25):
            alg = build_example(ExampleParams(lam)).alg
            for row in derived_bases(alg)[1]:
                assert closedness_defect(alg, row) <= 1e-9

    def test_single_parameter_case(self, inst_1000):
        assert closedness_defect(inst_1000.alg, [0, 1, 0, 0]) == 0.0
        assert closedness_defect(inst_1000.alg, [1, 0, 0, 0]) == pytest.approx(1.0)

    def test_require_closed_raises(self, inst_1000):
        with pytest.raises(errors.NotClosed):
            require_closed(inst_1000.alg, [1, 0, 0, 0])

    def test_each_form_of_a_stack_is_judged_against_its_own_tolerance(self, inst_1000):
        # max|c| = 1: the large closed form alone would raise one tolerance for the
        # whole stack to 1e-9 * 1e7 = 1e-2, above the second form's defect of 1e-3
        stack = [[0, 1e7, 0, 0], [1e-3, 0, 0, 0]]
        assert closedness_defect(inst_1000.alg, stack).tolist() == [0.0, 1e-3]
        with pytest.raises(errors.NotClosed, match=r"bracket defect 1\.000e-03"):
            require_closed(inst_1000.alg, stack)
        assert require_closed(inst_1000.alg, stack[:1]).shape == (1, 4)

    def test_a_nan_defect_does_not_raise(self, inst_1000):
        alpha = require_closed(inst_1000.alg, [[0, 1, 0, 0], [np.nan, 0, 0, 0]])
        assert np.isnan(closedness_defect(inst_1000.alg, alpha)[1])

    def test_rescaling_by_a_non_closed_form_carries_the_closed_form_basis(self, inst_1000):
        with pytest.raises(errors.NotClosed) as caught:
            deformed_geometry(inst_1000, [1, 0, 0, 0])
        basis = caught.value.basis
        assert np.array_equal(basis, derived_bases(inst_1000.alg)[1])
        assert "derived subalgebra" in str(caught.value)
        assert np.array2string(basis, precision=6) in str(caught.value)


class TestTransformLeviCivita:
    def test_zero_form_is_identity(self, inst_1234):
        nabla = levi_civita_coeffs(inst_1234)
        out = transform_levi_civita(nabla, np.zeros(4), inst_1234.g, inst_1234.g_inv)
        assert max_abs(out - nabla) == 0.0

    def test_hand_expanded_component(self, inst_1000):
        # along the closed direction X2: stretch twice, subtract the gradient
        nabla = levi_civita_coeffs(inst_1000)
        out = transform_levi_civita(nabla, [0, 1, 0, 0], inst_1000.g, inst_1000.g_inv)
        assert np.allclose(out[1, 1] - nabla[1, 1], [0, 1, 0, 0])

    def test_result_torsion_free(self):
        rng = np.random.default_rng(157)
        for lam in random_lambdas(163, 50):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            nabla = levi_civita_coeffs(inst)
            out = transform_levi_civita(nabla, alpha, inst.g, inst.g_inv)
            assert torsion_defect(out, inst.alg) <= 1e-9

    def test_compatible_with_scaled_metric_at_base_point(self, inst_1234):
        # parallelism of the scaled metric needs its directional derivatives
        rng = np.random.default_rng(11)
        alpha = random_closed_form(inst_1234.alg, rng)
        nabla = levi_civita_coeffs(inst_1234)
        out = transform_levi_civita(nabla, alpha, inst_1234.g, inst_1234.g_inv)
        dg_partial = 2.0 * np.einsum("i,jk->ijk", alpha, inst_1234.g)
        dg = dg_partial + cov_deriv_components(out, inst_1234.g, (CO, CO))
        assert max_abs(dg) <= 1e-9
        assert compatibility_defect(out, inst_1234.g) > 0.1  # without them it is not


class TestTransformLee:
    def test_zero_form_is_identity(self, inst_1234):
        lee, _ = lee_of(inst_1234)
        out = transform_lee(lee.theta, np.zeros(4), inst_1234.p)
        assert np.allclose(out, lee.theta)

    def test_hand_expanded_values(self, inst_1000):
        lee, _ = lee_of(inst_1000)
        out = transform_lee(lee.theta, [0, 1, 0, 0], inst_1000.p)
        assert np.allclose(out, [0, 0, 0, 8])
        assert out[1] == pytest.approx(0.0)

    def test_duality_at_base_point(self):
        rng = np.random.default_rng(167)
        for lam in random_lambdas(173, 25):
            inst = build_example(ExampleParams(lam))
            lee, _ = lee_of(inst)
            alpha = random_closed_form(inst.alg, rng)
            theta_bar = transform_lee(lee.theta, alpha, inst.p)
            omega_bar = transform_lee_dual(lee.omega, alpha, inst.p, inst.g_inv)
            assert np.allclose(inst.g @ omega_bar, theta_bar)

    def test_matches_from_scratch_lee_form(self):
        rng = np.random.default_rng(179)
        for lam in random_lambdas(181, 50):
            inst = build_example(ExampleParams(lam))
            lee, _ = lee_of(inst)
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            theta_bar = transform_lee(lee.theta, alpha, inst.p)
            omega_bar = transform_lee_dual(lee.omega, alpha, inst.p, inst.g_inv)
            assert max_abs(theta_bar - geo.lee.theta) <= 1e-9
            assert max_abs(omega_bar - geo.lee.omega) <= 1e-9

    @pytest.mark.parametrize("dim", [6, 8])
    def test_hyperbolic_lee_reconstruction_where_n_squared_is_not_2n(self, dim):
        # the Lee form picks up 2n (alpha P); with n^2 for 2n it misses by (n^2 - 2n) |alpha P|
        inst = hyperbolic(dim)
        alpha = 0.7 * inst.alg.closed_forms[0]
        checks = conformal_checks(analyze_instance(inst), deformed_geometry(inst, alpha))
        assert max_abs(alpha @ inst.p) > 0.1
        assert checks["conformal_lee_reconstruction"] <= 1e-10


class TestTransformD:
    def test_zero_form_is_identity(self, inst_1234):
        d = analyze_instance(inst_1234).D
        assert max_abs(transform_D(d, np.zeros(4)) - d.gamma) == 0.0

    def test_hand_expanded_component(self, inst_1000):
        d = analyze_instance(inst_1000).D
        out = transform_D(d, [0, 1, 0, 0])
        assert np.allclose(out[1, 2], [0, 0, 1, 0])  # X3 along X2 picks up X3

    def test_matches_from_scratch_construction(self):
        rng = np.random.default_rng(191)
        for lam in random_lambdas(193, 50):
            inst = build_example(ExampleParams(lam))
            d = analyze_instance(inst).D
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert max_abs(transform_D(d, alpha) - geo.D.gamma) <= 1e-9


def curvature_residual(inst, alpha):
    """``conformal_curvature_residual`` of ``inst`` for the closed form ``alpha``."""
    a = analyze_instance(inst)
    return conformal_curvature_residual(a, transform_D(a.D, alpha))


class TestCurvatureInvariance:
    def test_generic_point_with_annihilator_form(self, inst_1234):
        _, basis = derived_bases(inst_1234.alg)
        assert basis.shape[0] == 2
        for row in basis:
            assert curvature_residual(inst_1234, row) <= 1e-9

    def test_zero_form(self, inst_1234):
        assert curvature_residual(inst_1234, np.zeros(4)) == 0.0

    def test_sweep(self):
        rng = np.random.default_rng(197)
        for lam in random_lambdas(199, 100):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            assert curvature_residual(inst, alpha) <= 1e-9

    def test_non_closed_form_bends_the_curvature(self, inst_1000):
        # the transformation rule leaves the curvature of D invariant only for closed forms
        assert curvature_residual(inst_1000, [1, 0, 0, 0]) > 0.1


class TestResidualsInPlace:
    """Each residual comes from one curvature-difference product; it matches the
    difference of the two whole tensors within roundoff (the sums run in
    another order), closed form or not."""

    @staticmethod
    def weyl_difference_residual(base, rescaled):
        """The Weyl residual from the two Weyl tensors: raised slabs of their difference."""
        return max(max_abs(slab @ base.inst.g_inv) for slab in rescaled.W - base.W)

    @staticmethod
    def weyl_roundoff(base, rescaled):
        # both Weyl tensors are sums at the scale of their curvatures, raised by g^-1
        return 64 * EPS * (max_abs(base.R) + max_abs(rescaled.R)) * max_abs(base.inst.g_inv)

    def test_closed_form_weyl_residual_is_that_of_the_two_weyl_tensors(self):
        inst = frame_changed_dim8()
        base, rescaled = analyze_instance(inst), deformed_geometry(inst, 0.7 * derived_bases(inst.alg)[1][0])
        weyl = conformal_weyl_residual(base, rescaled)
        ref = self.weyl_difference_residual(base, rescaled)
        assert abs(weyl - ref) <= self.weyl_roundoff(base, rescaled)

    def test_non_closed_form_residuals_are_those_of_the_whole_tensors(self, inst_1000):
        # a non-closed form bends both tensors, so the residuals are not roundoff
        alpha = np.array([1.0, 0.5, 0.0, 0.0])
        base, rescaled = analyze_instance(inst_1000), analyze_instance(inst_1000, alpha=alpha)
        gamma_bar = transform_D(base.D, alpha)
        curvature = conformal_curvature_residual(base, gamma_bar)
        weyl = conformal_weyl_residual(base, rescaled)
        c = inst_1000.c
        assert curvature == pytest.approx(
            max_abs(curvature_components(gamma_bar, c) - curvature_components(base.D.gamma, c)), rel=64 * EPS
        )
        with pytest.warns(errors.NonSymmetricInputWarning):  # the rescaled Ricci tensor is not symmetric
            ref = self.weyl_difference_residual(base, rescaled)
        assert abs(weyl - ref) <= self.weyl_roundoff(base, rescaled)
        assert min(curvature, weyl) > 0.1


class TestWeylConformalInvariance:
    def test_example_instance(self, inst_1234):
        rng = np.random.default_rng(211)
        alpha = random_closed_form(inst_1234.alg, rng)
        assert conformal_weyl_residual(
            analyze_instance(inst_1234), deformed_geometry(inst_1234, alpha)
        ) <= 1e-9

    def test_zero_form(self, inst_1234):
        assert conformal_weyl_residual(
            analyze_instance(inst_1234), deformed_geometry(inst_1234, np.zeros(4))
        ) <= 1e-12

    def test_sweep(self):
        rng = np.random.default_rng(223)
        for lam in random_lambdas(227, 50):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            assert conformal_weyl_residual(
                analyze_instance(inst), deformed_geometry(inst, alpha)
            ) <= 1e-9


class TestNontrivialCurvedDeformation:
    """Six-dimensional two-step-nilpotent product: curvature and Weyl tensor
    are nonzero, so the invariance identities are checked with substance
    instead of as zero-equals-zero."""

    @staticmethod
    def heisenberg_product():
        from prodgeo.liealg import LieFrameAlgebra
        from prodgeo.structure import RpmInstance, validate_structure

        e = np.eye(6)
        alg = LieFrameAlgebra.from_brackets(6, {(0, 1): e[2], (3, 4): e[5]})
        inst = RpmInstance(alg, np.eye(6), np.diag([1.0, 1, 1, -1, -1, -1]))
        assert validate_structure(inst).ok
        return inst

    def test_base_point_is_structure_parallel_with_curvature(self):
        a = analyze_instance(self.heisenberg_product())
        flags = a.flags
        assert flags["is_w0"] and flags["is_w1"] and a.inst.nijenhuis_defect <= 1e-9
        assert max_abs(a.R) == pytest.approx(0.75)
        assert max_abs(a.W) > 0.5  # not conformally flat
        assert a.ricci.tau == pytest.approx(-1.0)

    def test_deformed_relations_with_nonzero_curvatures(self):
        from prodgeo.natural import (
            p_curvature_criterion,
            ricci_scalar_relation,
            verify_curvature_relation,
        )

        inst = self.heisenberg_product()
        rng = np.random.default_rng(41)
        for _ in range(10):
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert max_abs(geo.Rprime) == pytest.approx(0.75)
            assert max_abs(geo.W) > 0.5
            assert verify_curvature_relation(
                geo.R, geo.Rprime, geo.S, inst.g
            ) <= 1e-9
            rel = ricci_scalar_relation(
                geo.ricci.rho, geo.ricci_prime.rho, geo.ricci.tau, geo.ricci_prime.tau, geo.S,
                inst.g,
            )
            assert rel["ricci_relation"] <= 1e-9 and rel["scalar_relation"] <= 1e-9
            difference, bound = weyl_difference(geo)
            assert difference <= 1e-9 and abs(geo.weyl_invariance_residual - difference) <= bound
            assert geo.class_residual <= 1e-9
            crit = p_curvature_criterion(inst, geo.grad_theta, geo.dtheta, geo.Rprime)
            assert geo.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])
            assert geo.agree(crit["closedness"], crit["dtheta_symmetry"])

    def test_natural_curvature_invariant_but_levi_civita_curvature_not(self):
        inst = self.heisenberg_product()
        alpha = np.array([0.6, -0.3, 0.0, 0.25, 0.5, 0.0])
        assert curvature_residual(inst, alpha) <= 1e-12
        geo = deformed_geometry(inst, alpha)
        nabla = levi_civita_coeffs(inst)
        from prodgeo.levicivita import curvature_tensor

        r = curvature_tensor(nabla, inst.c, inst.g)
        assert max_abs(geo.R - r) > 0.1


class TestClassClosure:
    def test_deformed_instances_stay_in_class(self):
        rng = np.random.default_rng(229)
        for lam in random_lambdas(233, 50):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert geo.class_residual <= 1e-9

    def test_degenerate_instance_leaves_parallel_subclass(self, inst_zero):
        # rescaling the structure-parallel case produces a nonzero Lee form:
        # membership in the conformal class is kept, parallelism is not
        alpha = np.array([1.0, -0.5, 2.0, 0.25])  # everything is closed here
        geo = deformed_geometry(inst_zero, alpha)
        assert geo.class_residual <= 1e-12
        assert max_abs(geo.lee.theta) > 1.0
        assert max_abs(geo.F) > 0.1
