import numpy as np
import pytest

from prodgeo import errors
from prodgeo.conformal import (
    ConformalDeformation,
    closed_form_basis,
    closedness_defect,
    conformal_curvature_residual,
    conformal_weyl_residual,
    deformed_geometry,
    random_closed_form,
    require_closed,
    transform_D,
    transform_lee,
    transform_levi_civita,
)
from prodgeo.example import ExampleParams, build_example
from prodgeo.levicivita import (
    compatibility_defect,
    cov_deriv_components,
    levi_civita_coeffs,
    lee_form,
    structure_tensor_F,
    torsion_defect,
)
from prodgeo.natural import connection_D
from prodgeo.pipeline import analyze_instance
from prodgeo.tensors import CO, DenseTensor, max_abs
from tests.conftest import random_lambdas

E = np.eye(4)


def lee_of(inst):
    nabla = levi_civita_coeffs(inst)
    return lee_form(inst, structure_tensor_F(inst, nabla)), nabla


class TestClosedness:
    def test_annihilator_annihilates_brackets(self):
        for lam in random_lambdas(151, 25):
            alg = build_example(ExampleParams(lam)).alg
            for row in closed_form_basis(alg):
                assert closedness_defect(alg, row) <= 1e-9

    def test_single_parameter_case(self, inst_1000):
        assert closedness_defect(inst_1000.alg, [0, 1, 0, 0]) == 0.0
        assert closedness_defect(inst_1000.alg, [1, 0, 0, 0]) == pytest.approx(1.0)

    def test_require_closed_raises(self, inst_1000):
        with pytest.raises(errors.NotClosed):
            require_closed(inst_1000.alg, [1, 0, 0, 0])

    def test_deformation_wrapper_holds_components(self, inst_1000):
        d = ConformalDeformation(alpha=DenseTensor(4, (CO,), [0, 1, 0, 0]))
        assert d.basepoint_normalized
        assert d.closedness_defect(inst_1000.alg) == 0.0
        bad = ConformalDeformation(alpha=DenseTensor(4, (CO,), [1, 0, 0, 0]))
        assert bad.closedness_defect(inst_1000.alg) == pytest.approx(1.0)


class TestTransformLeviCivita:
    def test_zero_form_is_identity(self, inst_1234):
        nabla = levi_civita_coeffs(inst_1234)
        out = transform_levi_civita(nabla, np.zeros(4), inst_1234.metric)
        assert max_abs(out.gamma - nabla.gamma) == 0.0

    def test_hand_expanded_component(self, inst_1000):
        # along the closed direction X2: stretch twice, subtract the gradient
        nabla = levi_civita_coeffs(inst_1000)
        out = transform_levi_civita(nabla, [0, 1, 0, 0], inst_1000.metric)
        assert np.allclose(out.gamma[1, 1] - nabla.gamma[1, 1], [0, 1, 0, 0])

    def test_result_torsion_free(self):
        rng = np.random.default_rng(157)
        for lam in random_lambdas(163, 50):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            nabla = levi_civita_coeffs(inst)
            out = transform_levi_civita(nabla, alpha, inst.metric, inst.alg)
            assert torsion_defect(out, inst.alg) <= 1e-9

    def test_compatible_with_scaled_metric_at_base_point(self, inst_1234):
        # parallelism of the scaled metric needs its directional derivatives
        rng = np.random.default_rng(11)
        alpha = random_closed_form(inst_1234.alg, rng)
        nabla = levi_civita_coeffs(inst_1234)
        out = transform_levi_civita(nabla, alpha, inst_1234.metric, inst_1234.alg)
        dg_partial = 2.0 * np.einsum("i,jk->ijk", alpha, inst_1234.g)
        dg = dg_partial + cov_deriv_components(out.gamma, inst_1234.g, (CO, CO))
        assert max_abs(dg) <= 1e-9
        assert compatibility_defect(out, inst_1234.metric) > 0.1  # without them it is not

    def test_rejects_non_closed_form(self, inst_1000):
        nabla = levi_civita_coeffs(inst_1000)
        with pytest.raises(errors.NotClosed):
            transform_levi_civita(nabla, [1, 0, 0, 0], inst_1000.metric, inst_1000.alg)


class TestTransformLee:
    def test_zero_form_is_identity(self, inst_1234):
        lee, _ = lee_of(inst_1234)
        out = transform_lee(
            lee.theta_components, lee.omega_components, np.zeros(4),
            inst_1234.structure, inst_1234.metric,
        )
        assert np.allclose(out.theta_bar.components, lee.theta_components)

    def test_hand_expanded_values(self, inst_1000):
        lee, _ = lee_of(inst_1000)
        out = transform_lee(
            lee.theta_components, lee.omega_components, [0, 1, 0, 0],
            inst_1000.structure, inst_1000.metric,
        )
        assert np.allclose(out.theta_bar.components, [0, 0, 0, 8])
        assert out.theta_bar.components[1] == pytest.approx(0.0)

    def test_duality_at_base_point(self):
        rng = np.random.default_rng(167)
        for lam in random_lambdas(173, 25):
            inst = build_example(ExampleParams(lam))
            lee, _ = lee_of(inst)
            alpha = random_closed_form(inst.alg, rng)
            out = transform_lee(
                lee.theta_components, lee.omega_components, alpha,
                inst.structure, inst.metric,
            )
            assert np.allclose(
                inst.g @ out.omega_bar.components, out.theta_bar.components
            )

    def test_matches_from_scratch_lee_form(self):
        rng = np.random.default_rng(179)
        for lam in random_lambdas(181, 50):
            inst = build_example(ExampleParams(lam))
            lee, _ = lee_of(inst)
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            out = transform_lee(
                lee.theta_components, lee.omega_components, alpha,
                inst.structure, inst.metric,
            )
            assert max_abs(out.theta_bar.components - geo.lee.theta_components) <= 1e-9
            assert max_abs(out.omega_bar.components - geo.lee.omega_components) <= 1e-9


class TestTransformD:
    def test_zero_form_is_identity(self, inst_1234):
        d = connection_D(inst_1234)
        assert max_abs(transform_D(d, np.zeros(4)).gamma - d.coeffs.gamma) == 0.0

    def test_hand_expanded_component(self, inst_1000):
        d = connection_D(inst_1000)
        out = transform_D(d, [0, 1, 0, 0])
        assert np.allclose(out.gamma[1, 2], [0, 0, 1, 0])  # X3 along X2 picks up X3

    def test_matches_from_scratch_construction(self):
        rng = np.random.default_rng(191)
        for lam in random_lambdas(193, 50):
            inst = build_example(ExampleParams(lam))
            d = connection_D(inst)
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert max_abs(transform_D(d, alpha).gamma - geo.D.coeffs.gamma) <= 1e-9


class TestCurvatureInvariance:
    def test_generic_point_with_annihilator_form(self, inst_1234):
        basis = closed_form_basis(inst_1234.alg)
        assert basis.shape[0] == 2
        for row in basis:
            residual = conformal_curvature_residual(analyze_instance(inst_1234), row)
            assert residual <= 1e-9

    def test_zero_form(self, inst_1234):
        assert conformal_curvature_residual(analyze_instance(inst_1234), np.zeros(4)) == 0.0

    def test_sweep(self):
        rng = np.random.default_rng(197)
        for lam in random_lambdas(199, 100):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            assert conformal_curvature_residual(analyze_instance(inst), alpha) <= 1e-9

    def test_rejects_non_closed(self, inst_1000):
        with pytest.raises(errors.NotClosed):
            conformal_curvature_residual(analyze_instance(inst_1000), [1, 0, 0, 0])


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
        from prodgeo.structure import ProductStructure, RpmInstance, validate_structure
        from prodgeo.tensors import MetricTensor

        e = np.eye(6)
        alg = LieFrameAlgebra.from_brackets(6, {(0, 1): e[2], (3, 4): e[5]})
        inst = RpmInstance(
            alg=alg,
            metric=MetricTensor.from_matrix(np.eye(6)),
            structure=ProductStructure(np.diag([1.0, 1, 1, -1, -1, -1])),
        )
        assert validate_structure(inst).ok
        return inst

    def test_base_point_is_structure_parallel_with_curvature(self):
        a = analyze_instance(self.heisenberg_product())
        assert a.flags.is_w0 and a.flags.is_w1 and a.flags.is_product
        assert max_abs(a.R.components) == pytest.approx(0.75)
        assert max_abs(a.W.components) > 0.5  # not conformally flat
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
            assert max_abs(geo.Rprime.components) == pytest.approx(0.75)
            assert max_abs(geo.W.components) > 0.5
            assert verify_curvature_relation(
                geo.R, geo.Rprime, geo.S, inst.metric, inst.n
            ) <= 1e-9
            rel = ricci_scalar_relation(
                geo.ricci.rho, geo.ricci_prime.rho, geo.ricci.tau, geo.ricci_prime.tau, geo.S,
                inst.metric, inst.n,
            )
            assert rel.ricci_residual <= 1e-9 and rel.scalar_residual <= 1e-9
            assert max_abs(geo.W.components - geo.Wprime.components) <= 1e-9
            assert geo.flags.conformal_class_residual <= 1e-9
            crit = p_curvature_criterion(inst, geo.nabla, geo.D, geo.lee.theta_components, geo.Rprime)
            assert crit.equivalence_holds and crit.closedness_agrees

    def test_natural_curvature_invariant_but_levi_civita_curvature_not(self):
        inst = self.heisenberg_product()
        alpha = np.array([0.6, -0.3, 0.0, 0.25, 0.5, 0.0])
        assert conformal_curvature_residual(analyze_instance(inst), alpha) <= 1e-12
        geo = deformed_geometry(inst, alpha)
        nabla = levi_civita_coeffs(inst)
        from prodgeo.levicivita import curvature_tensor

        r = curvature_tensor(nabla, inst.alg, inst.metric)
        assert max_abs(geo.R.components - r.components) > 0.1


class TestClassClosure:
    def test_deformed_instances_stay_in_class(self):
        rng = np.random.default_rng(229)
        for lam in random_lambdas(233, 50):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert geo.flags.conformal_class_residual <= 1e-9

    def test_degenerate_instance_leaves_parallel_subclass(self, inst_zero):
        # rescaling the structure-parallel case produces a nonzero Lee form:
        # membership in the conformal class is kept, parallelism is not
        alpha = np.array([1.0, -0.5, 2.0, 0.25])  # everything is closed here
        geo = deformed_geometry(inst_zero, alpha)
        assert geo.flags.conformal_class_residual <= 1e-12
        assert max_abs(geo.lee.theta_components) > 1.0
        assert max_abs(geo.F.components) > 0.1
