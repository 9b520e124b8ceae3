import numpy as np
import pytest

from prodgeo import errors
from prodgeo.example import ExampleParams, build_example
from prodgeo.levicivita import (
    class_flags,
    conformal_class_rhs,
    cov_deriv_components,
    curvature_tensor,
    lee_form,
    levi_civita_coeffs,
    ricci_and_scalar,
    sectional_curvature,
    structure_tensor_F,
    weyl_tensor,
)
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance
from prodgeo.tensors import CO, CONTRA, max_abs, pi1_tensor
from tests.conftest import frame_changed_dim8, psi1, random_lambdas
from tests.reference import abelian, compatibility_defect, torsion_defect

E = np.eye(4)


def flags_of(inst):
    f = structure_tensor_F(inst, levi_civita_coeffs(inst))
    return class_flags(inst, f, lee_form(inst, f).theta)


def abelian_orthonormal():
    return RpmInstance(abelian(4), np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0]))


def pipeline(inst):
    conn = levi_civita_coeffs(inst)
    f = structure_tensor_F(inst, conn)
    lee = lee_form(inst, f)
    r = curvature_tensor(conn, inst.c, inst.g)
    return conn, f, lee, r


class TestLeviCivitaCoeffs:
    def test_abelian_flat(self):
        assert max_abs(levi_civita_coeffs(abelian_orthonormal())) == 0.0

    def test_single_parameter_components(self, inst_1000):
        gamma = levi_civita_coeffs(inst_1000)
        assert np.allclose(gamma[0, 0], [0, -1, 0, 0])  # X1 along X1 bends to -X2

    def test_generic_component(self, inst_1234):
        gamma = levi_civita_coeffs(inst_1234)
        assert np.allclose(gamma[0, 1], [1, 0, 3, 0])  # X2 along X1 gives X1 + 3 X3

    def test_torsion_free_and_compatible(self):
        for lam in random_lambdas(41, 100):
            inst = build_example(ExampleParams(lam))
            conn = levi_civita_coeffs(inst)
            assert torsion_defect(conn, inst.alg) <= 1e-9
            assert compatibility_defect(conn, inst.g) <= 1e-9

    def test_non_orthonormal_metric_still_compatible(self):
        g = np.array([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]], dtype=float)
        inst = RpmInstance(build_example(ExampleParams((1, 2, 3, 4))).alg, g, np.diag([1.0, 1.0, -1.0, -1.0]))
        conn = levi_civita_coeffs(inst)
        assert torsion_defect(conn, inst.alg) <= 1e-12
        assert compatibility_defect(conn, inst.g) <= 1e-12

    def test_matches_literal_assembly(self):
        # independent route: literal triple loop over the frame
        g = np.array([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]], dtype=float)
        inst = RpmInstance(build_example(ExampleParams((1, -2, 0.5, 3))).alg, g, np.diag([1.0, 1.0, -1.0, -1.0]))
        dim, c = inst.dim, inst.c
        low = np.zeros((dim, dim, dim))
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    low[i, j, k] = 0.5 * (
                        c[i, j] @ g[:, k] + c[k, i] @ g[:, j] + c[k, j] @ g[:, i]
                    )
        expected = low @ inst.g_inv
        assert np.allclose(levi_civita_coeffs(inst), expected)

    def test_unusable_inverse_rejected(self, inst_1234):
        # positive definite to Cholesky, but its inverse overflows to non-finite entries
        with pytest.raises(errors.SingularMetric):
            RpmInstance(inst_1234.alg, 1e-310 * np.eye(4), inst_1234.p)


class TestCovariantDerivative:
    def test_metric_is_parallel(self, inst_1234):
        conn = levi_civita_coeffs(inst_1234)
        dg = cov_deriv_components(conn, inst_1234.g, (CO, CO))
        assert max_abs(dg) <= 1e-12

    def test_lee_form_derivative_entries(self, inst_1000):
        conn, _, lee, _ = pipeline(inst_1000)
        dtheta = cov_deriv_components(conn, lee.theta, (CO,))
        # along X1: X2-slot picks -theta(X1) = 0, X1-slot picks theta(X2) = 0
        assert dtheta[0, 1] == pytest.approx(0.0)
        assert dtheta[0, 0] == pytest.approx(0.0)

    def test_direction_slot_is_first(self, inst_1234):
        conn, _, lee, _ = pipeline(inst_1234)
        dtheta = cov_deriv_components(conn, lee.theta, (CO,))
        manual = -np.einsum("ijm,m->ij", conn, lee.theta)
        assert np.allclose(dtheta, manual)

    def test_mixed_variance_matches_literal_loops(self, inst_1234):
        # independent route for a vector-valued 2-tensor: literal slot loops
        rng = np.random.default_rng(21)
        t = rng.normal(size=(4, 4, 4))
        gamma = levi_civita_coeffs(inst_1234)
        expected = np.zeros((4, 4, 4, 4))
        for x in range(4):
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        value = 0.0
                        for m in range(4):
                            value -= gamma[x, i, m] * t[m, j, k]
                            value -= gamma[x, j, m] * t[i, m, k]
                            value += gamma[x, m, k] * t[i, j, m]
                        expected[x, i, j, k] = value
        out = cov_deriv_components(gamma, t, (CO, CO, CONTRA))
        assert np.allclose(out, expected)


class TestStructureTensor:
    def test_degenerate_family_point_vanishes(self, inst_zero):
        conn = levi_civita_coeffs(inst_zero)
        assert max_abs(structure_tensor_F(inst_zero, conn)) == 0.0

    def test_matches_lee_expression(self, inst_1234):
        _, f, lee, _ = pipeline(inst_1234)
        rhs = conformal_class_rhs(inst_1234, lee.theta)
        assert max_abs(f - rhs) <= 1e-12

    def test_symmetry_properties(self):
        for lam in random_lambdas(43, 30):
            inst = build_example(ExampleParams(lam))
            _, f, _, _ = pipeline(inst)
            comp = f
            p = inst.p
            assert max_abs(comp - np.einsum("ikj->ijk", comp)) <= 1e-9
            assert max_abs(comp + np.einsum("iab,aj,bk->ijk", comp, p, p)) <= 1e-9

    def test_structure_argument_flip(self, inst_1234):
        _, f, _, _ = pipeline(inst_1234)
        p = inst_1234.p
        px1 = p @ E[0]
        lhs = np.einsum("ijk,i,j,k->", f, E[0], E[0], px1)
        rhs = np.einsum("ijk,i,j,k->", f, E[0], px1, E[0])
        assert lhs == pytest.approx(-rhs)


class TestLeeForm:
    def test_generic_values(self, inst_1234):
        _, _, lee, _ = pipeline(inst_1234)
        assert np.allclose(lee.theta, [16, -12, -8, 4])

    def test_vanishes_with_structure_tensor(self, inst_zero):
        _, _, lee, _ = pipeline(inst_zero)
        assert max_abs(lee.theta) == 0.0

    def test_norm(self, inst_1000):
        _, _, lee, _ = pipeline(inst_1000)
        assert lee.norm_sq == pytest.approx(16.0)

    def test_dual_consistency(self):
        for lam in random_lambdas(47, 30):
            inst = build_example(ExampleParams(lam))
            _, _, lee, _ = pipeline(inst)
            assert np.allclose(inst.g @ lee.omega, lee.theta)
            assert lee.norm_sq >= 0.0

    def test_closed_form_in_parameters(self):
        for lam in random_lambdas(53, 50):
            inst = build_example(ExampleParams(lam))
            _, _, lee, _ = pipeline(inst)
            l1, l2, l3, l4 = lam
            assert np.allclose(
                lee.theta, [4 * l4, -4 * l3, -4 * l2, 4 * l1], atol=1e-9
            )


class TestClassFlags:
    def test_generic_family_point(self, inst_1234):
        flags = flags_of(inst_1234)
        assert (flags.is_w0, flags.is_w1, inst_1234.nijenhuis_defect <= 1e-9) == (False, True, True)

    def test_degenerate_point(self, inst_zero):
        flags = flags_of(inst_zero)
        assert (flags.is_w0, flags.is_w1, inst_zero.nijenhuis_defect <= 1e-9) == (True, True, True)

    def test_overridden_bracket_leaves_class(self, inst_1000):
        c = np.array(inst_1000.c)
        c[1, 2] = E[0]
        c[2, 1] = -E[0]
        inst = RpmInstance(LieFrameAlgebra(4, c), inst_1000.g, inst_1000.p)
        flags = flags_of(inst)
        assert not flags.is_w1
        # frozen regression value for the characteristic-condition residual
        assert flags.conformal_class_residual == pytest.approx(1.0)

    def test_vanishing_structure_tensor_implies_class_membership(self, inst_zero):
        flags = flags_of(inst_zero)
        assert flags.is_w0 and flags.is_w1


class TestCurvature:
    def test_abelian_flat(self):
        inst = abelian_orthonormal()
        conn = levi_civita_coeffs(inst)
        assert max_abs(curvature_tensor(conn, inst.c, inst.g)) == 0.0

    def test_single_parameter_components(self, inst_1000):
        _, _, _, r = pipeline(inst_1000)
        assert r[0, 1, 0, 1] == pytest.approx(1.0)
        assert r[2, 3, 2, 3] == pytest.approx(0.0)

    def test_cross_component(self):
        inst = build_example(ExampleParams((2, 0, 0, 3)))
        _, _, _, r = pipeline(inst)
        assert r[0, 1, 0, 2] == pytest.approx(6.0)

    def test_curvature_symmetries(self):
        for lam in random_lambdas(59, 100):
            inst = build_example(ExampleParams(lam))
            _, _, _, r = pipeline(inst)
            comp = r
            assert max_abs(comp + np.einsum("jikl->ijkl", comp)) <= 1e-9
            assert max_abs(comp + np.einsum("ijlk->ijkl", comp)) <= 1e-9
            assert max_abs(comp - np.einsum("klij->ijkl", comp)) <= 1e-9
            cyc = comp + np.einsum("jkil->ijkl", comp) + np.einsum("kijl->ijkl", comp)
            assert max_abs(cyc) <= 1e-9


class TestRicci:
    def test_generic_values(self, inst_1234):
        _, _, _, r = pipeline(inst_1234)
        ricci = ricci_and_scalar(r, inst_1234.g_inv)
        assert ricci.rho[0, 0] == pytest.approx(-42.0)
        assert ricci.rho[0, 1] == pytest.approx(24.0)
        assert ricci.tau == pytest.approx(-180.0)

    def test_zero_curvature(self, inst_1234):
        ricci = ricci_and_scalar(np.zeros((4,) * 4), inst_1234.g_inv)
        assert max_abs(ricci.rho) == 0.0 and ricci.tau == 0.0

    def test_symmetric(self):
        for lam in random_lambdas(61, 30):
            inst = build_example(ExampleParams(lam))
            _, _, _, r = pipeline(inst)
            rho = ricci_and_scalar(r, inst.g_inv).rho
            assert max_abs(rho - rho.T) <= 1e-9


class TestSectional:
    def test_invariant_plane_value(self):
        inst = build_example(ExampleParams((1, 1, 1, 1)))
        _, _, _, r = pipeline(inst)
        assert sectional_curvature(r, inst.g, E[0], E[2]) == pytest.approx(-2.0)

    def test_anti_invariant_values(self, inst_1000):
        _, _, _, r = pipeline(inst_1000)
        assert sectional_curvature(r, inst_1000.g, E[0], E[1]) == pytest.approx(-1.0)
        assert sectional_curvature(r, inst_1000.g, E[2], E[3]) == pytest.approx(0.0)

    def test_scale_invariance(self, inst_1234):
        _, _, _, r = pipeline(inst_1234)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u, v = rng.normal(size=(2, 4))
            assert sectional_curvature(r, inst_1234.g, 2.0 * u, v) == pytest.approx(
                sectional_curvature(r, inst_1234.g, u, v)
            )

    def test_degenerate_plane(self, inst_1234):
        _, _, _, r = pipeline(inst_1234)
        with pytest.raises(errors.DegeneratePlane):
            sectional_curvature(r, inst_1234.g, E[0], 2.0 * E[0])
        # the squared area is judged against g(u, u) g(v, v): a short vector spans a plane
        short = np.diag([1.0, 1.0, 1.0, 1e-10])
        assert sectional_curvature(r, short, E[0], E[3]) == r[0, 3, 3, 0] / 1e-10
        assert sectional_curvature(r, 1e-12 * inst_1234.g, E[0], E[1]) == r[0, 1, 1, 0] / 1e-24

    def test_matches_einsum_reference_on_a_non_identity_metric(self):
        inst = frame_changed_dim8()
        _, _, _, r = pipeline(inst)
        g = inst.g

        def reference(u, v):
            area_sq = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
            numer = float(np.einsum("ijkl,i,j,k,l->", r, u, v, v, u))
            # Summation order differs from the reference: allow a few ulps
            # per stage of the largest partial sum.
            size = float(np.einsum("ijkl,i,j,k,l->", np.abs(r), *np.abs([u, v, v, u])))
            return numer / float(area_sq), 64 * np.finfo(float).eps * size / abs(float(area_sq))

        rng = np.random.default_rng(12)
        for _ in range(20):
            u, v = rng.normal(size=(2, 8))
            expected, tol = reference(u, v)
            assert abs(sectional_curvature(r, inst.g, u, v) - expected) <= tol
        basis = np.eye(8)
        for i in range(8):
            for j in range(i + 1, 8):
                expected, _ = reference(basis[i], basis[j])
                assert sectional_curvature(r, inst.g, basis[i], basis[j]) == expected
        with pytest.raises(errors.DegeneratePlane):
            sectional_curvature(r, inst.g, basis[3], -3.0 * basis[3])


class TestCurvatureTypeOperators:
    def test_space_form_tensor_entry(self):
        pi1 = pi1_tensor(np.eye(4))
        assert pi1[0, 1, 1, 0] == pytest.approx(1.0)

    def test_degenerate_arguments_vanish(self):
        pi1 = pi1_tensor(np.eye(4))
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, z, w = rng.normal(size=(3, 4))
            assert np.einsum("ijkl,i,j,k,l->", pi1, x, x, z, w) == pytest.approx(0.0)

    def test_metric_extension_is_twice_space_form(self, inst_1234):
        psi_g = psi1(inst_1234.g, inst_1234.g)
        assert max_abs(psi_g - 2.0 * inst_1234.pi1) <= 1e-12

    def test_zero_input(self, inst_1234):
        assert max_abs(psi1(inst_1234.g, np.zeros((4, 4)))) == 0.0

    def test_first_bianchi_for_symmetric_input(self, inst_1234):
        _, _, _, r = pipeline(inst_1234)
        rho = ricci_and_scalar(r, inst_1234.g_inv).rho
        psi = psi1(inst_1234.g, rho)
        cyc = psi + np.einsum("jkil->ijkl", psi) + np.einsum("kijl->ijkl", psi)
        assert max_abs(cyc) <= 1e-9

    def test_warns_on_non_symmetric_input(self, inst_1234):
        s = np.zeros((4, 4))
        s[0, 1] = 1.0
        with pytest.warns(errors.NonSymmetricInputWarning):
            psi1(inst_1234.g, s)


class TestWeyl:
    def test_family_is_conformally_flat(self):
        for lam in random_lambdas(67, 50):
            inst = build_example(ExampleParams(lam))
            _, _, _, r = pipeline(inst)
            ricci = ricci_and_scalar(r, inst.g_inv)
            w = weyl_tensor(r, ricci.rho, ricci.tau, inst.g)
            assert max_abs(w) <= 1e-9

    def test_space_form_input(self, inst_1234):
        for c in (-2.0, 0.0, 3.5):
            r = c * inst_1234.pi1
            ricci = ricci_and_scalar(r, inst_1234.g_inv)
            w = weyl_tensor(r, ricci.rho, ricci.tau, inst_1234.g)
            assert max_abs(w) <= 1e-12

    def test_trace_free_in_all_pairs(self):
        # a curvature-type tensor that is not conformally flat: perturb the
        # family curvature by a traceless piece through the Weyl projection
        rng = np.random.default_rng(71)
        inst = build_example(ExampleParams((1, 2, 3, 4)))
        _, _, _, r = pipeline(inst)
        s = rng.normal(size=(4, 4))
        s = s + s.T
        bumped = r + psi1(inst.g, s)
        ricci = ricci_and_scalar(bumped, inst.g_inv)
        w = weyl_tensor(bumped, ricci.rho, ricci.tau, inst.g)
        g_inv = inst.g_inv
        for expr in ("il,ijkl->jk", "jl,ijkl->ik", "ik,ijkl->jl", "jk,ijkl->il"):
            assert max_abs(np.einsum(expr, g_inv, w)) <= 1e-9
