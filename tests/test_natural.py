from types import SimpleNamespace

import numpy as np
import pytest

from prodgeo.conformal import deformed_geometry, random_closed_form
from prodgeo.example import ExampleParams, build_example
from prodgeo.levicivita import (
    cov_deriv_components,
    levi_civita_coeffs,
    lee_form,
    ricci_and_scalar,
    structure_tensor_F,
    weyl_tensor,
)
from prodgeo.natural import (
    NaturalConnection,
    curvature_Rprime,
    direct_potential,
    flat_D_report,
    naturality_defects,
    p_curvature_criterion,
    parallel_torsion_defects,
    recomputed_torsion,
    ricci_scalar_relation,
    s_tensor,
    verify_curvature_relation,
)
from prodgeo.structure import RpmInstance
from prodgeo.tensors import CO, DEFAULT_EPS, max_abs
from prodgeo.pipeline import analyze_instance
from tests.conftest import frame_changed_dim8, hyperbolic, moved_frame, random_lambdas, weyl_difference
from tests.reference import (
    TorsionParams,
    canonical_params,
    compatibility_defect,
    connection_from_torsion,
    pi1_tensor,
    potential_from_torsion,
    torsion_family,
    torsion_of_D,
)


def full(inst):
    nabla = levi_civita_coeffs(inst)
    f = structure_tensor_F(inst, nabla)
    theta = lee_form(inst, f).theta
    return nabla, theta


class TestTorsionFamily:
    def test_zero_params_match_distinguished_torsion(self, inst_1234):
        _, theta = full(inst_1234)
        fam = torsion_family(inst_1234, theta, TorsionParams(0.0, 0.0))
        assert max_abs(fam - torsion_of_D(inst_1234, theta)) <= 1e-12

    def test_canonical_member(self, inst_1234):
        _, theta = full(inst_1234)
        t = torsion_family(inst_1234, theta, canonical_params(inst_1234.n))
        comp = t
        assert max_abs(comp + np.einsum("jik->ijk", comp)) <= 1e-12
        # differs from the distinguished torsion whenever the Lee form is nonzero
        assert max_abs(comp - torsion_of_D(inst_1234, theta)) > 0.1

    def test_vanishing_lee_form(self, inst_zero):
        _, theta = full(inst_zero)
        for params in (TorsionParams(0, 0), TorsionParams(1.5, -0.25), canonical_params(2)):
            assert max_abs(torsion_family(inst_zero, theta, params)) == 0.0

    def test_every_member_yields_natural_connection(self, inst_1234):
        _, theta = full(inst_1234)
        rng = np.random.default_rng(13)
        for _ in range(10):
            params = TorsionParams(*rng.uniform(-1, 1, 2))
            conn = connection_from_torsion(inst_1234, torsion_family(inst_1234, theta, params))
            dg, dp = naturality_defects(conn, inst_1234).values()
            assert dg <= 1e-9 and dp <= 1e-9


class TestConnectionFromTorsion:
    def test_half_coefficient_reproduces_direct_potential(self):
        for lam in random_lambdas(73, 50):
            inst = build_example(ExampleParams(lam))
            _, theta = full(inst)
            built = connection_from_torsion(inst, torsion_of_D(inst, theta))
            direct = direct_potential(inst, theta)
            assert max_abs(built.Q - direct) <= 1e-9

    def test_zero_torsion_gives_levi_civita(self, inst_1234):
        built = connection_from_torsion(inst_1234, np.zeros((4, 4, 4)))
        assert max_abs(built.Q) == 0.0
        assert max_abs(built.gamma - levi_civita_coeffs(inst_1234)) == 0.0

    def test_potential_is_transposed_torsion(self, inst_1234):
        _, theta = full(inst_1234)
        built = connection_from_torsion(inst_1234, torsion_of_D(inst_1234, theta))
        t = built.T
        assert max_abs(built.Q - np.einsum("kji->ijk", t)) <= 1e-12

    def test_torsion_reconstruction_round_trip(self):
        for lam in random_lambdas(79, 50):
            inst = build_example(ExampleParams(lam))
            _, theta = full(inst)
            t = torsion_of_D(inst, theta)
            built = connection_from_torsion(inst, t)
            assert max_abs(recomputed_torsion(built.gamma, inst) - t) <= 1e-9

    def test_potential_of_any_torsion_is_metric_and_reproduces_it(self):
        # pure index algebra: Q[i,j,k] + Q[i,k,j] = 0 and Q[i,j,k] - Q[j,i,k] = T[i,j,k]
        rng = np.random.default_rng(83)
        t = rng.normal(size=(6, 6, 6))
        t = t - np.swapaxes(t, 0, 1)
        q = potential_from_torsion(t)
        assert max_abs(q + np.swapaxes(q, 1, 2)) <= 1e-12
        assert max_abs(q - np.swapaxes(q, 0, 1) - t) <= 1e-12

    def test_arbitrary_torsion_round_trip_in_moved_frame(self):
        # a torsion that is not of the distinguished family, in a frame where g != I
        inst = frame_changed_dim8(2)
        t = np.random.default_rng(89).normal(size=(8, 8, 8))
        t = t - np.swapaxes(t, 0, 1)
        built = connection_from_torsion(inst, t)
        assert compatibility_defect(built.gamma, inst.g) <= 1e-9
        assert max_abs(recomputed_torsion(built.gamma, inst) - t) <= 1e-9


class TestConnectionD:
    def test_single_parameter_components(self, inst_1000):
        d = analyze_instance(inst_1000).D
        assert np.allclose(d.gamma[2, 3], [-1, 0, 0, 0])  # X4 along X3 gives -X1

    def test_other_parameter_components(self):
        inst = build_example(ExampleParams((0, 0, 3, 0)))
        d = analyze_instance(inst).D
        assert np.allclose(d.gamma[0, 0], [0, 0, 0, -3])  # X1 along X1 gives -3 X4

    def test_degenerate_case_reduces_to_levi_civita(self, inst_zero):
        d = analyze_instance(inst_zero).D
        assert max_abs(d.gamma - levi_civita_coeffs(inst_zero)) == 0.0

    def test_lee_derivative_relation(self):
        # derivative along the natural connection differs from the Levi-Civita
        # one by the closed-form correction in g, theta, and the structure
        for lam in random_lambdas(83, 30):
            inst = build_example(ExampleParams(lam))
            nabla, theta = full(inst)
            lhs = analyze_instance(inst).dtheta
            grad = cov_deriv_components(nabla, theta, (CO,))
            omega = inst.g_inv @ theta
            theta_p_omega = float(theta @ inst.p @ omega)
            correction = (
                inst.g * theta_p_omega - np.einsum("j,i->ij", theta @ inst.p, theta)
            ) / (2.0 * inst.n)
            assert max_abs(lhs - (grad - correction)) <= 1e-9

    def test_naturality(self):
        for lam in random_lambdas(89, 100):
            inst = build_example(ExampleParams(lam))
            dg, dp = naturality_defects(analyze_instance(inst).D, inst).values()
            assert dg <= 1e-9 and dp <= 1e-9


class TestTorsionOfD:
    def test_single_parameter_values(self, inst_1000):
        _, theta = full(inst_1000)
        t = torsion_of_D(inst_1000, theta)
        t_up = np.einsum("ijl,lk->ijk", t, inst_1000.g_inv)
        assert np.allclose(t_up[0, 1], [-1, 0, 0, 0])
        assert np.allclose(t_up[1, 3], [0, 0, 0, 1])

    def test_generic_values(self, inst_1234):
        _, theta = full(inst_1234)
        t_up = np.einsum(
            "ijl,lk->ijk", torsion_of_D(inst_1234, theta), inst_1234.g_inv
        )
        assert np.allclose(t_up[2, 3], [0, 0, 3, 4])

    def test_vanishing_lee_form(self, inst_zero):
        _, theta = full(inst_zero)
        assert max_abs(torsion_of_D(inst_zero, theta)) == 0.0

    def test_structural_identities(self):
        for lam in random_lambdas(97, 100):
            inst = build_example(ExampleParams(lam))
            ids = analyze_instance(inst).torsion_identities
            assert ids["torsion_cyclic_sum"] <= 1e-9
            assert ids["torsion_structure_cyclic_sum"] <= 1e-9
            assert ids["torsion_nested_cyclic_sum"] <= 1e-9
            assert ids["potential_is_transposed_torsion"] <= 1e-9
            assert ids["torsion_lee_orthogonality"] <= 1e-9


class TestCurvatureRelation:
    def test_flat_family(self):
        for lam in random_lambdas(101, 100):
            inst = build_example(ExampleParams(lam))
            a = analyze_instance(inst)
            assert max_abs(a.Rprime) <= 1e-9
            assert a.curvature_relation_residual <= 1e-9
            assert a.ricci_relation["ricci_relation"] <= 1e-9
            assert a.ricci_relation["scalar_relation"] <= 1e-9

    def test_degenerate_case_exact(self, inst_zero):
        a = analyze_instance(inst_zero)
        assert a.curvature_relation_residual == 0.0
        assert max_abs(a.Rprime - a.R) == 0.0

    def test_relation_on_deformed_instances(self):
        rng = np.random.default_rng(103)
        for lam in random_lambdas(107, 25):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            residual = verify_curvature_relation(geo.R, geo.Rprime, geo.S, inst.g)
            assert residual <= 1e-9
            rel = ricci_scalar_relation(
                geo.ricci.rho, geo.ricci_prime.rho, geo.ricci.tau, geo.ricci_prime.tau, geo.S,
                inst.g,
            )
            assert rel["ricci_relation"] <= 1e-9 and rel["scalar_relation"] <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_moved_frame_relations_hold_with_non_identity_metric(self, seed):
        # g != I, P != P^T, D theta != 0 and tr S = 120: S built with P^T, or its
        # trace taken with g for g^-1, breaks all three relations on these seeds
        b = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
        a = analyze_instance(moved_frame(b.alg.c, b.p, seed))
        assert abs(a.S.trace_S) > 1 and max_abs(a.dtheta) > 10
        assert a.curvature_relation_residual <= 1e-10
        assert a.ricci_relation["ricci_relation"] <= 1e-10
        assert a.ricci_relation["scalar_relation"] <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_moved_frame_weyl_residual_is_that_of_the_two_weyl_tensors(self, seed):
        # g != I: the residual, the Weyl tensor of R - R', is W - W' by linearity
        b = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
        a = analyze_instance(moved_frame(b.alg.c, b.p, seed))
        difference, bound = weyl_difference(a)
        assert max_abs(a.R) > 1 and abs(a.weyl_invariance_residual - difference) <= bound

    def test_trace_spot_value(self, inst_1234):
        a = analyze_instance(inst_1234)
        assert s_tensor(inst_1234, a.dtheta, a.lee.norm_sq).trace_S == pytest.approx(120.0)

    def test_s_vanishes_with_lee_form(self, inst_zero):
        assert max_abs(analyze_instance(inst_zero).S.S) == 0.0

    def test_metric_part_of_s(self, inst_1000):
        # Lee norm 16 over 4n = 8 gives twice the identity
        a = analyze_instance(inst_1000)
        _, theta = full(inst_1000)
        dtheta_part = cov_deriv_components(a.D.gamma, theta, (CO,)) @ inst_1000.p
        assert np.allclose(a.S.S - dtheta_part, 2.0 * np.eye(4))


class TestNaturalCurvature:
    def test_family_flat(self):
        for lam in random_lambdas(109, 50):
            inst = build_example(ExampleParams(lam))
            d = analyze_instance(inst).D
            rp = curvature_Rprime(d, inst.c, inst.g)
            assert max_abs(rp) <= 1e-9

    def test_degenerate_case_equals_levi_civita_curvature(self, inst_zero):
        from prodgeo.levicivita import curvature_tensor

        d = analyze_instance(inst_zero).D
        rp = curvature_Rprime(d, inst_zero.c, inst_zero.g)
        nabla = levi_civita_coeffs(inst_zero)
        r = curvature_tensor(nabla, inst_zero.c, inst_zero.g)
        assert max_abs(rp - r) == 0.0

    def test_canonical_connection_curvature_properties(self, inst_1234):
        # a second natural connection with generically non-flat curvature:
        # skew symmetries and structure invariance must hold regardless
        _, theta = full(inst_1234)
        conn = connection_from_torsion(
            inst_1234, torsion_family(inst_1234, theta, canonical_params(inst_1234.n))
        )
        rp = curvature_Rprime(conn, inst_1234.c, inst_1234.g)
        assert max_abs(rp) > 1.0
        assert max_abs(rp + np.einsum("jikl->ijkl", rp)) <= 1e-9
        assert max_abs(rp + np.einsum("ijlk->ijkl", rp)) <= 1e-9
        p = inst_1234.p
        assert max_abs(np.einsum("ijab,ak,bl->ijkl", rp, p, p) - rp) <= 1e-9


def is_riemannian_P_tensor(comp, p, eps: float = DEFAULT_EPS) -> SimpleNamespace:
    """The defects of the four curvature-type axioms of a rank-4 tensor, by plain einsums."""
    skew12 = max_abs(comp + np.einsum("jikl->ijkl", comp))
    skew34 = max_abs(comp + np.einsum("ijlk->ijkl", comp))
    bianchi = max_abs(comp + np.einsum("jkil->ijkl", comp) + np.einsum("kijl->ijkl", comp))
    p_invariance = max_abs(np.einsum("ijab,ak,bl->ijkl", comp, p, p) - comp)
    return SimpleNamespace(
        skew12=skew12,
        skew34=skew34,
        bianchi=bianchi,
        p_invariance=p_invariance,
        verdict=max(skew12, skew34, bianchi, p_invariance) <= eps,
    )


def hyp_product(dim: int, seed: int, a: float = 1.3, b: float = 0.7) -> RpmInstance:
    """The product of two hyperbolic factors, of curvatures -a^2 and -b^2, moved by a random frame change.

    P = diag(I_n, -I_n) in the orthonormal frame, so the instance is W0: D is the
    Levi-Civita connection and R' = R, which is not zero.
    """
    n = dim // 2
    c = np.zeros((dim,) * 3)
    for first, last, coeff in ((0, n, a), (n, dim, b)):
        for i in range(first + 1, last):
            c[first, i, i], c[i, first, i] = coeff, -coeff
    return moved_frame(c, np.diag([1.0] * n + [-1.0] * n), seed)


class TestPTensorPredicate:
    def test_zero_tensor(self, inst_1234):
        report = is_riemannian_P_tensor(np.zeros((4,) * 4), inst_1234.p)
        assert report.verdict

    def test_space_form_tensor_is_not_structure_invariant(self, inst_1234):
        # the invariance axiom transforms only the last two slots, and the
        # space-form tensor fails it: pairing slots across the two factors
        # flips against pairing them straight (defect 2 on unit diagonals)
        report = is_riemannian_P_tensor(pi1_tensor(inst_1234.g), inst_1234.p)
        assert report.skew12 <= 1e-12 and report.skew34 <= 1e-12
        assert report.bianchi <= 1e-12
        assert report.p_invariance == pytest.approx(2.0)
        assert not report.verdict

    def test_natural_curvature_of_second_connection_is_invariant(self, inst_1234):
        _, theta = full(inst_1234)
        conn = connection_from_torsion(
            inst_1234, torsion_family(inst_1234, theta, canonical_params(inst_1234.n))
        )
        rp = curvature_Rprime(conn, inst_1234.c, inst_1234.g)
        report = is_riemannian_P_tensor(rp, inst_1234.p)
        assert report.skew12 <= 1e-9 and report.skew34 <= 1e-9
        assert report.p_invariance <= 1e-9

    def test_levi_civita_curvature_is_not(self, inst_1000):
        from prodgeo.levicivita import curvature_tensor

        nabla = levi_civita_coeffs(inst_1000)
        r = curvature_tensor(nabla, inst_1000.c, inst_1000.g)
        report = is_riemannian_P_tensor(r, inst_1000.p)
        # frozen magnitude: the (X2,X4) diagonal maps to its own negative
        assert report.p_invariance == pytest.approx(2.0)
        assert not report.verdict
        assert report.skew12 <= 1e-12 and report.bianchi <= 1e-12

    @pytest.mark.parametrize("dim, seed", [(4, 0), (4, 3), (6, 1), (6, 4)])
    def test_naturality_implies_three_axioms(self, dim, seed):
        # p_curvature_criterion checks only the Bianchi axiom: skew in the first
        # pair holds for any curvature, and Dg = 0 and DP = 0 give the second skew
        # and P-invariance, so they are at roundoff wherever both naturality checks pass
        a = analyze_instance(hyp_product(dim, seed))
        assert max(a.naturality.values()) <= DEFAULT_EPS
        report = is_riemannian_P_tensor(a.Rprime, a.inst.p)
        scale = max_abs(a.Rprime) * max(1.0, max_abs(a.inst.p)) ** 2
        assert max_abs(a.Rprime) > 1.0
        for defect in (report.skew12, report.skew34, report.p_invariance):
            assert defect <= 16 * dim * np.finfo(float).eps * scale


class TestCriterionAndParallelTorsion:
    def test_flat_family_satisfies_criterion(self, inst_1234):
        a = analyze_instance(inst_1234)
        rp = curvature_Rprime(a.D, inst_1234.c, inst_1234.g)
        crit = p_curvature_criterion(inst_1234, a.grad_theta, a.dtheta, rp)
        assert crit["dtheta_symmetry"] <= 1e-9
        assert crit["bianchi_rprime"] <= 1e-9
        assert a.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])
        assert a.agree(crit["closedness"], crit["dtheta_symmetry"])

    def test_degenerate_case(self, inst_zero):
        a = analyze_instance(inst_zero)
        rp = curvature_Rprime(a.D, inst_zero.c, inst_zero.g)
        crit = p_curvature_criterion(inst_zero, a.grad_theta, a.dtheta, rp)
        assert crit["dtheta_symmetry"] == 0.0
        assert crit["bianchi_rprime"] == 0.0
        assert a.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])

    def test_deformed_sweep(self):
        rng = np.random.default_rng(113)
        for lam in random_lambdas(127, 25):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            crit = p_curvature_criterion(inst, geo.grad_theta, geo.dtheta, geo.Rprime)
            assert geo.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])
            assert geo.agree(crit["closedness"], crit["dtheta_symmetry"])

    def test_perturbed_connection_fails_both_sides(self, inst_1234):
        # breaking naturality must break the symmetry and the cyclic identity
        # together, which is exactly what the biconditional asserts
        a = analyze_instance(inst_1234)
        gamma = np.array(a.D.gamma)
        gamma[0, 1, 2] += 0.35
        bent = NaturalConnection(gamma=gamma, Q=a.D.Q, T=a.D.T)
        rp = curvature_Rprime(bent, inst_1234.c, inst_1234.g)
        dtheta = cov_deriv_components(bent.gamma, a.lee.theta, (CO,))
        crit = p_curvature_criterion(inst_1234, a.grad_theta, dtheta, rp)
        assert crit["dtheta_symmetry"] > 1e-3
        assert crit["bianchi_rprime"] > 1e-3
        assert a.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])

    @pytest.mark.parametrize("seed", range(6))
    def test_moved_frame_criterion_holds_with_non_identity_metric(self, seed):
        # g != I and D theta != 0 here, so dtheta P and dtheta P^T differ: a P/P^T
        # slip in the symmetry defect reads 49-178 on these seeds
        b = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
        inst = moved_frame(b.alg.c, b.p, seed)
        a = analyze_instance(inst)
        crit = a.p_criterion
        assert max_abs(a.dtheta) > 10 and not np.allclose(inst.g, np.eye(4))
        assert crit["dtheta_symmetry"] <= 1e-12
        assert crit["bianchi_rprime"] <= 1e-12
        assert crit["closedness"] <= 1e-12
        assert a.theorem_checks["curvature_type_criterion_agreement"]
        assert a.theorem_checks["curvature_type_closedness_agreement"]

    @pytest.mark.parametrize("dim", [6, 8])
    def test_hyperbolic_torsion_is_parallel_where_n_squared_is_not_2n(self, dim):
        # n^2 != 2n, g != I and P != P^T: the gradient identity with 1/n^2 for 1/(2n),
        # or with theta(P^T omega) for theta(P omega), leaves a defect of order theta^2
        inst = hyperbolic(dim)
        assert not np.allclose(inst.p, inst.p.T) and not np.allclose(inst.g, np.eye(dim))
        a = analyze_instance(inst)
        report = a.parallel
        assert max_abs(a.lee.theta) > 1
        assert report["dt"] <= 1e-10
        assert report["dtheta"] <= 1e-10
        assert report["gradient_identity"] <= 1e-10
        assert a.flags["torsion_parallel"] and a.theorem_checks["parallel_torsion_equivalence"]

    def test_parallel_torsion_only_in_degenerate_case(self):
        for lam in random_lambdas(131, 50):
            a = analyze_instance(build_example(ExampleParams(lam)))
            report = parallel_torsion_defects(a.inst, a.D, a.t_sharp, a.lee, a.grad_theta, a.dtheta)
            assert a.vanishes(report["dt"]) == all(abs(v) < 1e-12 for v in lam)
            verdicts = {
                report["dt"] <= 1e-9,
                report["dtheta"] <= 1e-9,
                report["gradient_identity"] <= 1e-9,
            }
            assert len(verdicts) == 1  # triple equivalence

    def test_equivalence_is_judged_against_the_given_tolerance(self, inst_1234):
        a = analyze_instance(inst_1234)
        low, high = sorted(a.parallel.values())[::2]
        assert 1.0 < low < high
        assert a.theorem_checks["parallel_torsion_equivalence"]
        assert not analyze_instance(inst_1234, (low + high) / 2).theorem_checks["parallel_torsion_equivalence"]
        assert analyze_instance(inst_1234, 2 * high).theorem_checks["parallel_torsion_equivalence"]

    def test_generic_point_all_defects_positive(self, inst_1234):
        a = analyze_instance(inst_1234)
        report = a.parallel
        assert report["dt"] > 1.0
        assert report["dtheta"] > 1.0
        assert report["gradient_identity"] > 1.0
        assert not a.flags["torsion_parallel"]


class TestFlatReport:
    def test_generic_family_point(self, inst_1234):
        a = analyze_instance(inst_1234)
        report = a.flat
        assert a.flags["flat_natural_connection"]
        assert report["weyl_max"] <= 1e-9
        assert not a.flags["torsion_parallel"]
        assert "space_form_residual" not in report
        assert "ricci_residual" not in report
        assert "parallel_curvature_defect" not in report

    def test_degenerate_point(self, inst_zero):
        a = analyze_instance(inst_zero)
        report = a.flat
        assert a.flags["flat_natural_connection"] and a.flags["torsion_parallel"]
        assert report["space_form_residual"] == 0.0
        assert report["ricci_residual"] == 0.0
        assert report["scalar_residual"] == 0.0
        assert report["parallel_curvature_defect"] == 0.0
        assert report["parallel_relation_residual"] == 0.0
        # the sign of tau says nothing where the Lee form vanishes
        assert a.ricci.tau == 0.0 and a.vanishes(a.lee.norm_sq)

    def test_flat_connection_forces_conformal_flatness(self):
        # zero natural curvature, then zero natural Weyl tensor, then by
        # invariance zero Levi-Civita Weyl tensor: verified numerically
        for lam in random_lambdas(137, 25):
            inst = build_example(ExampleParams(lam))
            a = analyze_instance(inst)
            w_prime = weyl_tensor(
                a.Rprime, a.ricci_prime.rho, a.ricci_prime.tau, inst.g
            )
            assert max_abs(a.Rprime) <= 1e-9
            assert max_abs(w_prime) <= 1e-9
            assert max_abs(a.W) <= 1e-9

    def test_synthetic_flat_parallel_instance(self, inst_1234):
        # fabricate the flat-with-parallel-torsion regime by feeding the
        # degenerate geometry a hand-built space-form curvature, so the
        # conditional branch is exercised with a nonzero Lee form
        a = analyze_instance(inst_1234)
        theta_omega = a.lee.norm_sq
        n = inst_1234.n
        r = -(theta_omega / (4 * n * n)) * pi1_tensor(inst_1234.g)
        zero = np.zeros((4,) * 4)
        degenerate_d = NaturalConnection(
            gamma=np.zeros((4, 4, 4)), Q=np.zeros((4, 4, 4)), T=np.zeros((4, 4, 4))
        )
        ricci = ricci_and_scalar(r, inst_1234.g_inv)
        w = weyl_tensor(r, ricci.rho, ricci.tau, inst_1234.g)
        parallel = parallel_torsion_defects(
            inst_1234, degenerate_d, degenerate_d.T, a.lee, a.grad_theta, np.zeros((4, 4))
        )
        assert a.vanishes(parallel["dt"])
        report = flat_D_report(inst_1234, degenerate_d, r, ricci, zero, w, theta_omega, True, True)
        assert report["space_form_residual"] <= 1e-9
        assert report["ricci_residual"] <= 1e-9
        assert report["scalar_residual"] <= 1e-9
        assert report["parallel_curvature_defect"] <= 1e-9
        assert ricci.tau < 0.0 and not a.vanishes(theta_omega)

    def test_hyperbolic_instance_reaches_the_flat_parallel_branch(self, hyperbolic_dim8):
        # a real instance, not a fabricated curvature, in a non-orthonormal frame
        inst, a_coeff = hyperbolic_dim8
        a = analyze_instance(inst)
        report = a.flat
        assert a.class_residual <= DEFAULT_EPS
        assert a.flags["flat_natural_connection"] is True and a.flags["torsion_parallel"]
        dim = inst.dim
        assert a.ricci.tau == pytest.approx(-dim * (dim - 1) * a_coeff**2, rel=1e-12)
        assert a.ricci.tau < 0.0 and not a.vanishes(a.lee.norm_sq)
        assert report["space_form_residual"] <= 1e-9
        assert report["ricci_residual"] <= 1e-9
        assert report["scalar_residual"] <= 1e-9
        assert report["parallel_curvature_defect"] <= 1e-9
        assert report["parallel_relation_residual"] <= 1e-9
        # the per-direction maximum is the maximum of the whole derivative
        full = cov_deriv_components(a.D.gamma, a.R, (CO,) * 4)
        assert report["parallel_curvature_defect"] == max_abs(full)


class TestWeylInvariance:
    def test_generic_point(self, inst_1234):
        a = analyze_instance(inst_1234)
        assert a.weyl_invariance_residual <= 1e-9

    def test_degenerate_point_exact(self, inst_zero):
        assert analyze_instance(inst_zero).weyl_invariance_residual == 0.0

    def test_deformed_sweep(self):
        rng = np.random.default_rng(139)
        for lam in random_lambdas(149, 25):
            inst = build_example(ExampleParams(lam))
            alpha = random_closed_form(inst.alg, rng)
            geo = deformed_geometry(inst, alpha)
            assert geo.weyl_invariance_residual <= 1e-9
