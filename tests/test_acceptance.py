"""Acceptance battery: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Criterion 9b is the space-form identity R = (tau/12) pi1 at
unit parameters, and the family does not satisfy it: the golden tables
carry curvature cross terms such as R_1213 = lambda1*lambda4, where pi1 is
zero, and an off-diagonal Ricci tensor (entries +-2 lambda_i lambda_j), so
the metric is not Einstein and is a space form only at lambda = 0.  At unit
parameters all six basis-plane sectional curvatures equal tau/12 = -2, and
that is all.  9b therefore asserts what the tables force: equal basis-plane
curvatures, a residual R - (tau/12) pi1 equal to the cross-term part of the
golden curvature table, and a non-Einstein Ricci tensor.  An exact sympy
oracle, built from the brackets without the package's kernels, proves the
same statements as polynomial identities in symbolic lambda.
"""

import itertools

import numpy as np
import pytest

from prodgeo import levicivita, natural
from prodgeo.conformal import (
    conformal_curvature_residual,
    deformed_geometry,
    random_closed_form,
    transform_D,
    transform_lee,
)
from prodgeo.example import (
    ExampleParams,
    build_example,
    golden_tables,
)
from prodgeo.liealg import jacobi_defect
from prodgeo.pipeline import analyze_instance
from prodgeo.structure import nijenhuis_tensor
from prodgeo.tensors import max_abs
from tests.conftest import curvature_flags, random_lambdas, table_deviation, table_report
from tests.reference import (
    abelian_structure_defect,
    connection_from_torsion,
    pi1_tensor,
    torsion_of_D,
    transform_lee_dual,
)

EPS = 1e-9
SPOT = ExampleParams((1.0, 2.0, 3.0, 4.0))


def conclude(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def generated_instances(seed: int, count: int):
    """Family instances plus conformally rescaled companions."""
    rng = np.random.default_rng(seed)
    for lam in random_lambdas(seed + 1, count):
        inst = build_example(ExampleParams(lam))
        alpha = random_closed_form(inst.alg, rng)
        yield inst, analyze_instance(inst, EPS), deformed_geometry(inst, alpha, EPS)


def test_c01_golden_table_reproduction():
    report = table_report(SPOT, EPS)
    ok = table_deviation(report) <= EPS
    a = analyze_instance(build_example(SPOT), EPS)
    ok &= a.ricci.tau == pytest.approx(-180.0, abs=EPS)
    ok &= np.allclose(a.lee.theta, [16, -12, -8, 4], atol=EPS)
    ok &= a.ricci.rho[0, 0] == pytest.approx(-42.0, abs=EPS)
    ok &= a.ricci.rho[0, 1] == pytest.approx(24.0, abs=EPS)
    for lam in random_lambdas(300, 200):
        ok &= table_deviation(table_report(ExampleParams(lam), EPS)) <= EPS
    conclude("1 golden-table reproduction (spot values and 200 random points)", ok)


def test_c02_flat_natural_connection():
    ok = True
    for lam in [SPOT.lam, (0.0, 0.0, 0.0, 0.0)] + random_lambdas(310, 200):
        a = analyze_instance(build_example(ExampleParams(lam)), EPS)
        ok &= max_abs(a.Rprime) <= EPS
    conclude("2 natural connection is flat on the family", ok)


def test_c03_conformal_flatness():
    ok = True
    for lam in [SPOT.lam] + random_lambdas(320, 200):
        a = analyze_instance(build_example(ExampleParams(lam)), EPS)
        ok &= max_abs(a.W) <= EPS
    conclude("3 Weyl tensor vanishes on the family", ok)


def test_c04_curvature_relation():
    a = analyze_instance(build_example(SPOT), EPS)
    ok = a.S.trace_S == pytest.approx(120.0, abs=EPS)
    for inst, analysis, geo in generated_instances(330, 100):
        ok &= analysis.curvature_relation_residual <= EPS
        ok &= analysis.ricci_relation["ricci_relation"] <= EPS
        ok &= analysis.ricci_relation["scalar_relation"] <= EPS
        ok &= natural.verify_curvature_relation(geo.R, geo.Rprime, geo.S, inst.g) <= EPS
        rel = natural.ricci_scalar_relation(
            geo.ricci.rho, geo.ricci_prime.rho, geo.ricci.tau, geo.ricci_prime.tau, geo.S,
            inst.g,
        )
        ok &= rel["ricci_relation"] <= EPS and rel["scalar_relation"] <= EPS
    conclude("4 curvature relation and its contractions (family and rescaled)", ok)


def test_c05_weyl_invariance():
    ok = True
    for inst, analysis, geo in generated_instances(340, 100):
        ok &= analysis.weyl_invariance_residual <= EPS
        ok &= geo.weyl_invariance_residual <= EPS
    conclude("5 Weyl tensors of the two connections coincide", ok)


def test_c06_conformal_curvature_invariance():
    rng = np.random.default_rng(350)
    ok = True
    for lam in random_lambdas(351, 100):
        inst = build_example(ExampleParams(lam))
        a = analyze_instance(inst, EPS)
        alpha = random_closed_form(inst.alg, rng)
        gamma_bar = transform_D(a.D, alpha)
        ok &= conformal_curvature_residual(a, gamma_bar) <= EPS
        geo = deformed_geometry(inst, alpha, EPS)
        ok &= max_abs(gamma_bar - geo.D.gamma) <= EPS
    conclude("6 natural curvature invariant under conformal rescaling (100 pairs)", ok)


def test_c07_curvature_type_biconditional():
    ok = True
    for inst, analysis, geo in generated_instances(360, 100):
        for a, crit in (
            (analysis, analysis.p_criterion),
            (geo, natural.p_curvature_criterion(inst, geo.grad_theta, geo.dtheta, geo.Rprime)),
        ):
            ok &= a.agree(crit["dtheta_symmetry"], crit["bianchi_rprime"])
            ok &= a.agree(crit["closedness"], crit["dtheta_symmetry"])
    conclude("7 curvature-type criterion biconditional and closedness form", ok)


def test_c08_parallel_torsion_equivalence():
    ok = True
    for lam in [(0.0, 0.0, 0.0, 0.0)] + random_lambdas(370, 100):
        inst = build_example(ExampleParams(lam))
        a = analyze_instance(inst, EPS)
        p = a.parallel
        verdicts = {
            p["dt"] <= EPS,
            p["dtheta"] <= EPS,
            p["gradient_identity"] <= EPS,
        }
        ok &= len(verdicts) == 1
        ok &= a.flags["torsion_parallel"] == all(abs(v) <= EPS for v in lam)
    conclude("8 parallel-torsion triple equivalence; verdict exactly on degenerate parameters", ok)


def test_c09_constant_curvature_flag_agreement():
    ok = True
    targeted = [(1.0, 2.0, 2.0, 1.0), (1.0, 2.0, 1.0, 2.0), (1.0, -1.0, 1.0, 1.0)]
    for lam in targeted + random_lambdas(380, 200):
        checks, _, _ = curvature_flags(ExampleParams(lam), EPS)
        ok &= all(checks.values())
    flags = curvature_flags(ExampleParams(targeted[0]), EPS)[1]
    ok &= flags["const_invariant"] and not flags["const_sectional"]
    flags = curvature_flags(ExampleParams(targeted[1]), EPS)[1]
    ok &= flags["const_anti_invariant"] and not flags["const_invariant"]
    flags = curvature_flags(ExampleParams(targeted[2]), EPS)[1]
    ok &= flags["const_sectional"]
    conclude("9a constant-curvature flags agree both ways (200 random + targeted)", ok)


def test_c09_space_form_identity_at_unit_lambda():
    # the identity R = (tau/12) pi1 is refuted by the source tables (module
    # docstring); assert what they force instead.  Expected values come from
    # the golden tables, never from the pipeline.
    params = ExampleParams((1.0, 1.0, 1.0, 1.0))
    inst = build_example(params)
    tables = golden_tables(params)
    a = analyze_instance(inst, EPS)
    basis = np.eye(4)

    ok = tables.tau == -24.0
    ok &= a.ricci.tau == pytest.approx(tables.tau, abs=EPS)

    golden_k = {**tables.k_inv, **tables.k_anti}
    ok &= sorted(golden_k) == [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for (i, j), expected in golden_k.items():
        ok &= expected == tables.tau / 12.0
        k = levicivita.sectional_curvature(a.R, inst.g, i - 1, j - 1)
        ok &= k == pytest.approx(expected, abs=EPS)

    # entries of the golden table on the planes {i, j} = {k, l} are the ones
    # pi1 can match; everything else is a cross term
    same_plane = (np.einsum("ik,jl->ijkl", basis, basis) + np.einsum("il,jk->ijkl", basis, basis)) > 0
    cross = np.where(same_plane, 0.0, tables.R)
    ok &= cross[0, 1, 0, 2] == 1.0 and max_abs(cross) == 1.0
    pi1 = pi1_tensor(inst.g)
    ok &= max_abs(a.R - (tables.tau / 12.0) * pi1 - cross) <= EPS

    off_diagonal = tables.rho - np.diag(np.diag(tables.rho))
    ok &= np.all(np.diag(tables.rho) == tables.tau / 4.0)
    ok &= max_abs(off_diagonal) == 2.0
    ok &= max_abs(a.ricci.rho - (tables.tau / 4.0) * inst.g - off_diagonal) <= EPS

    residual = max_abs(a.R - (a.ricci.tau / 12.0) * pi1)
    ok &= residual == pytest.approx(max_abs(cross), abs=EPS) and residual > EPS
    conclude(
        f"9b space-form identity refuted at unit parameters "
        f"(residual {residual:.3e} = largest golden cross term)",
        ok,
    )


# Lagrange basis on {-1, 0, 1}, one factor per parameter
_LAGRANGE = {-1: lambda x: x * (x - 1) / 2, 0: lambda x: 1 - x**2, 1: lambda x: x * (x + 1) / 2}


def _golden_polynomials(sp, lam, entries):
    """Golden-table entries as exact polynomials in the symbols ``lam``.

    ``entries`` maps the tables to a dict of values.  Every golden entry has
    degree at most 2 in each parameter, so its values on the grid
    {-1, 0, 1}^4 determine it by Lagrange interpolation; the interpolants are
    also checked against the tables at an off-grid point.
    """
    polys = {}
    for point in itertools.product((-1, 0, 1), repeat=4):
        weight = sp.expand(sp.Mul(*(_LAGRANGE[p](x) for p, x in zip(point, lam))))
        for key, value in entries(golden_tables(ExampleParams(point))).items():
            assert value == round(value)
            polys[key] = polys.get(key, 0) + int(round(value)) * weight
    polys = {key: sp.expand(poly) for key, poly in polys.items()}
    subs = dict(zip(lam, SPOT.lam))
    for key, value in entries(golden_tables(SPOT)).items():
        assert float(polys[key].subs(subs)) == value
    return polys


def test_c09_space_form_oracle_symbolic():
    # exact oracle for 9b with symbolic parameters, built from the family's
    # brackets alone: orthonormal Koszul Gamma_ij^k = (c_ij^k - c_jk^i + c_ki^j)/2,
    # R(X_i, X_j) = [nabla_i, nabla_j] - nabla_[X_i, X_j], R_ijkl = g(R(X_i, X_j)X_k, X_l)
    sp = pytest.importorskip("sympy")
    lam = sp.symbols("lambda1:5", real=True)
    l1, l2, l3, l4 = lam
    n = 4
    v12 = [l1, l2, l3, l4]
    v13 = [l4, -l3, l2, -l1]
    brackets = {(0, 1): v12, (2, 3): [-v for v in v12], (0, 2): v13, (1, 3): v13}
    c = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), vec in brackets.items():
        for k in range(n):
            c[i][j][k] = vec[k]
            c[j][i][k] = -vec[k]
    ok = True
    for point in (SPOT.lam, (0.5, -1.0, 2.0, -3.0)):
        subs = dict(zip(lam, point))
        numeric = np.array([[[float(e.subs(subs)) for e in row] for row in plane] for plane in c])
        ok &= np.array_equal(numeric, build_example(ExampleParams(point)).alg.c)

    idx = range(n)
    gamma = [
        [[sp.Rational(1, 2) * (c[i][j][k] - c[j][k][i] + c[k][i][j]) for k in idx] for j in idx]
        for i in idx
    ]
    r = {
        (i, j, k, m): sp.expand(
            sum(
                gamma[j][k][a] * gamma[i][a][m]
                - gamma[i][k][a] * gamma[j][a][m]
                - c[i][j][a] * gamma[a][k][m]
                for a in idx
            )
        )
        for i, j, k, m in itertools.product(idx, repeat=4)
    }
    ok &= r[0, 1, 0, 2] == l1 * l4 and r[0, 1, 2, 0] == -l1 * l4
    rho = sp.Matrix(n, n, lambda j, k: sum(r[i, j, k, i] for i in idx))
    tau = sp.expand(rho.trace())
    ok &= tau == -6 * (l1**2 + l2**2 + l3**2 + l4**2)

    # (a) the six basis sectional curvatures K(X_i, X_j) = R_ijji
    golden_k = _golden_polynomials(sp, lam, lambda t: {**t.k_inv, **t.k_anti})
    ok &= len(golden_k) == 6
    for (i, j), expected in golden_k.items():
        ok &= sp.expand(r[i - 1, j - 1, j - 1, i - 1] - expected) == 0

    # (b) the Ricci tensor
    golden_rho = _golden_polynomials(sp, lam, lambda t: dict(np.ndenumerate(t.rho)))
    ok &= all(sp.expand(rho[j, k] - expected) == 0 for (j, k), expected in golden_rho.items())

    # (c) Einstein, and so a space form, only at lambda = 0
    einstein = {sp.expand(e) for e in rho - (tau / 4) * sp.eye(n)} - {0}
    ok &= sp.solve(sorted(einstein, key=str), lam, dict=True) == [dict.fromkeys(lam, 0)]
    conclude("9b symbolic oracle: curvatures and Ricci match the tables; Einstein only at 0", ok)


def test_c10_structural_property_suite():
    ok = True
    for lam in random_lambdas(390, 100):
        inst = build_example(ExampleParams(lam))
        a = analyze_instance(inst, EPS)
        ok &= jacobi_defect(inst.alg.c) <= EPS
        ok &= max_abs(nijenhuis_tensor(inst)) <= EPS
        ok &= abelian_structure_defect(inst) <= EPS
        ok &= a.class_residual <= EPS
        ok &= a.naturality["natural_connection_preserves_metric"] <= EPS
        ok &= a.naturality["natural_connection_preserves_structure"] <= EPS
        ids = a.torsion_identities
        ok &= ids["torsion_cyclic_sum"] <= EPS and ids["torsion_structure_cyclic_sum"] <= EPS
        ok &= ids["torsion_nested_cyclic_sum"] <= EPS
        ok &= ids["potential_is_transposed_torsion"] <= EPS
    conclude("10 structural property suite over 100 random instances", ok)


def test_c11_typo_resolution_oracles():
    rng = np.random.default_rng(400)
    ok = True
    for lam in random_lambdas(401, 100):
        inst = build_example(ExampleParams(lam))
        nabla = levicivita.levi_civita_coeffs(inst)
        f = levicivita.structure_tensor_F(inst, nabla)
        lee = levicivita.lee_form(inst, f)
        theta = lee.theta

        built = connection_from_torsion(inst, torsion_of_D(inst, theta))
        ok &= max_abs(built.Q - natural.direct_potential(inst, theta)) <= EPS

        alpha = random_closed_form(inst.alg, rng)
        geo = deformed_geometry(inst, alpha, EPS)
        theta_bar = transform_lee(theta, alpha, inst.p)
        omega_bar = transform_lee_dual(lee.omega, alpha, inst.p, inst.g_inv)
        ok &= max_abs(theta_bar - geo.lee.theta) <= EPS
        ok &= max_abs(omega_bar - geo.lee.omega) <= EPS
    conclude("11 torsion-potential and Lee-transform resolution oracles", ok)
