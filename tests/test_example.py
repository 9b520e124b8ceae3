import json

import numpy as np
import pytest

from prodgeo import cli
from prodgeo.example import (
    ExampleParams,
    build_example,
    golden_tables,
)
from prodgeo.pipeline import analyze_instance
from prodgeo.liealg import jacobi_defect
from prodgeo.structure import validate_structure
from tests.conftest import curvature_flags, random_lambdas, table_deviation, table_report
from tests.reference import abelian_structure_defect, bracket

E = np.eye(4)


def verify_paper(capsys, lam) -> tuple[int, dict]:
    """Exit code and JSON report of an in-process ``verify-paper`` run at ``lam``."""
    code = cli.main(["verify-paper", f"--lambda={','.join(repr(float(v)) for v in lam)}", "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestBuildExample:
    def test_generic_point_is_valid(self, inst_1234):
        assert validate_structure(inst_1234).ok
        assert abelian_structure_defect(inst_1234) <= 1e-9
        flags = analyze_instance(inst_1234).flags
        assert flags["is_w1"] and inst_1234.nijenhuis_defect <= 1e-9 and not flags["is_w0"]

    def test_degenerate_point_flags(self, inst_zero):
        flags = analyze_instance(inst_zero).flags
        assert flags["is_w0"] and flags["is_w1"] and inst_zero.nijenhuis_defect <= 1e-9

    def test_cross_bracket(self, inst_1000):
        assert np.allclose(bracket(inst_1000.alg, E[0], E[2]), [0, 0, 0, -1])

    def test_jacobi_over_parameter_space(self):
        for lam in random_lambdas(239, 200):
            assert jacobi_defect(build_example(ExampleParams(lam)).c) <= 1e-9


class TestGoldenTables:
    def test_scalar_curvature_value(self):
        assert golden_tables(ExampleParams((1, 2, 3, 4))).tau == pytest.approx(-180.0)

    def test_invariant_plane_values(self):
        t = golden_tables(ExampleParams((1, 1, 1, 1)))
        assert t.k_inv[(1, 3)] == pytest.approx(-2.0)
        assert t.k_inv[(2, 4)] == pytest.approx(-2.0)

    def test_degenerate_point_all_zero(self):
        t = golden_tables(ExampleParams((0, 0, 0, 0)))
        for table in (t.theta, t.nabla, t.R, t.rho, t.D, t.T_D):
            assert np.max(np.abs(table)) == 0.0
        assert t.tau == 0.0

    def test_completion_respects_symmetries(self):
        t = golden_tables(ExampleParams((1.5, -2.0, 0.5, 3.0)))
        assert np.allclose(t.R, np.einsum("klij->ijkl", t.R))
        assert np.allclose(t.R, -np.einsum("jikl->ijkl", t.R))
        assert np.allclose(t.R, -np.einsum("ijlk->ijkl", t.R))
        assert np.allclose(t.rho, t.rho.T)
        assert np.allclose(t.T_D, -np.swapaxes(t.T_D, 0, 1))


class TestVerifyAgainstTables:
    def test_generic_point_passes(self, capsys):
        assert verify_paper(capsys, (1, 2, 3, 4))[0] == 0
        report = table_report(ExampleParams((1, 2, 3, 4)))
        assert table_deviation(report) <= 1e-9

    def test_degenerate_point_passes_with_flag(self, capsys):
        # the report checks no torsion verdict at lambda = 0: assert the flag
        code, data = verify_paper(capsys, (0, 0, 0, 0))
        assert code == 0 and data["flags"]["torsion_parallel"] is True
        assert ExampleParams((0, 0, 0, 0)).degenerate
        assert analyze_instance(build_example(ExampleParams((0, 0, 0, 0)))).ricci.tau == 0.0

    @pytest.mark.parametrize("lam", [(1, 1, 1e200, 1), (1e200, 1, 1, 1)], ids=str)
    def test_a_null_basis_curvature_fails_its_golden_check(self, capsys, lam):
        # lambda^2 overflows, so some basis planes are degenerate and their curvatures null;
        # builtin max would keep or drop such a NaN by its position among the planes
        code, data = verify_paper(capsys, lam)
        checks = {c["name"]: c for c in data["checks"]}
        for name in ("table_k_inv", "table_k_anti"):
            assert checks[name]["defect"] is None and not checks[name]["pass"], name
        assert code == data["exit_status"] == 3

    def test_random_sweep(self, capsys):
        for lam in random_lambdas(241, 200):
            assert verify_paper(capsys, lam)[0] == 0, lam

    def test_checklist_content(self):
        report = table_report(ExampleParams((1, 2, 3, 4)))
        assert analyze_instance(build_example(ExampleParams((1, 2, 3, 4)))).ricci.tau == pytest.approx(-180.0)
        assert report["natural_curvature_zero"] <= 1e-9
        assert report["weyl_zero"] <= 1e-9


class TestConstantCurvatureFlags:
    def test_invariant_only_case(self):
        checks, flags, _ = curvature_flags(ExampleParams((1, 2, 2, 1)))
        assert flags["const_invariant"] and not flags["const_sectional"]
        assert checks["constant_invariant_agreement"] and checks["constant_sectional_agreement"]

    def test_anti_invariant_only_case(self):
        checks, flags, _ = curvature_flags(ExampleParams((1, 2, 1, 2)))
        assert flags["const_anti_invariant"] and not flags["const_invariant"]
        assert checks["constant_anti_invariant_agreement"] and checks["constant_invariant_agreement"]

    def test_constant_case_with_mixed_signs(self):
        from prodgeo.levicivita import (
            curvature_tensor,
            levi_civita_coeffs,
            sectional_curvature,
        )

        params = ExampleParams((1, -1, 1, 1))
        checks, flags, _ = curvature_flags(params)
        assert flags["const_sectional"] and checks["constant_sectional_agreement"]
        inst = build_example(params)
        r = curvature_tensor(levi_civita_coeffs(inst), inst.c, inst.g)
        for i in range(4):
            for j in range(i + 1, 4):
                assert sectional_curvature(r, inst.g, i, j) == pytest.approx(-2.0)

    def test_agreement_over_random_parameters(self):
        for lam in random_lambdas(251, 200):
            checks, _, _ = curvature_flags(ExampleParams(lam))
            assert checks["constant_invariant_agreement"]
            assert checks["constant_anti_invariant_agreement"]
            assert checks["constant_sectional_agreement"]

    def test_space_form_residual_reported(self):
        # the equal-squares locus pins every basis-plane curvature, yet the
        # curvature tensor keeps its parameter cross terms: the space-form
        # comparison is reported, not asserted
        _, flags, residual = curvature_flags(ExampleParams((1, 1, 1, 1)))
        assert flags["const_sectional"]
        assert residual == pytest.approx(1.0)
        assert curvature_flags(ExampleParams((0, 0, 0, 0)))[2] == 0.0
        assert curvature_flags(ExampleParams((1, 2, 3, 4)))[2] is None  # the basis curvatures differ

    @pytest.mark.parametrize("lam, cross_terms", [((1, 1, 1, 1), True), ((0, 0, 0, 0), False)])
    def test_cross_terms_note_is_the_residual_above_the_tolerance(self, capsys, lam, cross_terms):
        code, data = verify_paper(capsys, lam)
        assert code == 0 and "space_form_residual" in data["tables"]
        assert any("parameter cross terms" in note for note in data["notes"]) is cross_terms
