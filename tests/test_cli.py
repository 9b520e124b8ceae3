import json
import math

import numpy as np
import pytest

import prodgeo
from prodgeo.cli import main
from prodgeo.errors import DegeneratePlane
from prodgeo.example import ExampleParams, build_example
from prodgeo.instancefile import load_instance
from prodgeo.levicivita import sectional_curvature
from prodgeo.liealg import derived_bases
from prodgeo.pipeline import analyze_instance
from prodgeo.report import Report, _jsonable, report_from_dict, table_summary
from prodgeo.tensors import max_abs
from tests import check_report
from tests.conftest import frame_changed_dim8, hyperbolic, instance_payload, random_instance

ORTHO = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
SWAP_P = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def builtin_file(tmp_path, lam):
    return write_json(tmp_path / "builtin.json", {"builtin": {"name": "w1-example", "lambda": lam}})


def explicit_example_file(tmp_path, lam):
    l1, l2, l3, l4 = lam
    v12 = [l1, l2, l3, l4]
    v13 = [l4, -l3, l2, -l1]
    payload = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": v12},
            {"i": 3, "j": 4, "coeffs": [-x for x in v12]},
            {"i": 1, "j": 3, "coeffs": v13},
            {"i": 2, "j": 4, "coeffs": v13},
        ],
        "metric": ORTHO,
        "P": SWAP_P,
    }
    return write_json(tmp_path / "explicit.json", payload)


def dense_dim8_file(tmp_path):
    """The frame-changed dim-8 instance as a file, with a closed 1-form for it."""
    inst = frame_changed_dim8()
    alpha = ",".join(repr(x) for x in derived_bases(inst.alg)[1][0].tolist())
    return write_json(tmp_path / "dense8.json", instance_payload(inst)), alpha


def strict_loads(text):
    """Parse RFC 8259 JSON: NaN and Infinity tokens are an error."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerifyPaper:
    def test_generic_parameters_pass(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda", "1,2,3,4", "--json"])
        assert code == 0
        assert all(c["pass"] for c in data["checks"])
        assert data["flags"]["is_w1"] is True
        assert data["tables"]["scalar_curvature"] == pytest.approx(-180.0)
        assert data["tables"]["trace_s"] == pytest.approx(120.0)

    def test_degenerate_parameters_noted(self, capsys):
        code = main(["verify-paper", "--lambda", "0,0,0,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degenerate" in out

    def test_constant_sectional_flag_in_json(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda", "1,1,1,1", "--json"])
        assert code == 0
        assert data["flags"]["const_sectional"] is True

    def test_rational_arguments(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda", "1/2,0,0,-3/4", "--json"])
        assert code == 0
        assert data["instance"]["lambda"] == [0.5, 0.0, 0.0, -0.75]

    def test_malformed_lambda(self, capsys):
        # the command raises, and main prints one error line and no report
        for lam, message in (("1,2,3", "--lambda needs 4"), ("1,2,3,x", "bad rational 'x'")):
            assert main(["verify-paper", "--lambda", lam, "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err

    def test_json_round_trip_reproduces_exit_status(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda", "2,-1,0.5,3", "--json"])
        rebuilt = report_from_dict(data)
        assert rebuilt.exit_status == data["exit_status"] == code

    def test_seed_changes_sampled_forms_but_not_verdict(self, capsys):
        code1, data1 = run_json(capsys, ["verify-paper", "--lambda", "1,2,3,4", "--json", "--seed", "1"])
        code2, data2 = run_json(capsys, ["verify-paper", "--lambda", "1,2,3,4", "--json", "--seed", "2"])
        assert code1 == code2 == 0
        by_name1 = {c["name"]: c["defect"] for c in data1["checks"]}
        by_name2 = {c["name"]: c["defect"] for c in data2["checks"]}
        assert by_name1.keys() == by_name2.keys()

    @pytest.mark.parametrize("lam", [(1, 2, 3, 4), (-0.5, 3, 0.25, -7), (0, 0, 0, 0), (1000, 2000, 3000, 4000)])
    def test_begins_with_the_analyze_report_of_the_builtin_file(self, capsys, tmp_path, lam):
        # one battery: verify-paper is analyze's report of the builtin instance plus the family's own checks
        analyzed = run_json(capsys, ["analyze", "--file", builtin_file(tmp_path, list(lam)), "--json"])[1]
        verified = run_json(capsys, ["verify-paper", f"--lambda={','.join(map(repr, lam))}", "--json"])[1]
        assert verified["checks"][: len(analyzed["checks"])] == analyzed["checks"]
        assert {k: verified["flags"][k] for k in analyzed["flags"]} == analyzed["flags"]
        assert {k: verified["tables"][k] for k in analyzed["tables"]} == analyzed["tables"]


class TestAnalyze:
    def test_builtin_scalar_curvature(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert code == 0
        assert data["tables"]["scalar_curvature"] == pytest.approx(-6.0)

    def test_abelian_block_instance(self, capsys, tmp_path):
        payload = {
            "dim": 4,
            "brackets": [],
            "metric": ORTHO,
            "P": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        }
        path = write_json(tmp_path / "abelian.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert code == 0
        assert data["flags"]["is_w0"] is True
        assert data["tables"]["curvature"]["max"] == 0.0
        assert data["tables"]["weyl"]["max"] == 0.0

    def test_builtin_and_explicit_reports_agree(self, capsys, tmp_path):
        lam = [1, 2, 3, 4]
        code_b, data_b = run_json(
            capsys, ["analyze", "--file", builtin_file(tmp_path, lam), "--json"]
        )
        code_e, data_e = run_json(
            capsys, ["analyze", "--file", explicit_example_file(tmp_path, lam), "--json"]
        )
        assert code_b == code_e == 0
        for key in data_b["tables"]:
            left, right = data_b["tables"][key], data_e["tables"][key]
            if isinstance(left, dict):
                assert left.keys() == right.keys(), key
                left, right = list(left.values()), list(right.values())
            assert np.allclose(
                np.asarray(left, dtype=float), np.asarray(right, dtype=float)
            ), key
        checks_b = {c["name"]: c["pass"] for c in data_b["checks"]}
        checks_e = {c["name"]: c["pass"] for c in data_e["checks"]}
        assert checks_b == checks_e

    def test_instance_outside_the_class_is_noted(self, capsys, tmp_path):
        # adding [X2, X3] = X1 to the builtin at lambda = (1, 0, 0, 0) leaves
        # the conformally flat product class
        payload = instance_payload(build_example(ExampleParams((1, 0, 0, 0))))
        for entry in payload["brackets"]:
            if (entry["i"], entry["j"]) == (2, 3):
                entry["coeffs"] = [1, 0, 0, 0]
        path = write_json(tmp_path / "outside.json", payload)
        code = main(["analyze", "--file", path, "--json"])
        captured = capsys.readouterr()
        data = strict_loads(captured.out)
        assert captured.err == ""
        assert data["flags"]["is_w1"] is False
        assert any("outside the conformally flat product class" in n for n in data["notes"])
        assert report_from_dict(data).exit_status == data["exit_status"] == code

    def test_structural_failure_exit_code(self, capsys, tmp_path):
        payload = {"dim": 4, "brackets": [], "metric": ORTHO, "P": ORTHO}
        path = write_json(tmp_path / "identity_p.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert data["exit_status"] == report_from_dict(data).exit_status == code == 3
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["structure_trace"]["defect"] == pytest.approx(4.0)
        assert not by_name["structure_trace"]["pass"]

    def test_indefinite_metric_reports_and_exits_3(self, capsys, tmp_path):
        payload = {
            "dim": 4,
            "brackets": [],
            "metric": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
            "P": SWAP_P,
        }
        path = write_json(tmp_path / "bad_metric.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert data["exit_status"] == report_from_dict(data).exit_status == code == 3
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["metric_positive_definite"]["defect"] == pytest.approx(1.0)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--file", str(bad)]) == 2
        assert main(["analyze", "--file", str(tmp_path / "missing.json")]) == 2

    def test_both_forms_rejected(self, capsys, tmp_path):
        payload = {
            "builtin": {"name": "w1-example", "lambda": [1, 0, 0, 0]},
            "dim": 4,
            "brackets": [],
            "metric": ORTHO,
            "P": SWAP_P,
        }
        path = write_json(tmp_path / "both.json", payload)
        assert main(["analyze", "--file", path]) == 2

    def test_bad_bracket_indices_rejected(self, capsys, tmp_path):
        for entry in (
            {"i": 0, "j": 2, "coeffs": [0, 0, 0, 0]},
            {"i": 1, "j": 5, "coeffs": [0, 0, 0, 0]},
            {"i": 2, "j": 2, "coeffs": [0, 0, 0, 0]},
        ):
            payload = {"dim": 4, "brackets": [entry], "metric": ORTHO, "P": SWAP_P}
            path = write_json(tmp_path / "bad_idx.json", payload)
            assert main(["analyze", "--file", path]) == 2

    def test_odd_dimension_rejected(self, capsys, tmp_path):
        payload = {"dim": 5, "brackets": [], "metric": ORTHO, "P": SWAP_P}
        path = write_json(tmp_path / "odd.json", payload)
        assert main(["analyze", "--file", path]) == 2

    def test_duplicate_bracket_rejected(self, capsys, tmp_path):
        payload = {
            "dim": 4,
            "brackets": [
                {"i": 1, "j": 2, "coeffs": [1, 0, 0, 0]},
                {"i": 2, "j": 1, "coeffs": [0, 1, 0, 0]},
            ],
            "metric": ORTHO,
            "P": SWAP_P,
        }
        path = write_json(tmp_path / "dup.json", payload)
        assert main(["analyze", "--file", path]) == 2

    def test_six_dimensional_instance(self, capsys, tmp_path):
        eye6 = np.eye(6).tolist()
        p6 = np.diag([1, 1, 1, -1, -1, -1]).tolist()
        payload = {"dim": 6, "brackets": [], "metric": eye6, "P": p6}
        path = write_json(tmp_path / "dim6.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert code == 0
        assert data["flags"]["is_w0"] is True
        assert data["tables"]["scalar_curvature"] == 0.0
        assert "k_56" in data["tables"]["sectional"]

    def test_rational_strings_in_matrices(self, capsys, tmp_path):
        payload = {
            "dim": 4,
            "brackets": [],
            "metric": [["1/2", 0, 0, 0], [0, "1/2", 0, 0], [0, 0, "1/2", 0], [0, 0, 0, "1/2"]],
            "P": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        }
        path = write_json(tmp_path / "half.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert code == 0


class TestConformal:
    def test_closed_form_passes(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        code, data = run_json(
            capsys, ["conformal", "--file", path, "--alpha", "0,1,0,0", "--json"]
        )
        assert code == 0
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["conformal_curvature_invariance"]["defect"] <= 1e-9
        assert by_name["conformal_weyl_invariance"]["pass"]
        assert data["tables"]["lee_form_transformed"] == pytest.approx([0, 0, 0, 8])

    def test_zero_form_passes(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 2, 3, 4])
        code, data = run_json(
            capsys, ["conformal", "--file", path, "--alpha", "0,0,0,0", "--json"]
        )
        assert code == 0
        assert all(c["defect"] <= 1e-12 for c in data["checks"])

    def test_non_closed_form_exits_4(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        # the closed forms annihilate the derived subalgebra, spanned by X1 and X4
        _, basis = derived_bases(build_example(ExampleParams((1, 0, 0, 0))).alg)
        assert np.allclose(np.abs(basis), [[0, 1, 0, 0], [0, 0, 1, 0]])
        for json_flag in ([], ["--json"]):
            code = main(["conformal", "--file", path, "--alpha", "1,0,0,0", *json_flag])
            captured = capsys.readouterr()
            assert code == 4
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "derived subalgebra" in captured.err
            assert f"closed-form basis rows:\n{np.array2string(basis, precision=6)}" in captured.err

    @pytest.mark.parametrize("first, closed", [("2e-9", False), ("5e-10", True)])
    def test_unit_scale_closedness_keeps_the_absolute_tolerance(self, capsys, tmp_path, first, closed):
        # [X1, X2] = X1 here, so the bracket defect of the form is exactly its first entry
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        code = main(["conformal", "--file", path, f"--alpha={first},1,0,0", "--json"])
        assert (code != 4) == closed

    def test_self_sampled_forms_at_large_scale_are_closed(self, capsys):
        # verify-paper samples its own closed forms; with brackets of size 1e100
        # their rounding-level bracket defect is far above the absolute epsilon
        code = main(["verify-paper", "--lambda=1e100,2,3,4", "--json"])
        data = strict_loads(capsys.readouterr().out)
        assert code != 4
        assert data["exit_status"] == code
        assert "conformal_weyl_invariance" in {c["name"] for c in data["checks"]}

    def test_wrong_length_alpha(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        for alpha, message in (("0,1", "--alpha needs 4"), ("0,1,0,x", "bad rational 'x'")):
            assert main(["conformal", "--file", path, "--alpha", alpha, "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err

    def test_structurally_invalid_instance_exits_3(self, capsys, tmp_path):
        payload = {"dim": 4, "brackets": [], "metric": ORTHO, "P": ORTHO}
        path = write_json(tmp_path / "identity_p.json", payload)
        code, data = run_json(capsys, ["conformal", "--file", path, "--alpha", "0,0,0,0", "--json"])
        assert data["exit_status"] == report_from_dict(data).exit_status == code == 3

    def test_unknown_builtin_name(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "unknown.json", {"builtin": {"name": "other", "lambda": [1, 0, 0, 0]}}
        )
        assert main(["analyze", "--file", path]) == 2

    def test_builtin_wrong_parameter_count(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "short.json", {"builtin": {"name": "w1-example", "lambda": [1, 0]}}
        )
        assert main(["analyze", "--file", path]) == 2


STRUCTURE_CHECKS = [
    "structure_squares_to_identity",
    "structure_metric_compatibility",
    "structure_trace",
    "jacobi_identity",
    "metric_symmetry",
    "metric_positive_definite",
]
ANALYSIS_CHECKS = [
    "natural_connection_preserves_metric",
    "natural_connection_preserves_structure",
    "torsion_reconstruction",
    "torsion_cyclic_sum",
    "torsion_structure_cyclic_sum",
    "torsion_nested_cyclic_sum",
    "potential_is_transposed_torsion",
    "torsion_lee_orthogonality",
    "curvature_relation",
    "ricci_relation",
    "scalar_relation",
    "weyl_invariance",
    "curvature_type_criterion_agreement",
    "curvature_type_closedness_agreement",
    "parallel_torsion_equivalence",
]
CONFORMAL_CHECKS = [
    "conformal_curvature_invariance",
    "conformal_weyl_invariance",
    "conformal_lee_reconstruction",
    "conformal_connection_reconstruction",
    "conformal_class_closure",
]
TABLE_CHECKS = [f"table_{t}" for t in ("nabla", "R", "rho", "tau", "theta", "k_inv", "k_anti", "D", "T_D")]


def verify_paper_checks(signs: bool) -> list[str]:
    """``analyze``'s checks of the builtin instance, then the class hypotheses, the golden tables,
    the conformal sweep and the constant-curvature agreements."""
    return [
        *STRUCTURE_CHECKS,
        *ANALYSIS_CHECKS,
        "conformal_class_membership",
        "integrability",
        *TABLE_CHECKS,
        *(["scalar_curvature_negative", "torsion_not_parallel"] if signs else []),
        "weyl_zero",
        "natural_curvature_zero",
        *CONFORMAL_CHECKS,
        "constant_invariant_agreement",
        "constant_anti_invariant_agreement",
        "constant_sectional_agreement",
    ]


class TestCheckOrder:
    """The exact ordered check names of each command; reports are compared byte for byte, so order is output."""

    @staticmethod
    def names(capsys, argv):
        code = main([*argv, "--json"])
        return code, [c["name"] for c in strict_loads(capsys.readouterr().out)["checks"]]

    @pytest.mark.parametrize("lam, signs", [("1,2,3,4", True), ("0,0,0,0", False)])
    def test_verify_paper(self, capsys, lam, signs):
        assert self.names(capsys, ["verify-paper", f"--lambda={lam}"]) == (0, verify_paper_checks(signs))

    def test_analyze(self, capsys, tmp_path):
        path = write_json(tmp_path / "hyperbolic.json", instance_payload(hyperbolic(8)))
        assert self.names(capsys, ["analyze", "--file", path]) == (0, STRUCTURE_CHECKS + ANALYSIS_CHECKS)

    def test_conformal(self, capsys, tmp_path):
        inst = hyperbolic(8)
        path = write_json(tmp_path / "hyperbolic.json", instance_payload(inst))
        alpha = ",".join(repr(x) for x in derived_bases(inst.alg)[1][0].tolist())
        assert self.names(capsys, ["conformal", "--file", path, f"--alpha={alpha}"]) == (0, CONFORMAL_CHECKS)

    def test_structure_failure_after_analysis(self, capsys, tmp_path):
        path = write_json(tmp_path / "identity_p.json", {"dim": 4, "brackets": [], "metric": ORTHO, "P": ORTHO})
        assert self.names(capsys, ["analyze", "--file", path]) == (3, STRUCTURE_CHECKS + ANALYSIS_CHECKS)
        assert self.names(capsys, ["conformal", "--file", path, "--alpha=0,0,0,0"]) == (3, STRUCTURE_CHECKS)

    @staticmethod
    def assert_invalid_instance(capsys, path, *options):
        """Both commands exit 3 with the structure checks and a failing ``instance_buildable``."""
        for argv in (["analyze", "--file", path], ["conformal", "--file", path, "--alpha=0,0,0,0"]):
            code = main([*argv, *options, "--json"])
            data = strict_loads(capsys.readouterr().out)
            assert [c["name"] for c in data["checks"]] == STRUCTURE_CHECKS + ["instance_buildable"]
            assert data["exit_status"] == report_from_dict(data).exit_status == code == 3

    def test_singular_metric_is_an_invalid_instance(self, capsys, tmp_path):
        singular = np.diag([1.0, 1.0, 1.0, 0.0]).tolist()
        path = write_json(tmp_path / "singular.json", {"dim": 4, "brackets": [], "metric": singular, "P": SWAP_P})
        self.assert_invalid_instance(capsys, path)

    def test_metric_with_an_overflowing_inverse_is_an_invalid_instance(self, capsys, tmp_path):
        # 1e-310 I passes the Cholesky test, but its inverse is not finite
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1, 0]}],
                   "metric": (1e-310 * np.eye(4)).tolist(), "P": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
        self.assert_invalid_instance(capsys, write_json(tmp_path / "tiny.json", payload))

    def test_short_frame_vector_spans_no_degenerate_plane(self, capsys, tmp_path):
        # g(X_4, X_4) = 1e-10: each basis plane's squared area is judged against
        # g(u, u) g(v, v), not against an absolute 1e-9; the instance is outside W1, so exit 1
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1, 0]}],
                   "metric": np.diag([1.0, 1.0, 1.0, 1e-10]).tolist(), "P": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
        path = write_json(tmp_path / "short.json", payload)
        assert self.names(capsys, ["analyze", "--file", path]) == (1, STRUCTURE_CHECKS + ANALYSIS_CHECKS)

    def test_badly_conditioned_basis_plane_is_a_null_table_entry(self, capsys, tmp_path):
        # g_12 = 1 - 1e-11 is positive definite (condition number about 2e11), but X_1 and X_2 span a
        # degenerate plane: its sectional curvature is null and fails non_finite, and the report is written
        metric = np.eye(4)
        metric[0, 1] = metric[1, 0] = 1 - 1e-11
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 3, "coeffs": [0, 0, 0, 1]}], "metric": metric.tolist(),
                   "P": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
        path = write_json(tmp_path / "near_degenerate.json", payload)
        code, data = run_json(capsys, ["analyze", "--file", path, "--json"])
        assert data["exit_status"] == report_from_dict(data).exit_status == code == 1
        assert [c["name"] for c in data["checks"]] == STRUCTURE_CHECKS + ANALYSIS_CHECKS + ["non_finite"]
        assert data["checks"][-1]["defect"] == 1 and not data["checks"][-1]["pass"]
        sectional = data["tables"]["sectional"]
        assert sectional["k_12"] is None and None not in [v for k, v in sectional.items() if k != "k_12"]
        inst = load_instance(path).instance  # the kernel still refuses the plane
        with pytest.raises(DegeneratePlane):
            sectional_curvature(analyze_instance(inst).R, inst.g, 0, 1)

    @pytest.mark.parametrize("command", ["analyze", "conformal"])
    @pytest.mark.parametrize(
        "metric, expected",
        [
            (9e307 * np.eye(4), 1),
            (1e308 * np.eye(4), 1),
            (1.7e308 * np.eye(4), 1),
            (np.array([[1.5e308, 1e308, 0, 0], [1e308, 1.5e308, 0, 0], [0, 0, 1.5e308, 0], [0, 0, 0, 1.5e308]]), 1),
            (1e308 * np.diag([1.0, 1.0, 1.0, -1.0]), 3),
        ],
        ids=["9e307", "1e308", "1.7e308", "1.5e308-g12-1e308", "1e308-indefinite"],
    )
    def test_huge_metric_writes_a_report_that_states_its_exit_code(self, capsys, tmp_path, command, metric, expected):
        # g + g^T overflows here: the positive-definiteness defect halves g before it adds,
        # so a finite metric gets a report, not a traceback
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1, 0]}], "metric": metric.tolist(),
                   "P": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
        argv = [command, "--file", write_json(tmp_path / "huge.json", payload), "--json"]
        code = main(argv + (["--alpha=0,0,0,0"] if command == "conformal" else []))
        data = strict_loads(capsys.readouterr().out)
        assert data["exit_status"] == report_from_dict(data).exit_status == code == expected
        if expected == 3:
            assert [c["name"] for c in data["checks"] if not c["pass"]] == ["metric_positive_definite", "instance_buildable"]

    def test_slightly_asymmetric_metric_is_an_invalid_instance_at_a_loose_tolerance(self, capsys, tmp_path):
        # metric_symmetry passes at 1e-3, but the metric is inverted only when symmetric to 1e-9
        metric = np.eye(4)
        metric[0, 1] = 1e-6
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1, 0]}], "metric": metric.tolist(),
                   "P": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
        self.assert_invalid_instance(capsys, write_json(tmp_path / "asymmetric.json", payload), "--epsilon", "1e-3")


class TestJsonEncoding:
    def test_compact_report_parses_like_the_indented_one(self, capsys, monkeypatch, tmp_path):
        reports = []
        to_json = Report.to_json

        def capture(rep, *args):
            reports.append(rep)
            return to_json(rep, *args)

        monkeypatch.setattr(Report, "to_json", capture)
        dense, dense_alpha = dense_dim8_file(tmp_path)
        runs = [
            ["verify-paper", f"--lambda={lam}", "--json"]
            for lam in ("1,2,3,4", "0,0,0,0", "1,1,1,1", "-1/2,3,0.25,-7", "1000,2000,3000,4000")
        ]
        runs += [
            ["analyze", "--file", dense, "--json"],
            ["analyze", "--file", builtin_file(tmp_path, [2, -1, 0.5, 3]), "--json"],
            ["conformal", "--file", dense, f"--alpha={dense_alpha}", "--json"],
            ["conformal", "--file", builtin_file(tmp_path, [1, 0, 0, 0]), "--alpha=0,-1,0,0", "--json"],
        ]
        for argv in runs:
            code = main(argv)
            out = capsys.readouterr().out
            rep = reports.pop()
            assert out == to_json(rep) + "\n" and out.count("\n") == 1, argv
            indented = json.dumps(rep.to_dict(), indent=2, default=_jsonable)
            data = json.loads(out)
            assert data == json.loads(indented), argv
            assert data["exit_status"] == code, argv
        assert not reports

    def test_version_has_one_source(self):
        assert Report(instance={}, epsilon=1e-9).to_dict()["version"] == prodgeo.__version__


class TestNonFiniteInput:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_bracket_coefficient_exits_2(self, capsys, tmp_path, token):
        payload = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 0, 0]}], "metric": ORTHO, "P": SWAP_P}
        text = json.dumps(payload).replace('"coeffs": [0,', f'"coeffs": [{token},', 1)
        path = tmp_path / "non_finite.json"
        path.write_text(text)
        for argv in (["analyze", "--file", str(path), "--json"], ["conformal", "--file", str(path), "--alpha=0,0,0,0"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize("lam", ["1e400,1,1,1", "1,-1e999,1,1", "10" * 200 + ",1,1,1"])
    def test_overflowing_lambda_exits_2(self, capsys, lam):
        code = main(["verify-paper", f"--lambda={lam}", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


# JSON text of one bad table value, and the message that names it
BAD_TABLE_VALUES = {
    "true": ("true", "expected a number or rational string, got True"),
    "null": ("null", "expected a number or rational string, got None"),
    "junk": ('"x"', "bad rational 'x'"),
    "zero_denominator": ('"1/0"', "bad rational '1/0'"),
    "huge_int": ("1" + "0" * 400, "1" + "0" * 400 + " is too large for a float"),
    "list": ("[1]", "expected a number or rational string, got [1]"),
    "short_row": (None, "expected 4 entries, got 3"),
}


class TestMalformedTables:
    @pytest.mark.parametrize("value", list(BAD_TABLE_VALUES))
    @pytest.mark.parametrize("where", ["bracket", "metric"])
    def test_bad_value_exits_2_with_the_message_that_names_it(self, capsys, tmp_path, value, where):
        token, message = BAD_TABLE_VALUES[value]
        payload = {
            "dim": 4,
            "brackets": [{"i": 1, "j": 2, "coeffs": [0, 1, "3/4", 0.5]}, {"i": 3, "j": 4, "coeffs": [0, 0, 0, 0]}],
            "metric": [list(row) for row in ORTHO],
            "P": SWAP_P,
        }
        row = payload["brackets"][1]["coeffs"] if where == "bracket" else payload["metric"][2]
        if token is None:
            row.pop()
        else:
            row[-1] = "PLACEHOLDER"
        text = json.dumps(payload).replace('"PLACEHOLDER"', token or "", 1)
        path = tmp_path / "bad_table.json"
        path.write_text(text)
        code = main(["analyze", "--file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestNonFiniteReport:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_geometry_writes_strict_json(self, capsys):
        code = main(["verify-paper", "--lambda=1e308,1e308,1e308,1e308", "--json"])
        out = capsys.readouterr().out
        data = strict_loads(out)
        last = data["checks"][-1]
        assert last["name"] == "non_finite" and not last["pass"]
        assert last["defect"] == out.count("null") > 0
        assert code == data["exit_status"] == 3  # the NaN Jacobi defect fails the structure gate
        rebuilt = report_from_dict(data)
        assert rebuilt.exit_status == code
        assert [c.passed for c in rebuilt.finish()[0]] == [c["pass"] for c in data["checks"]]
        assert rebuilt.to_json() + "\n" == out

    def test_overflowed_conformal_defects_are_null_and_fail(self, capsys):
        # every sampled form gives NaN defects; the largest over the stack keeps them
        code, data = run_json(capsys, ["verify-paper", "--lambda=1e308,1e308,1e308,1e308", "--json"])
        names = (
            "conformal_curvature_invariance",
            "conformal_weyl_invariance",
            "conformal_lee_reconstruction",
            "conformal_connection_reconstruction",
            "conformal_class_closure",
        )
        conformal = [c for c in data["checks"] if c["name"] in names]
        assert [c["name"] for c in conformal] == list(names)
        assert all(c["defect"] is None and not c["pass"] for c in conformal)
        assert code == data["exit_status"] == 3

    @pytest.mark.parametrize("command", ["analyze", "conformal"])
    def test_overflowed_structure_fails_the_gate(self, capsys, tmp_path, command):
        # the Jacobi defect of the overflowed brackets is NaN: a structure failure, exit 3
        argv = [command, "--file", builtin_file(tmp_path, [1e308] * 4), "--json"]
        code, data = run_json(capsys, argv + (["--alpha=0,0,0,0"] if command == "conformal" else []))
        assert data["exit_status"] == report_from_dict(data).exit_status == code == 3
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["jacobi_identity"]["defect"] is None and not checks["jacobi_identity"]["pass"]
        names = [c["name"] for c in data["checks"]]
        structure = [
            "structure_squares_to_identity",
            "structure_metric_compatibility",
            "structure_trace",
            "jacobi_identity",
            "metric_symmetry",
            "metric_positive_definite",
        ]
        assert names[:6] == structure
        if command == "conformal":  # the gate reports the structure checks only, and the NaN count
            assert names == structure + ["non_finite"]

    def test_counts_each_non_finite_number(self):
        rep = Report(instance={}, epsilon=1e-9)
        rep.add({"finite": 0.0, "overflow": math.inf})
        rep.tables.update(
            {"array": np.array([1.0, np.nan, -np.inf]), "dict": {"k": math.nan, "ok": 2.0}, "scalar": 3.0}
        )
        data = strict_loads(rep.to_json())
        assert [c["name"] for c in data["checks"]] == ["finite", "overflow", "non_finite"]
        assert [c["defect"] for c in data["checks"]] == [0.0, None, 4.0]
        assert data["tables"]["array"] == [1.0, None, None]
        assert data["tables"]["dict"] == {"k": None, "ok": 2.0}
        assert data["exit_status"] == rep.exit_status == 1
        assert report_from_dict(data).to_json() == rep.to_json()
        assert "FAIL  non_finite" in rep.render_text()

    def test_finite_report_has_no_non_finite_check(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda=1,2,3,4", "--json"])
        assert code == 0
        assert "non_finite" not in {c["name"] for c in data["checks"]}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_epsilon_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--lambda=1,2,3,4", f"--epsilon={value}", "--json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestOptionValues:
    """--epsilon and --seed are checked by argparse: a bad value is a usage error, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-paper", "--lambda=1,2,3,4", "--seed", "-1"],
            ["verify-paper", "--lambda=1,2,3,4", "--seed=-5"],
            ["verify-paper", "--lambda=1,2,3,4", "--seed", "1.5"],
            ["verify-paper", "--lambda=1,2,3,4", "--epsilon", "-1"],
            ["verify-paper", "--lambda=1,2,3,4", "--epsilon=-1e-12"],
            ["analyze", "--file", "unread.json", "--epsilon=-1"],
            ["conformal", "--file", "unread.json", "--alpha=0,0,0,0", "--epsilon=-1"],
        ],
        ids=["seed_minus_1", "seed_minus_5", "seed_float", "epsilon_minus_1", "epsilon_tiny_negative",
             "analyze_epsilon", "conformal_epsilon"],
    )
    def test_negative_or_malformed_value_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert ">= 0, got" in captured.err and "Traceback" not in captured.err

    def test_zero_epsilon_is_accepted(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 2, 3, 4])
        code, data = run_json(capsys, ["analyze", "--file", path, "--epsilon", "0", "--json"])
        assert data["epsilon"] == 0.0 and code == data["exit_status"]

    @pytest.mark.parametrize(
        "lam",
        ["1,2,3,4", "0,0,0,0", "1,1,1,1", "-1/2,3,0.25,-7", "1000,2000,3000,4000", "1e-7,2e-7,3e-7,4e-7", "2,2,1,3"],
    )
    def test_zero_epsilon_sweep_writes_a_report(self, capsys, lam):
        # the sampled forms come from the closed-form basis and are not judged
        # again: their bracket defect is the roundoff of an SVD basis, which can
        # exceed dim ulps (as at 2,2,1,3); at 1e-7 the Jacobi defect is roundoff
        # too, which fails the structure gate
        expected = 3 if lam == "1e-7,2e-7,3e-7,4e-7" else 1
        for seed in range(10):
            code = main(["verify-paper", f"--lambda={lam}", f"--seed={seed}", "--epsilon", "0", "--json"])
            captured = capsys.readouterr()
            assert captured.err == ""
            data = strict_loads(captured.out)
            assert not [n for n in data["notes"] if n.startswith("warning: ")]
            assert report_from_dict(data).exit_status == data["exit_status"] == code == expected

    def test_zero_epsilon_still_rejects_a_form_that_is_not_closed(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        code = main(["conformal", "--file", path, "--alpha=1,0,0,0", "--epsilon", "0", "--json"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: the 1-form is not closed")

    @pytest.mark.parametrize("seed", ["0", str(2**70)])
    def test_zero_and_large_seeds_are_accepted(self, capsys, seed):
        code, data = run_json(capsys, ["verify-paper", "--lambda=1,2,3,4", f"--seed={seed}", "--json"])
        assert code == data["exit_status"] == 0


SUMMARIZED = ("levi_civita_gamma", "natural_gamma", "torsion", "curvature", "natural_curvature", "weyl")


def _rank(value) -> int:
    """The rank of a table value: 0 for a number or a summary, else its array rank."""
    if isinstance(value, dict):
        return max((_rank(item) for item in value.values()), default=0)
    return np.asarray(value, dtype=float).ndim


@pytest.fixture(params=["frame_changed_dim8", "hyperbolic_dim8"])
def instance_file(request, tmp_path):
    """An instance file of a dim-8 fixture, with a closed 1-form for it."""
    inst = frame_changed_dim8() if request.param == "frame_changed_dim8" else request.getfixturevalue(request.param)[0]
    alpha = ",".join(repr(x) for x in (0.7 * derived_bases(inst.alg)[1][0]).tolist())
    return write_json(tmp_path / f"{request.param}.json", instance_payload(inst)), alpha


class TestTableSummaries:
    def test_no_report_holds_a_table_of_rank_3_or_more(self, capsys, instance_file):
        path, alpha = instance_file
        for argv in (
            ["verify-paper", "--lambda=1,2,3,4", "--json"],
            ["analyze", "--file", path, "--json"],
            ["conformal", "--file", path, f"--alpha={alpha}", "--json"],
        ):
            code, data = run_json(capsys, argv)
            assert code == data["exit_status"] != 4, argv
            assert {key: _rank(value) for key, value in data["tables"].items() if _rank(value) > 2} == {}, argv

    def test_each_summary_reduces_the_analysed_array(self, capsys, instance_file):
        path, _ = instance_file
        eps = 1e-9
        code, data = run_json(capsys, ["analyze", "--file", path, f"--epsilon={eps}", "--json"])
        assert code == data["exit_status"]
        a = analyze_instance(load_instance(path).instance, eps)
        arrays = {
            "levi_civita_gamma": a.nabla,
            "natural_gamma": a.D.gamma,
            "torsion": a.D.T,
            "curvature": a.R,
            "natural_curvature": a.Rprime,
            "weyl": a.W,
        }
        assert set(SUMMARIZED) <= set(data["tables"])
        assert not {"natural_curvature_max", "weyl_max"} & set(data["tables"])
        for key, arr in arrays.items():
            summary = data["tables"][key]
            assert set(summary) == {"max", "norm", "nonzero"}, key
            assert summary["max"] == max_abs(arr), key
            assert summary["norm"] == pytest.approx(np.linalg.norm(arr), rel=1e-12), key
            assert summary["nonzero"] == np.count_nonzero(np.abs(arr) > eps), key
        # the curvature of a hyperbolic or dense instance is not roundoff
        assert data["tables"]["curvature"]["nonzero"] > 0

    def test_large_lambda_summaries_are_finite(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda=1e100,2,3,4", "--json"])
        assert data["exit_status"] == code
        for key in SUMMARIZED:
            summary = data["tables"][key]
            assert math.isfinite(summary["max"]) and math.isfinite(summary["norm"]), key
        assert data["tables"]["curvature"]["norm"] > 1e200
        # R' of the flat D is roundoff at the 1e200 scale of R: no Weyl tensor is taken of it alone
        assert not [note for note in data["notes"] if note.startswith("warning: ")]

    def test_norm_is_scaled_by_the_max(self):
        with np.errstate(over="raise"):
            summary = table_summary(np.full((4, 4, 4), -1e200), 1e-9)
        assert summary == {"max": 1e200, "norm": pytest.approx(8e200, rel=1e-15), "nonzero": 64}
        assert table_summary(np.zeros((2, 2, 2)), 0.0) == {"max": 0.0, "norm": 0.0, "nonzero": 0}

    def test_summary_scales_its_own_copy(self):
        # |x| is taken once and scaled in place: the numbers are bitwise those
        # of the scaled copy, and the input is left as it was
        arr = np.random.default_rng(3).normal(size=(5,) * 4)
        arr[0] = 1e-12
        kept = arr.copy()
        summary = table_summary(arr, 1e-9)
        top = np.max(np.abs(kept))
        assert summary == {
            "max": top,
            "norm": top * float(np.linalg.norm(np.abs(kept) / top)),
            "nonzero": 500,
        }
        assert np.array_equal(arr, kept)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_write_null_max_and_norm(self, bad):
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 1], arr[1, 0, 0] = bad, 3.0
        rep = Report(instance={}, epsilon=1e-9)
        rep.tables["curvature"] = table_summary(arr, rep.epsilon)
        data = strict_loads(rep.to_json())
        assert data["tables"]["curvature"]["max"] is None and data["tables"]["curvature"]["norm"] is None
        assert data["checks"] == [{"name": "non_finite", "defect": 2.0, "tolerance": 0.0, "pass": False}]
        assert report_from_dict(data).exit_status == 1


def random_file(tmp_path):
    """An instance file of random brackets and P, whose Ricci tensor is not symmetric."""
    return write_json(tmp_path / "random4.json", instance_payload(random_instance(4, 4)))


class TestWarningsInNotes:
    @pytest.mark.parametrize(
        "command, note",
        [
            ("verify-paper", "warning: RuntimeWarning: overflow encountered in matmul"),
            ("analyze", "warning: NonSymmetricInputWarning: extending a non-symmetric 2-tensor"),
        ],
    )
    def test_warning_is_a_note_and_stderr_is_empty(self, capsys, tmp_path, command, note):
        if command == "verify-paper":
            code = main(["verify-paper", "--lambda=1e308,1e308,1e308,1e308", "--json"])
        else:
            code = main(["analyze", "--file", random_file(tmp_path), "--json"])
        captured = capsys.readouterr()
        assert captured.err == ""
        data = strict_loads(captured.out)
        assert note in data["notes"]
        warned = [n for n in data["notes"] if n.startswith("warning: ")]
        assert len(warned) == len(set(warned))
        rebuilt = report_from_dict(data)
        assert rebuilt.exit_status == data["exit_status"] == code
        assert [c.passed for c in rebuilt.finish()[0]] == [c["pass"] for c in data["checks"]]

    def test_overflowed_metric_gives_exactly_the_overflow_notes(self, capsys):
        # an inf of the overflowed Koszul sum meeting a 0 of the inverse metric
        # is no new fault: its "invalid value encountered in matmul" is no note
        _, data = run_json(capsys, ["verify-paper", "--lambda=1e308,1e308,1e308,1e308", "--json"])
        assert [n for n in data["notes"] if n.startswith("warning: ")] == [
            "warning: RuntimeWarning: overflow encountered in matmul",
            "warning: RuntimeWarning: invalid value encountered in add",
            "warning: RuntimeWarning: overflow encountered in add",
        ]

    def test_text_report_carries_the_note(self, capsys, tmp_path):
        main(["analyze", "--file", random_file(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "note: warning: NonSymmetricInputWarning" in captured.out

    def test_no_warning_no_note(self, capsys):
        code, data = run_json(capsys, ["verify-paper", "--lambda=1,2,3,4", "--json"])
        assert code == 0
        assert not [n for n in data["notes"] if n.startswith("warning: ")]

    @pytest.mark.parametrize("lam, scale", [(1e3, 1e-12), (1e5, 1e-6)])
    def test_small_form_at_large_lambda_no_symmetry_note(self, capsys, tmp_path, lam, scale):
        # both Ricci tensors are symmetric: the Weyl residual does not judge the
        # roundoff asymmetry of their difference against the difference's scale
        lam = [lam * k for k in (1, 2, 3, 4)]
        path = builtin_file(tmp_path, lam)
        row = derived_bases(build_example(ExampleParams(lam)).alg)[1][0]
        alpha = ",".join(repr(x) for x in (scale * row).tolist())
        code, data = run_json(capsys, ["conformal", "--file", path, f"--alpha={alpha}", "--json"])
        assert code == data["exit_status"] == report_from_dict(data).exit_status
        assert not [n for n in data["notes"] if n.startswith("warning: ")]


class TestNegativeListValues:
    def test_lambda_separated_and_equals_forms_agree(self, capsys):
        code_sep, data_sep = run_json(capsys, ["verify-paper", "--lambda", "-1,2,3,4", "--json"])
        code_eq, data_eq = run_json(capsys, ["verify-paper", "--lambda=-1,2,3,4", "--json"])
        assert code_sep == code_eq == 0
        assert data_sep == data_eq
        assert data_sep["instance"]["lambda"] == [-1.0, 2.0, 3.0, 4.0]

    def test_alpha_separated_and_equals_forms_agree(self, capsys, tmp_path):
        path = builtin_file(tmp_path, [1, 0, 0, 0])
        code_sep, data_sep = run_json(capsys, ["conformal", "--file", path, "--alpha", "-0,-1,0,0", "--json"])
        code_eq, data_eq = run_json(capsys, ["conformal", "--file", path, "--alpha=-0,-1,0,0", "--json"])
        assert code_sep == code_eq == 0
        assert data_sep == data_eq
        assert data_sep["tables"]["alpha"] == [0.0, -1.0, 0.0, 0.0]


class TestReportChecker:
    """``tests/check_report.py``, which the CI steps run on each report of the installed command."""

    @staticmethod
    def report(capsys, tmp_path, lam):
        capsys.readouterr()  # drop what an earlier check printed
        code = main(["verify-paper", f"--lambda={lam}", "--json"])
        path = tmp_path / f"{lam}.json"
        path.write_text(capsys.readouterr().out)
        return str(path), str(code)

    def test_accepts_a_report_that_re_derives_its_exit_code(self, capsys, tmp_path):
        path, code = self.report(capsys, tmp_path, "1,2,3,4")
        check_report.main([path, code, "0"])
        check_report.main([path, code])
        with pytest.raises(SystemExit, match="expected 1"):
            check_report.main([path, code, "1"])
        with pytest.raises(SystemExit, match="stated 0"):
            check_report.main([path, "3"])

    def test_overflow_report_has_null_conformal_checks_and_warning_notes(self, capsys, tmp_path):
        path, code = self.report(capsys, tmp_path, "1e308,1e308,1e308,1e308")
        check_report.main([path, code, "3", "--conformal-null", "--warnings-allowed"])
        with pytest.raises(SystemExit, match="warning: RuntimeWarning"):
            check_report.main([path, code, "3", "--conformal-null"])
        finite, code = self.report(capsys, tmp_path, "1,2,3,4")
        with pytest.raises(SystemExit):
            check_report.main([finite, code, "0", "--conformal-null"])
