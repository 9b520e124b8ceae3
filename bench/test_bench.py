"""Tests of the benchmark itself.  Run: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import numpy as np
import pytest

import instances
import oracles
import run
import spans
from prodgeo import cli, conformal, levicivita, natural
from prodgeo.instancefile import load_instance
from prodgeo.structure import validate_structure


def _analyze(path, *extra) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*extra, "--file", str(path), "--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("family", instances.FAMILIES)
@pytest.mark.parametrize("dim", [4, 6, 10])
def test_generated_instances_pass_validation(tmp_path, family, dim):
    inst = instances.make_instance(family, dim, np.random.default_rng(dim))
    loaded = load_instance(inst.write(tmp_path / "inst.json")).instance
    assert validate_structure(loaded).ok
    assert conformal.closedness_defect(loaded.alg, inst.alpha) <= 1e-12
    assert not np.allclose(loaded.g, np.eye(dim))


def test_pool_alternates_families():
    pool = instances.make_pool(seed=3, dim=4, per_family=3)
    assert [i.family for i in pool] == list(instances.FAMILIES) * 3


def test_pool_is_a_function_of_the_seed():
    first, second = instances.make_pool(7, 6, 2), instances.make_pool(7, 6, 2)
    assert all(json.dumps(a.to_dict()) == json.dumps(b.to_dict()) for a, b in zip(first, second))
    assert json.dumps(first[0].to_dict()) != json.dumps(instances.make_pool(8, 6, 2)[0].to_dict())


def test_builtin_scalar_curvature_oracle():
    # the paper's scalar curvature of the builtin family is -6 |lambda|^2
    tau = instances.orthonormal_scalar_curvature(instances.builtin_brackets([1, -2, 3, 0.5]))
    assert tau == pytest.approx(-6 * 14.25)


@pytest.fixture
def analyzed(tmp_path):
    inst = instances.make_instance("hyperbolic", 6, np.random.default_rng(5))
    code, out = _analyze(inst.write(tmp_path / "inst.json"), "analyze")
    expected = oracles.Expected("analyze", family=inst.family, tau=inst.tau, theta=inst.theta)
    return code, out, expected


def test_oracles_accept_the_seed_output(analyzed):
    assert oracles.check_call(*analyzed) == []


def test_tau_oracle_flags_a_perturbed_report(analyzed):
    code, out, expected = analyzed
    data = json.loads(out)
    data["tables"]["scalar_curvature"] *= 1 + 1e-6
    problems = oracles.check_call(code, json.dumps(data), expected)
    assert any("scalar_curvature" in p for p in problems)


def test_oracles_flag_non_finite_json_and_wrong_flags(analyzed):
    code, out, expected = analyzed
    data = json.loads(out)
    data["tables"]["trace_s"] = float("nan")
    assert "not strict JSON" in oracles.check_call(code, json.dumps(data), expected)[0]
    data = json.loads(out)
    data["flags"]["flat_natural_connection"] = False
    assert any("flat_natural_connection" in p for p in oracles.check_call(code, json.dumps(data), expected))


def test_oracles_flag_a_verdict_that_does_not_rederive(analyzed):
    code, out, expected = analyzed
    data = json.loads(out)
    data["checks"][0]["defect"] = 1.0
    problems = oracles.check_call(code, json.dumps(data), expected)
    assert any("re-derived exit status" in p for p in problems)
    assert any("does not re-derive" in p for p in problems)


def test_conformal_oracle_on_both_families(tmp_path):
    rng = np.random.default_rng(11)
    for family in instances.FAMILIES:
        inst = instances.make_instance(family, 6, rng)
        alpha = ",".join(repr(float(x)) for x in inst.alpha)
        code, out = _analyze(inst.write(tmp_path / f"{family}.json"), "conformal", f"--alpha={alpha}")
        expected = oracles.Expected("conformal", alpha=inst.alpha, theta_rescaled=inst.theta_rescaled)
        assert oracles.check_call(code, out, expected) == []
        wrong = oracles.Expected("conformal", alpha=inst.alpha, theta_rescaled=inst.theta_rescaled + 1e-3)
        assert oracles.check_call(code, out, wrong)


def test_self_times_of_nested_spans_add_up():
    recorder = spans.SpanRecorder()

    def leaf():
        sum(range(20000))

    def middle():
        leaf()
        leaf()

    def outer():
        middle()
        leaf()

    leaf = recorder._wrap("leaf", leaf)
    middle = recorder._wrap("middle", middle)
    recorder._wrap("outer", outer)()

    own = recorder.self_times()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    top = by_name["outer"][0]
    assert [s.parent for s in by_name["leaf"]] == [1, 1, 0]
    assert sum(own) == pytest.approx(top.end - top.start, rel=1e-9)
    mid = by_name["middle"][0]
    assert own[1] == pytest.approx((mid.end - mid.start) - sum(s.end - s.start for s in by_name["leaf"][:2]))
    assert all(t >= 0 for t in own)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "prodgeo" or name.startswith("prodgeo.")
        for attr, value in vars(module).items()
    }


def test_tracing_wraps_every_binding_and_restores_them(tmp_path):
    from prodgeo.report import Report

    before, to_json = _bindings(), Report.to_json
    inst = instances.make_instance("hyp-product", 4, np.random.default_rng(2))
    path = inst.write(tmp_path / "inst.json")
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        original = before[("prodgeo.levicivita", "cov_deriv_components")]
        assert natural.cov_deriv_components is levicivita.cov_deriv_components is not original
        assert natural.cov_deriv_components.__wrapped__ is original
        assert cli.analyze_instance.__wrapped__ is before[("prodgeo.cli", "analyze_instance")]
        code, out = _analyze(path, "analyze")
    finally:
        recorder.restore()
    assert code == 0
    assert _bindings() == before and Report.to_json is to_json
    metrics = spans.layer_metrics(recorder, calls=1)
    assert metrics["pipeline.analyze_instance.calls"] == 1
    assert metrics["levicivita.sectional_curvature.calls"] == 6
    assert metrics["levicivita.cov_deriv_components.calls"] > 0
    assert spans.bytes_per_call(recorder, 1) == len(out) - 1
    assert spans.koszul_per_geometry(recorder) == metrics["levicivita.levi_civita_coeffs.calls"]


def test_the_run_reports_every_metric_in_the_spec():
    spec = json.loads(run.SPEC.read_text())
    recorder = spans.SpanRecorder()
    layer = set(spans.layer_metrics(recorder, 1)) | {
        "report.bytes_per_call",
        "levicivita.koszul_per_geometry",
        "trace.overhead_share",
    }
    assert {m["name"] for m in spec["per_layer"]} <= layer
    assert spec["command"][1] == "bench/run.py" and spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == pytest.approx(90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
