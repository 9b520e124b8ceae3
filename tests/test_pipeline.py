"""The lazy analysis: each object is built once, only when read, from its own metric."""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prodgeo
from prodgeo.cli import build_parser, main
from prodgeo.conformal import closed_form_basis, deformed_geometry, random_closed_form
from prodgeo.example import ExampleParams, build_example
from prodgeo.pipeline import analyze_instance
from tests.conftest import instance_payload
from tests.test_cli import write_json

EPS = 1e-9


def _recording(fn, log):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log.append((args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def record_calls(monkeypatch, *names):
    """Log the calls of ``module.function`` names, through every prodgeo module that binds them."""
    modules = [m for key, m in sys.modules.items() if key == "prodgeo" or key.startswith("prodgeo.")]
    calls = {}
    for name in names:
        module_name, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"prodgeo.{module_name}"), attr)
        wrapper = _recording(original, calls.setdefault(name, []))
        for module in modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def _argument(call, position, keyword):
    args, kwargs = call
    return args[position] if len(args) > position else kwargs.get(keyword)


class TestNothingIsBuiltTwice:
    def test_construction_builds_nothing_and_each_object_is_built_once(self, monkeypatch, inst_1234):
        calls = record_calls(
            monkeypatch, "levicivita.levi_civita_coeffs", "levicivita.curvature_tensor",
            "levicivita.weyl_tensor",
        )
        a = analyze_instance(inst_1234, EPS)
        assert all(not log for log in calls.values())
        first = a.W
        assert a.W is first and a.weyl_invariance_residual <= EPS
        assert {name: len(log) for name, log in calls.items()} == {
            "levicivita.levi_civita_coeffs": 1,
            "levicivita.curvature_tensor": 1,
            "levicivita.weyl_tensor": 2,
        }

    def test_conformal_builds_only_what_its_checks_read(self, monkeypatch, capsys, tmp_path, hyperbolic_dim8):
        inst, _ = hyperbolic_dim8
        path = write_json(tmp_path / "hyperbolic8.json", instance_payload(inst))
        alpha = ",".join(repr(x) for x in (0.7 * closed_form_basis(inst.alg)[0]).tolist())
        calls = record_calls(
            monkeypatch, "levicivita.weyl_tensor", "natural.flat_D_report",
            "natural.curvature_Rprime", "levicivita.cov_deriv_components",
            "levicivita.levi_civita_coeffs", "conformal.deformed_geometry",
        )
        assert main(["conformal", "--file", path, f"--alpha={alpha}", "--json"]) == 0
        assert '"pass": false' not in capsys.readouterr().out
        assert {name: len(log) for name, log in calls.items()} == {
            "levicivita.weyl_tensor": 2,
            "natural.flat_D_report": 0,
            "natural.curvature_Rprime": 0,
            "levicivita.cov_deriv_components": 0,
            "levicivita.levi_civita_coeffs": 2,
            "conformal.deformed_geometry": 1,
        }

    def test_verify_paper_builds_one_base_and_five_rescaled_geometries(self, monkeypatch, capsys):
        calls = record_calls(
            monkeypatch, "levicivita.levi_civita_coeffs", "pipeline.analyze_instance",
            "levicivita.weyl_tensor", "levicivita.curvature_components",
        )
        assert main(["verify-paper", "--lambda=1,2,3,4", "--json"]) == 0
        capsys.readouterr()
        koszul = calls["levicivita.levi_civita_coeffs"]
        analyses = calls["pipeline.analyze_instance"]
        assert sum(_argument(c, 1, "dg") is None for c in koszul) == 1
        assert len(koszul) == 6
        assert sum(_argument(c, 2, "alpha") is not None for c in analyses) == 5
        assert len(analyses) == 6
        assert len(calls["levicivita.weyl_tensor"]) == 7
        # R and R' of the base, R of each rescaled metric, and each sampled
        # form's transformed R' compared with the one base R' in (1,3) form
        assert len(calls["levicivita.curvature_components"]) == 2 + 5 + 5


class TestRescaledAnalysisUsesItsOwnConnection:
    """The criterion and parallel-torsion reports of a rescaled analysis read
    the rescaled Levi-Civita connection; the base one gives a closedness
    defect of order 1 where the rescaled one gives roundoff."""

    @pytest.mark.parametrize("lam", [(1.0, 2.0, 3.0, 4.0), (-0.5, 3.0, 0.25, -7.0)])
    def test_criterion_and_parallel_torsion_agree(self, lam):
        inst = build_example(ExampleParams(lam))
        alpha = random_closed_form(inst.alg, np.random.default_rng(7))
        geo = deformed_geometry(inst, alpha, EPS)
        assert geo.p_criterion.equivalence_holds
        assert geo.p_criterion.closedness_agrees
        p = geo.parallel
        assert (p.dt_defect <= EPS) == (p.dtheta_defect <= EPS) == (p.gradient_identity_defect <= EPS)


class TestParser:
    def test_built_once_and_reused(self, capsys):
        main(["verify-paper", "--lambda=1,2,3,4", "--json"])
        parser = build_parser()
        main(["verify-paper", "--lambda=0,0,0,0", "--json"])
        capsys.readouterr()
        assert build_parser() is parser

    def test_not_built_at_import(self):
        code = "import prodgeo.cli as cli; print(cli.build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(Path(prodgeo.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"
