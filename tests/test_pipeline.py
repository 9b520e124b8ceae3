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
from prodgeo import cli
from prodgeo.cli import build_parser, main
from prodgeo.conformal import deformed_geometry, random_closed_form
from prodgeo.example import ExampleParams, build_example
from prodgeo.liealg import derived_bases
from prodgeo.pipeline import analyze_instance
from prodgeo.report import Report
from prodgeo.tensors import blocks
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


@pytest.fixture
def commands(tmp_path, hyperbolic_dim8):
    """argv of each command: the builtin family, or the dim-8 hyperbolic instance with a closed form;
    "verify-paper-1111" is the builtin point whose six basis curvatures agree."""
    inst, _ = hyperbolic_dim8
    path = write_json(tmp_path / "hyperbolic8.json", instance_payload(inst))
    alpha = ",".join(repr(x) for x in (0.7 * derived_bases(inst.alg)[1][0]).tolist())
    return {
        "verify-paper": ["verify-paper", "--lambda=1,2,3,4", "--json"],
        "verify-paper-1111": ["verify-paper", "--lambda=1,1,1,1", "--json"],
        "analyze": ["analyze", "--file", path, "--json"],
        "conformal": ["conformal", "--file", path, f"--alpha={alpha}", "--json"],
    }


class TestNothingIsBuiltTwice:
    def test_construction_builds_nothing_and_each_object_is_built_once(self, monkeypatch, inst_1234):
        calls = record_calls(
            monkeypatch, "levicivita.levi_civita_coeffs", "levicivita.curvature_tensor",
            "levicivita.weyl_tensor", "levicivita.psi1_defect",
        )
        a = analyze_instance(inst_1234, EPS)
        assert all(not log for log in calls.values())
        first = a.W
        # the Weyl-invariance residual is a psi1 defect of R - R', not a second Weyl tensor
        assert a.W is first and a.weyl_invariance_residual <= EPS
        assert {name: len(log) for name, log in calls.items()} == {
            "levicivita.levi_civita_coeffs": 1,
            "levicivita.curvature_tensor": 1,
            "levicivita.weyl_tensor": 1,
            "levicivita.psi1_defect": 1,
        }

    def test_conformal_builds_only_what_its_checks_read(self, monkeypatch, capsys, commands):
        # both residuals come from curvature differences: one psi1 defect, of the
        # Weyl tensor of the difference, and no curvature or Weyl tensor of either metric
        calls = record_calls(
            monkeypatch, "levicivita.weyl_tensor", "levicivita.psi1_defect", "levicivita.curvature_tensor",
            "natural.flat_D_report",
            "natural.curvature_Rprime", "levicivita.cov_deriv_components",
            "levicivita.levi_civita_coeffs", "conformal.deformed_geometry", "conformal.conformal_checks",
        )
        assert main(commands["conformal"]) == 0
        assert '"pass": false' not in capsys.readouterr().out
        analyses = calls.pop("conformal.conformal_checks")[0][0]
        assert {name: len(log) for name, log in calls.items()} == {
            "levicivita.weyl_tensor": 0,
            "levicivita.psi1_defect": 1,
            "levicivita.curvature_tensor": 0,
            "natural.flat_D_report": 0,
            "natural.curvature_Rprime": 0,
            "levicivita.cov_deriv_components": 0,
            "levicivita.levi_civita_coeffs": 2,
            "conformal.deformed_geometry": 1,
        }
        for a in analyses:  # the base and the rescaled analysis keep no rank-4 tensor: no R, W or R'
            assert not [key for key, value in vars(a).items() if np.ndim(value) == 4]

    def test_verify_paper_builds_one_base_and_five_rescaled_geometries(self, monkeypatch, capsys):
        calls = record_calls(
            monkeypatch, "levicivita.levi_civita_coeffs", "pipeline.analyze_instance",
            "levicivita.weyl_tensor", "levicivita.psi1_defect", "levicivita.curvature_components",
            "liealg.derived_bases",
        )
        assert main(["verify-paper", "--lambda=1,2,3,4", "--json"]) == 0
        capsys.readouterr()
        koszul = [_argument(c, 1, "dg") for c in calls["levicivita.levi_civita_coeffs"]]
        analyses = [_argument(c, 2, "alpha") for c in calls["pipeline.analyze_instance"]]
        # the base, and one Koszul build for the stack of the five sampled forms
        assert len(koszul) == 2 and [dg.shape for dg in koszul if dg is not None] == [(5, 4, 4, 4)]
        assert len(analyses) == 2 and [alpha.shape for alpha in analyses if alpha is not None] == [(5, 4)]
        # W of the base, for its table; every residual is a psi1 defect: the curvature
        # relation and the Weyl invariance of the base, and the Weyl tensor of the stacked
        # curvature difference
        assert [args[0].shape for args, _ in calls["levicivita.weyl_tensor"]] == [(4, 4, 4, 4)]
        defects = sorted(args[0].shape for args, _ in calls["levicivita.psi1_defect"])
        assert defects == [(4, 4, 4, 4)] * 2 + [(5, 4, 4, 4, 4)]
        # R and R' of the base, and for the stack the curvature difference
        # of the two Levi-Civita connections and that of D
        curvatures = sorted(args[0].shape for args, _ in calls["levicivita.curvature_components"])
        assert curvatures == [(4, 4, 4)] * 2 + [(5, 4, 4, 4)] * 2
        # the five forms are drawn from one closed-form basis: one SVD
        assert len(calls["liealg.derived_bases"]) == 1

    @pytest.mark.parametrize("command", ["verify-paper", "analyze"])
    def test_no_flat_branch_residuals_are_built(self, monkeypatch, capsys, commands, command):
        # the report reads only the flag max|R'| <= eps; on the hyperbolic
        # instance D is flat with parallel torsion, where the residuals would
        # take the curvature derivative one direction slab at a time
        calls = record_calls(monkeypatch, "natural.flat_D_report", "levicivita.cov_deriv_components")
        assert main(commands[command]) == 0
        assert '"flat_natural_connection": true' in capsys.readouterr().out
        assert not calls["natural.flat_D_report"]
        assert not [args for args, _ in calls["levicivita.cov_deriv_components"] if args[1].ndim == 4]

    @pytest.mark.parametrize("command", ["verify-paper", "analyze"])
    def test_torsion_derivative_is_taken_one_direction_at_a_time(self, monkeypatch, capsys, commands, command):
        # the parallel-torsion defect takes the max over the direction blocks of
        # tensors.blocks: one block, so one call, at dims 4 and 8
        calls = record_calls(monkeypatch, "levicivita.cov_deriv_components")
        assert main(commands[command]) == 0
        capsys.readouterr()
        torsion = [args[0].shape[0] for args, _ in calls["levicivita.cov_deriv_components"] if args[1].ndim == 3]
        dim = 4 if command == "verify-paper" else 8
        assert torsion == [b.stop - b.start for b in blocks(dim)] == [dim]

    @pytest.mark.parametrize("command, builds", [("verify-paper", 1), ("analyze", 1), ("conformal", 0)])
    def test_integrability_is_built_once_per_instance_and_only_where_read(
        self, monkeypatch, capsys, commands, command, builds
    ):
        # it reads c and P only: the five rescaled analyses of verify-paper share
        # the base instance's, and conformal reports neither the check nor the flag
        calls = record_calls(monkeypatch, "structure.nijenhuis_tensor")
        assert main(commands[command]) == 0
        out = capsys.readouterr().out
        assert len(calls["structure.nijenhuis_tensor"]) == builds
        assert ('"is_product": true' in out) == (builds == 1)

    def test_integrability_is_cached_on_the_instance(self, monkeypatch, inst_1234):
        calls = record_calls(monkeypatch, "structure.nijenhuis_tensor")
        analyze_instance(inst_1234, EPS).flags  # the class flags do not read it
        assert not calls["structure.nijenhuis_tensor"]
        for _ in range(2):  # two analyses of one instance, read as a report reads them
            assert cli._flags_dict(analyze_instance(inst_1234, EPS))["is_product"]
        assert len(calls["structure.nijenhuis_tensor"]) == 1

    @pytest.mark.parametrize(
        "command, defects",
        [("verify-paper", 3), ("analyze", 2), ("conformal", 1), ("verify-paper-1111", 4)],
    )
    def test_one_psi1_defect_per_curvature_residual_and_four_input_copies_per_call(
        self, monkeypatch, capsys, commands, command, defects
    ):
        # the curvature relation and the Weyl invariance of the base, the conformal Weyl
        # residual of the rescaled geometry, and the space-form residual where the six basis
        # curvatures agree, as at lambda = (1, 1, 1, 1); the copies are c, g, its inverse and P
        calls = record_calls(monkeypatch, "levicivita.psi1_defect", "tensors.freeze")
        assert main(commands[command]) == 0
        capsys.readouterr()
        assert len(calls["levicivita.psi1_defect"]) == defects
        assert len(calls["tensors.freeze"]) == 4

    def test_each_lee_form_derivative_is_taken_once_per_analysis(self, monkeypatch, hyperbolic_dim8):
        inst, _ = hyperbolic_dim8
        base = analyze_instance(inst, EPS)
        rescaled = deformed_geometry(inst, 0.7 * derived_bases(inst.alg)[1][0], EPS)
        calls = record_calls(monkeypatch, "levicivita.cov_deriv_components")
        for a in (base, rescaled):
            # everything a report reads of an analysis
            Report(instance={}, epsilon=EPS).add(a.theorem_checks)
            cli._flags_dict(a)
            cli._tables_dict(a)
            one_forms = [args[0] for args, _ in calls["levicivita.cov_deriv_components"] if args[1].ndim == 1]
            assert len(one_forms) == 2
            assert sum(g is a.nabla for g in one_forms) == sum(g is a.D.gamma for g in one_forms) == 1
            calls["levicivita.cov_deriv_components"].clear()

    @pytest.mark.parametrize("command, samples", [("verify-paper", 5), ("conformal", 1)])
    def test_each_conformal_sample_transforms_D_and_checks_closedness_once(
        self, monkeypatch, capsys, commands, command, samples
    ):
        # verify-paper draws its stack from the closed-form basis and does not judge
        # it again; conformal judges the form it is given; each transforms D once
        calls = record_calls(monkeypatch, "conformal.transform_D", "conformal.closedness_defect")
        assert main(commands[command]) == 0
        capsys.readouterr()
        assert {name: len(log) for name, log in calls.items()} == {
            "conformal.transform_D": 1,
            "conformal.closedness_defect": 0 if command == "verify-paper" else 1,
        }
        alpha = _argument(calls["conformal.transform_D"][0], 1, "alpha")
        assert np.shape(alpha) == ((samples, 4) if command == "verify-paper" else (8,))


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
