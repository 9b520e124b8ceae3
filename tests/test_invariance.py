"""Exact symmetries of the geometry, checked through ``analyze`` on both benchmark families, the
builtin instance and that instance in moved frames, and a scaling of the builtin family's
parameters, checked through ``verify-paper``.

Replacing P by -P leaves the class, D, every curvature and every defect as they were: each
defect, flag and basis-plane sectional curvature is bitwise equal.  Renumbering the frame
leaves every check's verdict, the flags and the exit code as they were, and permutes the
sectional table with the frame; the defects and curvatures move only by the roundoff of the
reordered sums, which is at most ``PERMUTATION_BOUND`` on these instances.  Scaling the
parameters by t in [1e-4, 300] leaves every verdict, the flags and the exit code as they were.
"""

import json

import numpy as np
import pytest

from bench.instances import FAMILIES, make_instance
from prodgeo.cli import main
from prodgeo.example import ExampleParams, build_example
from prodgeo.instancefile import load_instance
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance
from tests.conftest import instance_payload, moved_frame

# the largest move measured is 2.0e-13 of a defect and 1.8e-14 of a sectional curvature, both on the
# builtin moved by seed 3; on the benchmark families, 2.1e-14 of a defect, on dim-8 hyperbolic, and
# 2.7e-15 of a sectional curvature, on dim-4 hyperbolic
PERMUTATION_BOUND = 1e-12


def analyze(capsys, tmp_path, name, inst) -> tuple[int, dict]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(instance_payload(inst)))
    code = main(["analyze", "--file", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


BUILTIN = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))


@pytest.fixture(
    params=[
        *((family, dim) for family in FAMILIES for dim in (4, 6, 8)),
        ("builtin", None),
        *(("moved-builtin", seed) for seed in range(4)),
    ],
    ids=lambda p: p[0] if p[1] is None else f"{p[0]}{p[1]}",
)
def instance(request, tmp_path) -> RpmInstance:
    """A benchmark-family instance as ``analyze`` reads it from its file, the builtin instance
    at lambda = (1, 2, 3, 4), or that instance moved by a seeded frame change."""
    family, n = request.param
    if family == "builtin":
        return BUILTIN
    if family == "moved-builtin":
        return moved_frame(BUILTIN.alg.c, BUILTIN.p, n)
    return load_instance(make_instance(family, n, np.random.default_rng(n)).write(tmp_path / "bench.json")).instance


def test_negated_structure_changes_no_defect_or_flag(capsys, tmp_path, instance):
    inst = instance
    code, base = analyze(capsys, tmp_path, "base", inst)
    negated_code, negated = analyze(capsys, tmp_path, "negated", RpmInstance(inst.alg, inst.g, -inst.p))
    assert code == negated_code == 0
    assert negated["checks"] == base["checks"]  # names, defects, tolerances and verdicts
    assert negated["flags"] == base["flags"] and negated["notes"] == base["notes"]
    assert json.dumps(negated["tables"]["sectional"]) == json.dumps(base["tables"]["sectional"])


def test_renumbered_frame_keeps_every_verdict(capsys, tmp_path, instance):
    inst = instance
    perm = np.random.default_rng(inst.dim).permutation(inst.dim)
    assert (perm != np.arange(inst.dim)).any()
    c = inst.alg.c[np.ix_(perm, perm, perm)]
    moved = RpmInstance(LieFrameAlgebra(inst.dim, c), inst.g[np.ix_(perm, perm)], inst.p[np.ix_(perm, perm)])
    code, base = analyze(capsys, tmp_path, "base", inst)
    moved_code, renumbered = analyze(capsys, tmp_path, "renumbered", moved)
    assert code == moved_code == 0
    assert renumbered["flags"] == base["flags"]
    assert [(c["name"], c["pass"]) for c in renumbered["checks"]] == [(c["name"], c["pass"]) for c in base["checks"]]
    moves = [abs(a["defect"] - b["defect"]) for a, b in zip(renumbered["checks"], base["checks"])]
    assert max(moves) <= PERMUTATION_BOUND
    # X'_a = X_perm[a], so k'_ab = k_{perm a, perm b}, read from the table at its i < j key
    k, moved_k = base["tables"]["sectional"], renumbered["tables"]["sectional"]
    assert len(moved_k) == len(k) == inst.dim * (inst.dim - 1) // 2
    for a in range(inst.dim):
        for b in range(a + 1, inst.dim):
            i, j = sorted((perm[a] + 1, perm[b] + 1))
            assert abs(moved_k[f"k_{a + 1}{b + 1}"] - k[f"k_{i}{j}"]) <= PERMUTATION_BOUND


def verify_paper(capsys, lam) -> tuple[int, dict]:
    code = main(["verify-paper", f"--lambda={','.join(repr(v) for v in lam)}", "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("lam", [(1.0, 2.0, 3.0, 4.0), (-0.5, 3.0, 0.25, -7.0), (2.0, 2.0, 1.0, 3.0)], ids=str)
def test_scaled_parameters_keep_every_verdict_and_flag(capsys, lam):
    code, base = verify_paper(capsys, lam)
    verdicts = [(c["name"], c["pass"]) for c in base["checks"]]
    for t in (1e-4, 1e-2, 0.1, 10.0, 300.0):
        scaled_code, scaled = verify_paper(capsys, [t * v for v in lam])
        assert scaled_code == code == 0, t
        assert scaled["flags"] == base["flags"], t
        assert [(c["name"], c["pass"]) for c in scaled["checks"]] == verdicts, t
