"""Two exact symmetries of the geometry, checked through ``analyze`` on both benchmark families.

Replacing P by -P leaves the class, D, every curvature and every defect as they were: each
defect, flag and basis-plane sectional curvature is bitwise equal.  Renumbering the frame
leaves every check's verdict, the flags and the exit code as they were, and permutes the
sectional table with the frame; the defects and curvatures move only by the roundoff of the
reordered sums, which is at most ``PERMUTATION_BOUND`` on these instances.
"""

import json

import numpy as np
import pytest

from bench.instances import FAMILIES, make_instance
from prodgeo.cli import main
from prodgeo.instancefile import load_instance
from prodgeo.liealg import LieFrameAlgebra
from prodgeo.structure import RpmInstance
from tests.conftest import instance_payload

# the largest move measured is 2.1e-14 of a defect, on dim-8 hyperbolic, and 2.7e-15 of a sectional
# curvature, on dim-4 hyperbolic
PERMUTATION_BOUND = 1e-12


def analyze(capsys, tmp_path, name, inst) -> tuple[int, dict]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(instance_payload(inst)))
    code = main(["analyze", "--file", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture(params=[(family, dim) for family in FAMILIES for dim in (4, 6, 8)], ids=lambda p: f"{p[0]}{p[1]}")
def bench_instance(request, tmp_path) -> RpmInstance:
    """A benchmark-family instance as ``analyze`` reads it from its file."""
    family, dim = request.param
    return load_instance(make_instance(family, dim, np.random.default_rng(dim)).write(tmp_path / "bench.json")).instance


def test_negated_structure_changes_no_defect_or_flag(capsys, tmp_path, bench_instance):
    inst = bench_instance
    code, base = analyze(capsys, tmp_path, "base", inst)
    negated_code, negated = analyze(capsys, tmp_path, "negated", RpmInstance(inst.alg, inst.g, -inst.p))
    assert code == negated_code == 0
    assert negated["checks"] == base["checks"]  # names, defects, tolerances and verdicts
    assert negated["flags"] == base["flags"] and negated["notes"] == base["notes"]
    assert json.dumps(negated["tables"]["sectional"]) == json.dumps(base["tables"]["sectional"])


def test_renumbered_frame_keeps_every_verdict(capsys, tmp_path, bench_instance):
    inst = bench_instance
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
