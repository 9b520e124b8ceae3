"""Benchmark of the prodgeo CLI.

Run from the repository root:

    python3 bench/run.py --workload paper-d4 --seed 1 --seconds 20 --trace 0

One process drives the CLI in-process through ``prodgeo.cli.main(argv)``
with stdout captured, as a closed loop with one client: the next call starts
when the previous one has returned and its output has been checked.  Inputs
come from ``--seed``; the program only sees the generated instance files and
arguments.  See NOTES.md for why each workload exists.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 11
TAIL_BEYOND = 10
INSTANCES_PER_FAMILY = 4


@dataclass(frozen=True)
class Workload:
    kind: str  # the subcommand: paper, analyze or conformal
    dim: int


WORKLOADS = {
    "paper-d4": Workload("paper", 4),
    "analyze-d16": Workload("analyze", 16),
    "conformal-d24": Workload("conformal", 24),
}


def _floats(values) -> str:
    """Comma-joined floats for ``--lambda=`` and ``--alpha=``.

    The ``=`` form is required: argparse reads a separate value that starts
    with ``-`` as an option and exits 2.
    """
    return ",".join(repr(float(v)) for v in values)


def paper_batches(seed: int):
    """Endless one-call batches of verify-paper on random builtin parameters."""
    import numpy as np

    from instances import builtin_brackets, orthonormal_scalar_curvature, paper_lambdas
    from oracles import Expected

    rng = np.random.default_rng(seed)
    while True:
        lam = paper_lambdas(rng)
        argv = ["verify-paper", f"--lambda={_floats(lam)}", "--seed", str(int(rng.integers(2**31))), "--json"]
        yield [(argv, Expected("paper", tau=orthonormal_scalar_curvature(builtin_brackets(lam))))]


def instance_batches(workload: Workload, seed: int, workdir: Path):
    """Endless batches over a pool of generated instance files.

    Each batch holds one call per family, so a run that stops between
    batches has exactly half of its calls on each.
    """
    from instances import make_pool
    from oracles import Expected

    calls = []
    for k, inst in enumerate(make_pool(seed, workload.dim, INSTANCES_PER_FAMILY)):
        path = str(inst.write(workdir / f"instance-{k}.json"))
        if workload.kind == "analyze":
            argv = ["analyze", "--file", path, "--json"]
            expected = Expected("analyze", family=inst.family, tau=inst.tau, theta=inst.theta)
        else:
            argv = ["conformal", "--file", path, f"--alpha={_floats(inst.alpha)}", "--json"]
            expected = Expected("conformal", alpha=inst.alpha, theta_rescaled=inst.theta_rescaled)
        calls.append((argv, expected))
    yield from cycle([calls[k : k + 2] for k in range(0, len(calls), 2)])


def invoke(cli_main, argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_calls(batches, seconds: float, recorder=None) -> tuple[Phase, Phase]:
    """Run batches until ``seconds`` of wall time have passed; time each CLI call.

    One batch first warms lazy imports and caches and is checked but not
    timed.  Each call's output is checked and garbage is collected between
    calls, outside the timed region.  With a recorder, batches alternate
    between untraced and traced, so both see the same inputs and the same
    machine state; returns the (untraced, traced) phases.
    """
    import prodgeo.cli
    from oracles import check_call

    untraced, traced = Phase(), Phase()
    warm = True
    deadline = 0.0  # set once the warm-up batch is done
    while warm or time.perf_counter() < deadline:
        tracing = recorder is not None and not warm and len(untraced.times) > len(traced.times)
        phase = traced if tracing else untraced
        if tracing:
            recorder.install()
        try:
            for argv, expected in next(batches):
                if tracing:
                    recorder.call += 1
                try:
                    code, out, err, elapsed = invoke(prodgeo.cli.main, argv)
                    problems = check_call(code, out, expected)
                    if problems and err:
                        problems.append(f"stderr: {err.strip()}")
                except Exception as exc:  # a call that raises is a failed call; keep going
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                out = None
                gc.collect()
                phase.attempted += 1
                if problems:
                    phase.failed += 1
                    phase.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")
                elif not warm:
                    phase.times.append(elapsed)
        finally:
            if tracing:
                recorder.restore()
        if warm:
            warm = False
            deadline = time.perf_counter() + seconds
    return untraced, traced


def setup_seconds() -> list[float]:
    """Wall times of fresh interpreters that import the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import prodgeo.cli"], env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(phase: Phase) -> tuple[dict[str, float], list[str]]:
    setup = setup_seconds()
    times = phase.times
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "calls_per_s": len(times) / sum(times),
        "call_ms_p50": 1e3 * statistics.median(times),
        "call_ms_tail": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_pass_share": (phase.attempted - phase.failed) / phase.attempted,
    }
    notes = [
        f"timed calls: {len(times)}; tail is p{tail_pct:.1f} ({TAIL_BEYOND} samples beyond it)",
        f"fail_share: {phase.failed / phase.attempted:g} ({phase.failed} of {phase.attempted} calls)",
        f"setup launches: {SETUP_LAUNCHES}, median of {', '.join(f'{t:.4f}' for t in setup)} s",
    ]
    return metrics, notes


def per_layer(untraced: Phase, traced: Phase, recorder, dump_path: Path) -> tuple[dict[str, float], list[str]]:
    from spans import TRACED, bytes_per_call, koszul_per_geometry, layer_metrics

    calls = recorder.call
    metrics = layer_metrics(recorder, calls)
    metrics["report.bytes_per_call"] = bytes_per_call(recorder, calls)
    metrics["levicivita.koszul_per_geometry"] = koszul_per_geometry(recorder)
    untraced_mean = sum(untraced.times) / len(untraced.times)
    traced_mean = sum(traced.times) / len(traced.times)
    metrics["trace.overhead_share"] = traced_mean / untraced_mean - 1.0
    recorder.dump(dump_path)
    notes = [
        f"untraced calls: {len(untraced.times)}, mean {1e3 * untraced_mean:.3f} ms; "
        f"traced calls: {calls}, mean {1e3 * traced_mean:.3f} ms",
        f"spans: {len(recorder.spans)}, written to {dump_path.relative_to(ROOT)}",
        "per CLI call, every traced function (calls, ms, self ms):",
    ]
    notes += [
        f"  {name:<36} {metrics[f'{name}.calls']:9.3f} {metrics[f'{name}.ms']:11.4f} {metrics[f'{name}.self_ms']:11.4f}"
        for name, _, _ in TRACED
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prodgeo" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: run from a prodgeo checkout; {SRC / 'prodgeo'} or {SPEC.name} is missing", file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy loads; cap its threads at the CPUs we may use.
    os.environ.update({var: str(NPROC) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import prodgeo

    if Path(prodgeo.__file__).resolve().parent != SRC / "prodgeo":
        print(f"error: imported prodgeo from {prodgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    workload = WORKLOADS[args.workload]
    work_parent = BENCH_DIR / ".work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=work_parent) as workdir:
        if workload.kind == "paper":
            batches = paper_batches(args.seed)
        else:
            batches = instance_batches(workload, args.seed, Path(workdir))
        recorder = None
        if args.trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
        untraced, traced = run_calls(batches, args.seconds, recorder)

    phases = [untraced, traced]
    for phase in phases:
        for problem in phase.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
    if not untraced.times or (recorder is not None and not traced.times):
        print("error: no call passed its checks, so nothing was timed", file=sys.stderr)
        return 1
    if recorder is not None:
        dump = BENCH_DIR / ".out" / f"spans-{args.workload}-{args.seed}.json"
        values, notes = per_layer(untraced, traced, recorder, dump)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(untraced)
        wanted = spec["end_to_end"]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, BLAS threads {NPROC}")
    for note in notes:
        print(f"  {note}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
