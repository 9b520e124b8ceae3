"""Command-line verification tool.

Three subcommands: ``verify-paper`` runs the golden-table battery and the
theorem suite on the builtin family, ``analyze`` runs the pipeline on an
instance file, ``conformal`` checks the conformal-invariance statements
for a given closed 1-form.  Reports are plain text or JSON (--json).

Exit codes: 0 all checks pass, 1 check failure, 2 parse/argument error,
3 structural validation failure, 4 closedness violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import conformal as conformal_mod
from . import example
from .errors import GeometryError, NotClosed
from .instancefile import (
    InvalidInstance,
    LoadedInstance,
    ParseError,
    load_instance,
    parse_rational,
)
from .pipeline import InstanceAnalysis, analyze_instance
from .report import Report, table_summary
from .structure import structure_defects
from .tensors import DEFAULT_EPS

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_STRUCTURE_FAILURE = 3
EXIT_NOT_CLOSED = 4


def _at_least_zero(cast):
    """An argparse type: ``cast(text)``, finite and >= 0 (a JSON-valid tolerance, a numpy seed)."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite {cast.__name__} >= 0, got {text!r}")
        return value

    return parse


def _parse_tuple(text: str, length: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != length:
        raise ParseError(f"{what} needs {length} comma-separated values, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _flags_dict(a: InstanceAnalysis) -> dict:
    return {
        "is_w0": a.flags.is_w0,
        "is_w1": a.flags.is_w1,
        "is_product": a.flags.is_product,
        "flat_natural_connection": a.is_flat,
        "torsion_parallel": a.parallel.verdict,
    }


def _tables_dict(a: InstanceAnalysis) -> dict:
    """Objects of rank <= 2 in full; each of rank 3 or 4 as its ``table_summary``."""
    return {
        "lee_form": a.lee.theta,
        "levi_civita_gamma": table_summary(a.nabla, a.eps),
        "curvature": table_summary(a.R, a.eps),
        "ricci": a.ricci.rho,
        "scalar_curvature": a.ricci.tau,
        "sectional": {f"k_{i + 1}{j + 1}": k for (i, j), k in a.sectional.items()},
        "natural_gamma": table_summary(a.D.gamma, a.eps),
        "torsion": table_summary(a.D.T, a.eps),
        "natural_curvature": table_summary(a.Rprime, a.eps),
        "weyl": table_summary(a.W, a.eps),
        "trace_s": a.S.trace_S,
    }


def _conformal_sweep(a: InstanceAnalysis, seed: int, samples: int = 5) -> dict[str, float]:
    """The largest of each conformal defect over ``samples`` random closed 1-forms, rescaled as one stack."""
    alg, rng = a.inst.alg, np.random.default_rng(seed)
    alphas = np.array(
        [conformal_mod.require_closed(alg, conformal_mod.random_closed_form(alg, rng), a.eps) for _ in range(samples)]
    )
    return conformal_mod.conformal_checks(a, analyze_instance(a.inst, a.eps, alphas))


def cmd_verify_paper(args) -> tuple[Report | None, int | None]:
    try:
        lam = _parse_tuple(args.lam, 4, "--lambda")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE_ERROR

    eps = args.epsilon
    params = example.ExampleParams(lam)
    inst = example.build_example(params)
    rep = Report(
        instance={"kind": "builtin", "name": "w1-example", "lambda": list(lam)},
        epsilon=eps,
    )

    a = analyze_instance(inst, eps)
    rep.add(a.structure.checks)
    rep.add(
        {"conformal_class_membership": a.flags.conformal_class_residual, "integrability": a.flags.nijenhuis_defect}
    )
    rep.add(example.verify_against_tables(params, a))
    if params.degenerate:
        rep.notes.append(
            "degenerate parameters: structure-parallel case, scalar curvature is 0, torsion vanishes"
        )
    rep.add(a.theorem_checks)
    rep.add(_conformal_sweep(a, args.seed))

    flags = example.constant_curvature_flags(params, a)
    rep.add(
        {
            "constant_invariant_agreement": flags.invariant_agrees,
            "constant_anti_invariant_agreement": flags.anti_invariant_agrees,
            "constant_sectional_agreement": flags.sectional_agrees,
        }
    )

    rep.flags.update(_flags_dict(a))
    rep.flags.update(
        {
            "const_invariant": flags.const_invariant,
            "const_anti_invariant": flags.const_anti_invariant,
            "const_sectional": flags.const_sectional,
        }
    )
    rep.tables.update(_tables_dict(a))
    if flags.space_form_residual is not None:
        rep.tables["space_form_residual"] = flags.space_form_residual
        if flags.cross_terms:
            rep.notes.append(
                "constant basis sectional curvature holds; the curvature tensor still has "
                "parameter cross terms, so it is not proportional to the space-form tensor"
            )
    return rep, None


def _load(path: str, rep_kwargs: dict) -> tuple[LoadedInstance | None, Report | None, int]:
    """Load an instance; on failure return a diagnostic report and exit code."""
    try:
        return load_instance(path), None, EXIT_PASS
    except InvalidInstance as exc:
        rep = Report(instance={"kind": "explicit", "path": path}, **rep_kwargs)
        rep.notes.append(f"instance cannot be built: {exc}")
        rep.add(structure_defects(exc.c, exc.g, exc.p, rep.epsilon).checks)
        return None, rep, EXIT_STRUCTURE_FAILURE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, EXIT_PARSE_ERROR


def cmd_analyze(args) -> tuple[Report | None, int | None]:
    loaded, failure_rep, code = _load(args.file, {"epsilon": args.epsilon})
    if loaded is None:
        return failure_rep, code

    inst = loaded.instance
    eps = args.epsilon
    rep = Report(instance=loaded.descriptor, epsilon=eps)
    a = analyze_instance(inst, eps)
    rep.add(a.structure.checks)
    rep.add(a.theorem_checks)
    rep.flags.update(_flags_dict(a))
    rep.tables.update(_tables_dict(a))
    if not a.flags.is_w1:
        rep.notes.append(
            "instance is outside the conformally flat product class; "
            "the natural-connection identities are not expected to hold"
        )
    return rep, EXIT_STRUCTURE_FAILURE if not a.structure.ok else None


def cmd_conformal(args) -> tuple[Report | None, int | None]:
    loaded, failure_rep, code = _load(args.file, {"epsilon": args.epsilon})
    if loaded is None:
        return failure_rep, code

    inst = loaded.instance
    eps = args.epsilon
    try:
        alpha = np.array(_parse_tuple(args.alpha, inst.dim, "--alpha"))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE_ERROR

    a = analyze_instance(inst, eps)
    if not a.structure.ok:
        rep = Report(instance=loaded.descriptor, epsilon=eps)
        rep.add(a.structure.checks)
        return rep, EXIT_STRUCTURE_FAILURE

    geo = conformal_mod.deformed_geometry(inst, alpha, eps)  # NotClosed exits 4 in main
    rep = Report(instance=loaded.descriptor, epsilon=eps)
    rep.tables["alpha"] = alpha
    rep.add(conformal_mod.conformal_checks(a, geo))
    rep.tables["lee_form_transformed"] = geo.lee.theta
    return rep, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Verify curvature and conformal identities of the natural "
        "connection on Riemannian product manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--epsilon", type=_at_least_zero(float), default=DEFAULT_EPS, help="check tolerance")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_verify = sub.add_parser("verify-paper", help="golden-table and theorem battery for the builtin family")
    p_verify.add_argument("--lambda", dest="lam", required=True, metavar="a,b,c,d",
                          help="four rational family parameters")
    p_verify.add_argument("--seed", type=_at_least_zero(int), default=0, help="seed for sampled closed 1-forms")
    common(p_verify)

    p_analyze = sub.add_parser("analyze", help="full geometric analysis of an instance file")
    p_analyze.add_argument("--file", required=True, help="instance file (JSON)")
    common(p_analyze)

    p_conf = sub.add_parser("conformal", help="conformal-invariance checks for a closed 1-form")
    p_conf.add_argument("--file", required=True, help="instance file (JSON)")
    p_conf.add_argument("--alpha", required=True, metavar="a,b,...",
                        help="frame components of the closed 1-form")
    common(p_conf)
    return parser


# Options whose comma-list value may start with "-", which argparse would
# otherwise read as an option of its own.
_LIST_OPTIONS = ("--lambda", "--alpha")


def _join_list_options(argv: list[str]) -> list[str]:
    """Rewrite "--lambda -1,2,3,4" as "--lambda=-1,2,3,4"."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _LIST_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


_COMMANDS = {"verify-paper": cmd_verify_paper, "analyze": cmd_analyze, "conformal": cmd_conformal}


def _warning_notes(caught) -> list[str]:
    """One note per distinct category and message, in the order first raised."""
    return list(dict.fromkeys(f"warning: {w.category.__name__}: {w.message}" for w in caught))


def main(argv=None) -> int:
    """Run a command; its report goes to stdout with the warnings it raised as notes.

    stderr carries only ``error:`` lines, for runs that end without a report.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_list_options(argv))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep, code = _COMMANDS[args.command](args)
        except NotClosed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_CLOSED
        except GeometryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STRUCTURE_FAILURE
    if rep is not None:
        rep.notes.extend(_warning_notes(caught))
        finished = rep.finish()  # the one walk of the tables
        print(rep.to_json(finished) if args.json else rep.render_text(finished))
        code = finished[2] if code is None else code  # a command's None: the report's own status
    return code


if __name__ == "__main__":
    sys.exit(main())
