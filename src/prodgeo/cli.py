"""Command-line verification tool.

Three subcommands: ``verify-paper`` runs the golden-table battery and the
theorem suite on the builtin family, ``analyze`` runs the pipeline on an
instance file, ``conformal`` checks the conformal-invariance statements
for a given closed 1-form.  Reports are plain text or JSON (--json).

Exit codes: 0 all checks pass, 1 check failure, 2 parse/argument error,
3 structural validation failure, 4 closedness violation.  A printed report
states the code the process exits with (see ``report``); codes 2 and 4, and
3 from a ``GeometryError`` raised before any report, print only an
``error:`` line on stderr.
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
from .instancefile import InvalidInstance, ParseError, load_instance, parse_rational
from .pipeline import InstanceAnalysis, analyze_instance
from .report import EXIT_NOT_CLOSED, EXIT_PARSE_ERROR, EXIT_STRUCTURE_FAILURE, Report, table_summary
from .structure import INSTANCE_BUILDABLE, structure_defects
from .tensors import DEFAULT_EPS


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
        "is_product": a.inst.nijenhuis_defect <= a.eps,
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


def _conformal_sweep(a: InstanceAnalysis, seed: int) -> dict[str, float]:
    """The largest of each conformal defect over five random closed 1-forms, rescaled as one stack; drawn
    from the closed-form basis, they are not judged closed again (their bracket defect is its roundoff)."""
    alg, rng = a.inst.alg, np.random.default_rng(seed)
    alphas = np.array([conformal_mod.random_closed_form(alg, rng) for _ in range(5)])
    return conformal_mod.conformal_checks(a, analyze_instance(a.inst, a.eps, alphas))


def cmd_verify_paper(args) -> Report:
    lam = _parse_tuple(args.lam, 4, "--lambda")
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
        {"conformal_class_membership": a.flags.conformal_class_residual, "integrability": a.inst.nijenhuis_defect}
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
    return rep


def _unbuildable_report(args, exc: InvalidInstance) -> Report:
    """The report of an instance file that parses but cannot be built.

    Its structure defects may all pass (a singular metric has no negative
    eigenvalue), so it ends with a failing ``instance_buildable`` indicator."""
    rep = Report(instance={"kind": "explicit", "path": args.file}, epsilon=args.epsilon)
    rep.notes.append(f"instance cannot be built: {exc}")
    rep.add(structure_defects(exc.c, exc.g, exc.p, rep.epsilon).checks)
    rep.add({INSTANCE_BUILDABLE: False})
    return rep


def cmd_analyze(args) -> Report:
    loaded = load_instance(args.file)
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
    return rep


def cmd_conformal(args) -> Report:
    loaded = load_instance(args.file)
    inst = loaded.instance
    eps = args.epsilon
    alpha = np.array(_parse_tuple(args.alpha, inst.dim, "--alpha"))

    a = analyze_instance(inst, eps)
    rep = Report(instance=loaded.descriptor, epsilon=eps)
    if not a.structure.ok:  # the structure gate: its checks alone
        rep.add(a.structure.checks)
        return rep

    geo = conformal_mod.deformed_geometry(inst, alpha, eps)  # NotClosed exits 4 in main
    rep.tables["alpha"] = alpha
    rep.add(conformal_mod.conformal_checks(a, geo))
    rep.tables["lee_form_transformed"] = geo.lee.theta
    return rep


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

# The exit code of a run that ends in one of these errors, with no report; a
# subclass takes the code of its nearest listed base (NotClosed is a GeometryError).
_ERROR_EXITS = {ParseError: EXIT_PARSE_ERROR, NotClosed: EXIT_NOT_CLOSED, GeometryError: EXIT_STRUCTURE_FAILURE}


def _warning_notes(caught) -> list[str]:
    """One note per distinct category and message, in the order first raised."""
    return list(dict.fromkeys(f"warning: {w.category.__name__}: {w.message}" for w in caught))


def main(argv=None) -> int:
    """Run a command; its report goes to stdout with the warnings it raised as notes,
    and the process exits with the status the report states.

    stderr carries only ``error:`` lines, for runs that end without a report.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_list_options(argv))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = _COMMANDS[args.command](args)
        except InvalidInstance as exc:
            rep = _unbuildable_report(args, exc)
        except tuple(_ERROR_EXITS) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(_ERROR_EXITS[kind] for kind in type(exc).__mro__ if kind in _ERROR_EXITS)
    rep.notes.extend(_warning_notes(caught))
    finished = rep.finish()  # the one walk of the tables
    print(rep.to_json(finished) if args.json else rep.render_text(finished))
    return finished[2]


if __name__ == "__main__":
    sys.exit(main())
