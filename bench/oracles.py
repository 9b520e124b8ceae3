"""Per-call output oracles.

Every CLI call must print strict JSON (no NaN or Infinity tokens), exit 0,
and carry verdicts that ``report_from_dict`` re-derives, exit status
included.  On top of that each workload compares the report against answers
that come from the geometry of its inputs (see ``instances``), not from
prodgeo's own code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from prodgeo.report import report_from_dict

REL_TOL = 1e-9

CONFORMAL_CHECKS = frozenset(
    {
        "conformal_curvature_invariance",
        "conformal_weyl_invariance",
        "conformal_class_closure",
        "conformal_lee_reconstruction",
        "conformal_connection_reconstruction",
    }
)

FAMILY_FLAGS = {
    "hyperbolic": {"is_w1": True, "flat_natural_connection": True, "torsion_parallel": True},
    "hyp-product": {"is_w0": True, "flat_natural_connection": False},
}


@dataclass(frozen=True)
class Expected:
    """What one call must report.

    ``kind`` is ``paper``, ``analyze`` or ``conformal``; ``family`` selects
    the flag oracle of ``analyze``;
    ``tau``, ``theta`` and ``theta_rescaled`` are closed-form answers, None
    where the subcommand does not report them.
    """

    kind: str
    family: str | None = None
    tau: float | None = None
    theta: np.ndarray | None = None
    alpha: np.ndarray | None = None
    theta_rescaled: np.ndarray | None = None


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(value, expected, what: str) -> list[str]:
    if value is None:
        return [f"{what}: missing"]
    value = np.asarray(value, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if value.shape != expected.shape:
        return [f"{what}: shape {value.shape}, expected {expected.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    err = float(np.max(np.abs(value - expected), initial=0.0))
    if not err <= REL_TOL * scale:
        return [f"{what}: error {err:.3e} exceeds {REL_TOL:g} x {scale:.3e}"]
    return []


def check_call(code: int, stdout: str, expected: Expected) -> list[str]:
    """Problems found in one call's output; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = strict_loads(stdout)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    try:
        rep = report_from_dict(data)
    except (KeyError, TypeError) as exc:
        return [f"report does not parse back: {exc!r}"]
    problems = []
    if rep.exit_status != data.get("exit_status") or rep.exit_status != code:
        problems.append(
            f"re-derived exit status {rep.exit_status}, report says {data.get('exit_status')}, "
            f"process returned {code}"
        )
    for check, raw in zip(rep.checks, data["checks"]):
        if check.passed != raw.get("pass"):
            problems.append(f"check {check.name}: verdict does not re-derive")

    tables, flags = data.get("tables", {}), data.get("flags", {})
    if expected.tau is not None:
        tau = tables.get("scalar_curvature")
        if not isinstance(tau, (int, float)) or not abs(tau - expected.tau) <= REL_TOL * abs(expected.tau):
            problems.append(f"scalar_curvature {tau!r}, expected {expected.tau!r}")
    if expected.theta is not None:
        problems += _close(tables.get("lee_form"), expected.theta, "lee_form")
    if expected.kind == "paper" and flags.get("is_w1") is not True:
        problems.append("builtin family must be in class W1")
    if expected.kind == "analyze":
        for flag, value in FAMILY_FLAGS[expected.family].items():
            if flags.get(flag) is not value:
                problems.append(f"flag {flag} is {flags.get(flag)!r}, expected {value}")
    if expected.kind == "conformal":
        names = {c.name for c in rep.checks}
        if names != CONFORMAL_CHECKS:
            problems.append(f"conformal checks {sorted(names)}")
        problems += _close(tables.get("alpha"), expected.alpha, "alpha")
        problems += _close(tables.get("lee_form_transformed"), expected.theta_rescaled, "lee_form_transformed")
    return problems
