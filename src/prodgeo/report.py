"""Machine-readable check reports shared by all CLI commands.

A check passes exactly when its defect is at most its tolerance, so a
report parsed back from JSON reproduces every verdict (and hence the exit
status) from the numbers alone.  The exit status is 0 when every check
passes, 3 when a failing check belongs to the structure gate
(``structure.GATE``) and 1 otherwise; the commands print a report's status
and exit with it.  Checks are added as ``{check name: defect}``
dicts, in which a bool stands for an indicator: a boolean agreement, encoded
as a 0/1 defect against tolerance 0.5.

A table of rank 3 or more is reported by ``table_summary``: its max, its
norm and its count of entries above the tolerance, a fixed size whatever
the dimension.

JSON has no NaN or infinity, so a non-finite defect or table number is
written as null, and the report then carries a failing ``non_finite``
check whose defect counts them.  That check is derived, not stored: a
parsed report reads each null back as NaN and derives it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .structure import GATE
from .tensors import blocks, max_abs

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_STRUCTURE_FAILURE = 3
EXIT_NOT_CLOSED = 4

INDICATOR_TOL = 0.5
NON_FINITE = "non_finite"


@dataclass(frozen=True)
class Check:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


@dataclass
class Report:
    instance: dict
    epsilon: float
    checks: list[Check] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, checks: dict) -> None:
        """Append ``{check name: defect}`` in order: a bool is an indicator, true when it agrees."""
        for name, defect in checks.items():
            if isinstance(defect, (bool, np.bool_)):
                self.checks.append(Check(name, 0.0 if defect else 1.0, INDICATOR_TOL))
            else:
                self.checks.append(Check(name, float(defect), self.epsilon))

    def finish(self) -> tuple[list[Check], dict, int]:
        """One walk of the tables: the checks, then a failing ``non_finite`` check if any number is
        NaN or infinite; the tables with each such number nulled; the exit status.  ``to_dict``,
        ``to_json`` and ``render_text`` take it as ``finished``, or walk the tables themselves."""
        tables, count = _nulled(self.tables)
        count += sum(not math.isfinite(c.defect) for c in self.checks)
        checks = self.checks + ([Check(NON_FINITE, float(count), 0.0)] if count else [])
        failed = {c.name for c in checks if not c.passed}
        status = EXIT_STRUCTURE_FAILURE if failed & GATE else EXIT_CHECK_FAILURE if failed else EXIT_PASS
        return checks, tables, status

    @property
    def exit_status(self) -> int:
        return self.finish()[2]

    def to_dict(self, finished=None) -> dict:
        checks, tables, status = finished or self.finish()
        return {
            "version": __version__,
            "instance": self.instance,
            "epsilon": self.epsilon,
            "checks": [
                {"name": c.name, "defect": _nulled(c.defect)[0], "tolerance": c.tolerance, "pass": c.passed}
                for c in checks
            ],
            "flags": self.flags,
            "tables": tables,
            "notes": self.notes,
            "exit_status": status,
        }

    def to_json(self, finished=None) -> str:
        # No indent: an indent makes json fall back to its pure-Python encoder.
        return json.dumps(self.to_dict(finished), default=_jsonable, allow_nan=False)

    def render_text(self, finished=None) -> str:
        checks, _, status = finished or self.finish()
        lines = []
        desc = ", ".join(f"{k}={v}" for k, v in self.instance.items())
        lines.append(f"instance: {desc}")
        lines.append(f"epsilon: {self.epsilon:g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("checks:")
        width = max((len(c.name) for c in checks), default=0)
        for c in checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {verdict}  {c.name:<{width}}  defect={c.defect:.3e}  tol={c.tolerance:.3e}"
            )
        if self.flags:
            lines.append("flags:")
            for key, value in self.flags.items():
                lines.append(f"  {key} = {value}")
        if self.tables:
            lines.append("tables:")
            for key, value in self.tables.items():
                lines.append(f"  {key} = {_format_table(value)}")
        lines.append(f"exit: {status}")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _nulled(value):
    """``value`` with each NaN or infinity replaced by None, and how many there were."""
    if isinstance(value, np.ndarray):
        bad = ~np.isfinite(value)
        count = int(bad.sum())
        return (np.where(bad, None, value) if count else value), count
    if isinstance(value, dict):
        pairs = {key: _nulled(item) for key, item in value.items()}
        return {key: v for key, (v, _) in pairs.items()}, sum(n for _, n in pairs.values())
    if isinstance(value, float) and not math.isfinite(value):
        return None, 1
    return value, 0


def table_summary(arr, eps: float) -> dict:
    """max |x|, the Frobenius norm and the number of entries with |x| > ``eps``.

    The norm is taken of the array scaled by its max, so it overflows only
    when the norm itself does.  A NaN or infinite entry makes max and norm
    non-finite, so the report writes both as null.
    """
    arr = np.asarray(arr, dtype=float)
    top = max_abs(arr)
    nonzero, norm_sq = 0, 0.0
    for b in blocks(len(arr), arr.ndim):
        a = np.abs(arr[b]).ravel()  # one first-slot block's copy, scaled in place below
        nonzero += int(np.count_nonzero(a > eps))
        if 0.0 < top < math.inf:
            a /= top
            norm_sq += a.dot(a)
    return {"max": top, "norm": top * math.sqrt(norm_sq) if math.isfinite(top) else math.nan, "nonzero": nonzero}


def _restored(value):
    """A parsed table value as the report held it: lists become float arrays, null becomes NaN."""
    if isinstance(value, dict):
        return {key: _restored(item) for key, item in value.items()}
    if isinstance(value, list):
        return np.asarray(value, dtype=float)
    return math.nan if value is None else value


def _format_table(value) -> str:
    if isinstance(value, np.ndarray):
        return np.array2string(value, precision=6, suppress_small=True, separator=", ")
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_format_table(v)}" for k, v in value.items()) + "}"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_from_dict(data: dict) -> Report:
    """Rebuild a report from parsed JSON; verdicts re-derive from the numbers."""
    rep = Report(
        instance=data["instance"],
        epsilon=data["epsilon"],
        flags=data.get("flags", {}),
        tables=_restored(data.get("tables", {})),
        notes=data.get("notes", []),
    )
    for c in data["checks"]:
        if c["name"] != NON_FINITE:  # derived again from the numbers
            defect = math.nan if c["defect"] is None else c["defect"]
            rep.checks.append(Check(name=c["name"], defect=defect, tolerance=c["tolerance"]))
    return rep
