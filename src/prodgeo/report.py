"""Machine-readable check reports shared by all CLI commands.

A check passes exactly when its defect is at most its tolerance, so a
report parsed back from JSON reproduces every verdict (and hence the exit
status) from the numbers alone.  Indicator checks encode a boolean
agreement as a 0/1 defect against tolerance 0.5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__

INDICATOR_TOL = 0.5


@dataclass(frozen=True)
class Check:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


def indicator(name: str, ok: bool) -> Check:
    return Check(name=name, defect=0.0 if ok else 1.0, tolerance=INDICATOR_TOL)


@dataclass
class Report:
    instance: dict
    epsilon: float
    checks: list[Check] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, defect: float, tolerance: float | None = None) -> Check:
        check = Check(name=name, defect=float(defect), tolerance=self.epsilon if tolerance is None else tolerance)
        self.checks.append(check)
        return check

    def add_indicator(self, name: str, ok: bool) -> Check:
        check = indicator(name, ok)
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_passed else 1

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "instance": self.instance,
            "epsilon": self.epsilon,
            "checks": [
                {"name": c.name, "defect": c.defect, "tolerance": c.tolerance, "pass": c.passed}
                for c in self.checks
            ],
            "flags": self.flags,
            "tables": self.tables,
            "notes": self.notes,
            "exit_status": self.exit_status,
        }

    def to_json(self) -> str:
        # No indent: an indent makes json fall back to its pure-Python encoder.
        return json.dumps(self.to_dict(), default=_jsonable)

    def render_text(self) -> str:
        lines = []
        desc = ", ".join(f"{k}={v}" for k, v in self.instance.items())
        lines.append(f"instance: {desc}")
        lines.append(f"epsilon: {self.epsilon:g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("checks:")
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
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
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


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
        tables=data.get("tables", {}),
        notes=data.get("notes", []),
    )
    for c in data["checks"]:
        rep.checks.append(Check(name=c["name"], defect=c["defect"], tolerance=c["tolerance"]))
    return rep
