"""Span recorder for the traced run.

The recorder wraps public prodgeo functions from outside the program.  A
name can be bound in several modules at once (``cli`` and ``natural`` import
functions directly), so every ``prodgeo`` module attribute that holds the
original function is replaced, and all of them are put back afterwards.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (span name, module, attribute path); the name drops the "prodgeo." prefix
# and, for methods, the class.
TRACED = (
    ("cli", "prodgeo.cli", "main"),
    ("instancefile.load_instance", "prodgeo.instancefile", "load_instance"),
    ("structure.validate_structure", "prodgeo.structure", "validate_structure"),
    ("pipeline.analyze_instance", "prodgeo.pipeline", "analyze_instance"),
    ("levicivita.levi_civita_coeffs", "prodgeo.levicivita", "levi_civita_coeffs"),
    ("levicivita.curvature_tensor", "prodgeo.levicivita", "curvature_tensor"),
    ("levicivita.weyl_tensor", "prodgeo.levicivita", "weyl_tensor"),
    ("levicivita.cov_deriv_components", "prodgeo.levicivita", "cov_deriv_components"),
    ("levicivita.sectional_curvature", "prodgeo.levicivita", "sectional_curvature"),
    ("natural.curvature_Rprime", "prodgeo.natural", "curvature_Rprime"),
    ("natural.flat_D_report", "prodgeo.natural", "flat_D_report"),
    ("natural.p_curvature_criterion", "prodgeo.natural", "p_curvature_criterion"),
    ("natural.torsion_identity_defects", "prodgeo.natural", "torsion_identity_defects"),
    ("conformal.deformed_geometry", "prodgeo.conformal", "deformed_geometry"),
    ("conformal.conformal_weyl_residual", "prodgeo.conformal", "conformal_weyl_residual"),
    ("example.verify_against_tables", "prodgeo.example", "verify_against_tables"),
    ("example.constant_curvature_flags", "prodgeo.example", "constant_curvature_flags"),
    ("report.to_json", "prodgeo.report", "Report.to_json"),
)


def _note_alpha(args, kwargs, result):
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return tuple(float(x) for x in alpha)


# What a span keeps about its call besides timing.
NOTES = {
    # json.dumps escapes non-ASCII, so characters are bytes
    "report.to_json": lambda args, kwargs, result: len(result),
    "conformal.deformed_geometry": _note_alpha,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's spans, -1 at the top
    call: int  # the CLI call this span belongs to
    note: object = None


class SpanRecorder:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in loaded prodgeo modules."""
        modules = [m for key, m in sys.modules.items() if key == "prodgeo" or key.startswith("prodgeo.")]
        for name, module, attr in TRACED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            targets = [owner] if path else [m for m in modules if getattr(m, leaf, None) is original]
            for target in targets:
                self._patched.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def restore(self) -> None:
        while self._patched:
            target, leaf, original = self._patched.pop()
            setattr(target, leaf, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children run on the caller's thread one after another, so they never
        overlap and their durations add.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.call] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "call"], "spans": rows}))


def layer_metrics(recorder: SpanRecorder, calls: int) -> dict[str, float]:
    """Per-CLI-call totals by span name: ``<name>.calls``, ``.ms`` and ``.self_ms``.

    ``.ms`` is inclusive time of the outermost span of each name, so a
    function that reaches itself is not counted twice; ``.self_ms`` excludes
    time in traced callees.
    """
    calls = max(calls, 1)
    count: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    spans = recorder.spans
    for span, self_time in zip(spans, recorder.self_times()):
        count[span.name] = count.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + self_time
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end - span.start)
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = count.get(name, 0) / calls
        out[f"{name}.ms"] = 1e3 * inclusive.get(name, 0.0) / calls
        out[f"{name}.self_ms"] = 1e3 * own.get(name, 0.0) / calls
    return out


def koszul_per_geometry(recorder: SpanRecorder) -> float:
    """Koszul builds per distinct geometry needed.

    Builds are ``levi_civita_coeffs`` calls plus ``deformed_geometry`` calls;
    each CLI call needs its base geometry plus one per distinct non-zero
    rescaling form passed to ``deformed_geometry``.
    """
    builds = 0
    forms: dict[int, set] = {}
    for span in recorder.spans:
        if span.name == "levicivita.levi_civita_coeffs":
            builds += 1
        elif span.name == "conformal.deformed_geometry":
            builds += 1
            if any(span.note):
                forms.setdefault(span.call, set()).add(span.note)
    geometries = len({s.call for s in recorder.spans}) + sum(len(f) for f in forms.values())
    return builds / max(geometries, 1)


def bytes_per_call(recorder: SpanRecorder, calls: int) -> float:
    """Bytes of report JSON produced per CLI call."""
    return sum(s.note for s in recorder.spans if s.name == "report.to_json") / max(calls, 1)
