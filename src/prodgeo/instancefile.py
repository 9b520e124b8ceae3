"""Instance file ingestion.

Files are JSON with rational entries given either as numbers or as strings
like "3/4".  An instance is either explicit (dimension, sparse bracket
table with 1-based indices, metric matrix, structure matrix) or a builtin
by name and parameters.  Exactly one of the two forms must be present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import GeometryError
from .example import ExampleParams, build_example
from .liealg import LieFrameAlgebra
from .structure import ProductStructure, RpmInstance
from .tensors import MetricTensor

BUILTIN_NAME = "w1-example"


class ParseError(ValueError):
    """Malformed instance file."""


class InvalidInstance(ValueError):
    """Well-formed file whose data violates a structural axiom needed to build at all.

    Carries the raw component arrays so callers can still emit a defect report.
    """

    def __init__(self, message: str, c: np.ndarray, g: np.ndarray, p: np.ndarray):
        super().__init__(message)
        self.c = c
        self.g = g
        self.p = p


def parse_rational(value) -> float:
    """A finite float from a JSON number or a rational string such as "3/4"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"expected a number or rational string, got {value!r}")
    try:
        result = float(Fraction(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {value!r}") from exc
    except OverflowError as exc:
        raise ParseError(f"{value!r} is too large for a float") from exc
    if not math.isfinite(result):
        raise ParseError(f"expected a finite number, got {value!r}")
    return result


def parse_rational_vector(values, length: int | None = None) -> np.ndarray:
    if not isinstance(values, list):
        raise ParseError(f"expected a list of rationals, got {values!r}")
    vec = np.array([parse_rational(v) for v in values])
    if length is not None and vec.shape != (length,):
        raise ParseError(f"expected {length} entries, got {len(values)}")
    return vec


def parse_rational_matrix(rows, dim: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"expected a {dim}x{dim} matrix")
    return np.stack([parse_rational_vector(row, dim) for row in rows])


@dataclass(frozen=True)
class LoadedInstance:
    instance: RpmInstance
    descriptor: dict


def instance_from_dict(data: dict) -> LoadedInstance:
    if not isinstance(data, dict):
        raise ParseError("instance file must contain a JSON object")
    explicit_keys = {"dim", "brackets", "metric", "P"}
    has_builtin = "builtin" in data
    has_explicit = bool(explicit_keys & set(data))
    if has_builtin == has_explicit:
        raise ParseError("exactly one of 'builtin' or explicit fields must be present")

    if has_builtin:
        builtin = data["builtin"]
        if not isinstance(builtin, dict) or builtin.get("name") != BUILTIN_NAME:
            raise ParseError(f"unknown builtin {builtin!r}; supported: {BUILTIN_NAME}")
        lam = parse_rational_vector(builtin.get("lambda"), 4)
        inst = build_example(ExampleParams(tuple(lam)))
        return LoadedInstance(
            instance=inst,
            descriptor={"kind": "builtin", "name": BUILTIN_NAME, "lambda": lam.tolist()},
        )

    missing = explicit_keys - set(data)
    if missing:
        raise ParseError(f"explicit instance is missing fields {sorted(missing)}")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 4 or dim % 2 != 0:
        raise ParseError(f"dim must be an even integer >= 4, got {dim!r}")

    entries: dict[tuple[int, int], np.ndarray] = {}
    if not isinstance(data["brackets"], list):
        raise ParseError("'brackets' must be a list")
    for entry in data["brackets"]:
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= set(entry):
            raise ParseError(f"bad bracket entry {entry!r}")
        i, j = entry["i"], entry["j"]
        if not all(isinstance(k, int) and 1 <= k <= dim for k in (i, j)) or i == j:
            raise ParseError(f"bracket indices must be distinct and in 1..{dim}, got ({i}, {j})")
        key = (i - 1, j - 1)
        if key in entries or (j - 1, i - 1) in entries:
            raise ParseError(f"duplicate bracket entry for ({i}, {j})")
        entries[key] = parse_rational_vector(entry["coeffs"], dim)

    metric = parse_rational_matrix(data["metric"], dim)
    p = parse_rational_matrix(data["P"], dim)

    try:
        alg = LieFrameAlgebra.from_brackets(dim, entries)
        inst = RpmInstance(
            alg=alg,
            metric=MetricTensor.from_matrix(metric),
            structure=ProductStructure(p),
        )
    except GeometryError as exc:
        c = np.zeros((dim, dim, dim))
        for (i, j), vec in entries.items():
            c[i, j] = vec
            c[j, i] = -vec
        raise InvalidInstance(str(exc), c=c, g=metric, p=p) from exc
    return LoadedInstance(instance=inst, descriptor={"kind": "explicit", "dim": dim})


def load_instance(path: str | Path) -> LoadedInstance:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    loaded = instance_from_dict(data)
    loaded.descriptor.setdefault("path", str(path))
    return loaded
