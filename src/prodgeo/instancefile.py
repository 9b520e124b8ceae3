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
from .structure import RpmInstance

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


def parse_rational_matrix(rows, n_rows: int, width: int) -> np.ndarray:
    """A finite (n_rows, width) table from a list of rows of numbers or rational strings.

    One pass over the values: a JSON float is kept as it is, every other
    value goes through ``parse_rational``; one finiteness check then covers
    the whole table.
    """
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ParseError(f"expected a {n_rows}x{width} matrix")
    for row in rows:
        if not isinstance(row, list):
            raise ParseError(f"expected a list of rationals, got {row!r}")
        if len(row) != width:
            raise ParseError(f"expected {width} entries, got {len(row)}")
    table = np.array(
        [v if type(v) is float else parse_rational(v) for row in rows for v in row], dtype=float
    ).reshape(n_rows, width)
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:
        raise ParseError(f"expected a finite number, got {float(table.flat[bad[0]])!r}")
    return table


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
        lam = parse_rational_matrix([builtin.get("lambda")], 1, 4)[0]
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

    brackets = data["brackets"]
    if not isinstance(brackets, list):
        raise ParseError("'brackets' must be a list")
    keys: dict[tuple[int, int], None] = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= set(entry):
            raise ParseError(f"bad bracket entry {entry!r}")
        i, j = entry["i"], entry["j"]
        if not all(type(k) is int and 1 <= k <= dim for k in (i, j)) or i == j:  # a JSON true is no index
            raise ParseError(f"bracket indices must be distinct and in 1..{dim}, got ({i}, {j})")
        if (i - 1, j - 1) in keys or (j - 1, i - 1) in keys:
            raise ParseError(f"duplicate bracket entry for ({i}, {j})")
        keys[i - 1, j - 1] = None
    coeffs = parse_rational_matrix([entry["coeffs"] for entry in brackets], len(brackets), dim)
    metric = parse_rational_matrix(data["metric"], dim, dim)
    p = parse_rational_matrix(data["P"], dim, dim)

    c = np.zeros((dim, dim, dim))
    first, second = np.array(list(keys), dtype=int).reshape(-1, 2).T
    c[first, second] = coeffs
    c[second, first] = -coeffs
    try:
        inst = RpmInstance(LieFrameAlgebra(dim, c), metric, p)
    except GeometryError as exc:
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
