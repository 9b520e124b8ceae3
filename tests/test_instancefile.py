import math

import numpy as np
import pytest

from prodgeo.instancefile import (
    ParseError,
    instance_from_dict,
    parse_rational,
    parse_rational_matrix,
)


class TestParseRational:
    @pytest.mark.parametrize(
        "value, expected",
        [("3/4", 0.75), ("-1/3", -1.0 / 3.0), (-2, -2.0), ("1e-7", 1e-7)],
    )
    def test_accepted(self, value, expected):
        result = parse_rational(value)
        assert type(result) is float and result == expected

    @pytest.mark.parametrize(
        "value",
        [True, None, "1/0", "x", "1e400", math.nan],
        ids=["bool", "none", "zero_denominator", "not_a_number", "overflow", "nan"],
    )
    def test_rejected(self, value):
        with pytest.raises(ParseError):
            parse_rational(value)


def test_vector_and_matrix_shapes_checked():
    assert np.array_equal(parse_rational_matrix([["1/2", 0], [0, "2"]], 2, 2), np.diag([0.5, 2.0]))
    with pytest.raises(ParseError, match="expected 4 entries, got 3"):
        parse_rational_matrix([[1, 2, 3]], 1, 4)
    with pytest.raises(ParseError, match="expected a 3x3 matrix"):
        parse_rational_matrix([[1, 0], [0, 1]], 3, 3)
    with pytest.raises(ParseError, match="expected 2 entries, got 1"):
        parse_rational_matrix([[1, 0], [0]], 2, 2)


BAD_VALUES = [True, None, "x", "1/0", 10**400, [1], math.nan, math.inf, -math.inf]
BAD_IDS = ["true", "null", "junk", "zero_denominator", "huge_int", "list", "nan", "inf", "minus_inf"]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 3)])
def test_bad_table_entry_names_the_value_as_parse_rational_does(value, where):
    rows = [[0.5, 1, "3/4", -2.0] for _ in range(3)]
    rows[where[0]][where[1]] = value
    with pytest.raises(ParseError) as from_value:
        parse_rational(value)
    with pytest.raises(ParseError) as from_table:
        parse_rational_matrix(rows, 3, 4)
    assert str(from_table.value) == str(from_value.value)


def test_first_non_finite_float_is_named():
    with pytest.raises(ParseError, match=r"got -inf$"):
        parse_rational_matrix([[0.0, 1.0], [-math.inf, math.nan]], 2, 2)


def test_mixed_table_is_bitwise_the_per_entry_parse():
    rows = [
        ["3/4", 1, 0.1, -0.0],
        [-7, "-1/3", 1e-300, 2**60 + 1],
        ["1e-7", "22/7", 1.5e300, 0],
    ]
    table = parse_rational_matrix(rows, 3, 4)
    reference = np.array([[parse_rational(v) for v in row] for row in rows])
    assert table.dtype == np.float64 and table.shape == (3, 4)
    assert table.tobytes() == reference.tobytes()


def test_row_that_is_not_a_list_is_named():
    with pytest.raises(ParseError, match=r"^expected a list of rationals, got 'x'$"):
        parse_rational_matrix([[1, 2], "x"], 2, 2)


@pytest.mark.parametrize("index", [True, False, 1.0, "1"], ids=["true", "false", "float", "string"])
@pytest.mark.parametrize("slot", ["i", "j"])
def test_bracket_index_that_is_not_a_json_integer_is_rejected(index, slot):
    # a JSON true is a Python bool, an int subclass equal to 1: it is no index
    entry = {"i": 1, "j": 2, "coeffs": [0, 0, 1, 0]}
    entry[slot] = index
    payload = {"dim": 4, "brackets": [entry], "metric": np.eye(4).tolist(), "P": np.diag([1, 1, -1, -1]).tolist()}
    with pytest.raises(ParseError, match="bracket indices must be distinct and in 1..4"):
        instance_from_dict(payload)
    entry[slot] = 1 if slot == "i" else 2
    assert instance_from_dict(payload).instance.c[0, 1, 2] == 1.0
