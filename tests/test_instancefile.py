import math

import numpy as np
import pytest

from prodgeo.instancefile import (
    ParseError,
    parse_rational,
    parse_rational_matrix,
    parse_rational_vector,
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
    assert np.array_equal(parse_rational_matrix([["1/2", 0], [0, "2"]], 2), np.diag([0.5, 2.0]))
    with pytest.raises(ParseError):
        parse_rational_vector([1, 2, 3], 4)
    with pytest.raises(ParseError):
        parse_rational_matrix([[1, 0], [0, 1]], 3)
    with pytest.raises(ParseError):
        parse_rational_matrix([[1, 0], [0]], 2)
