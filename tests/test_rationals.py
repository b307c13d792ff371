from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mscott.rationals import (
    RatGrid,
    format_rational,
    lcm_denominator,
    parse_rational,
)

rationals = st.fractions(max_denominator=64)


@given(rationals, rationals, rationals)
def test_field_laws_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_grid_1d():
    g = RatGrid(1, F(1, 2), F(1))
    assert list(g.points()) == [(F(0),), (F(1, 2),), (F(1),)]


def test_grid_2d():
    g = RatGrid(2, F(1), F(1))
    assert list(g.points()) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_grid_dim0():
    assert list(RatGrid(0, F(1), F(1)).points()) == [()]


def test_grid_ragged_bound():
    g = RatGrid(1, F(2, 5), F(1))
    assert g.axis() == (F(0), F(2, 5), F(4, 5), F(1))


def test_grid_len():
    assert len(RatGrid(2, F(1, 4), F(1))) == 25


def test_parse_format_roundtrip():
    for text in ["3/4", "-2/7", "5", "0"]:
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q
    assert format_rational(F(3, 1)) == "3"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("nope")


def test_lcm_denominator():
    assert lcm_denominator([F(1, 4), F(1, 6), F(2)]) == 12
