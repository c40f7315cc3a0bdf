"""Exact half-integer labels: parsing, arithmetic, ordering."""

from fractions import Fraction

import pytest

from fuzzydist.halfint import HalfInteger, ladder_radicand


def test_construction_and_twice():
    assert HalfInteger(3).twice == 3
    assert str(HalfInteger(3)) == "3/2"
    assert str(HalfInteger(4)) == "2"
    assert str(HalfInteger(-1)) == "-1/2"


def test_parse_forms():
    assert HalfInteger.parse("3/2") == HalfInteger(3)
    assert HalfInteger.parse("-2") == HalfInteger(-4)
    assert HalfInteger.parse("0") == HalfInteger(0)
    assert HalfInteger.parse(" 5/2 ") == HalfInteger(5)
    assert HalfInteger.parse("1.5") == HalfInteger(3)


@pytest.mark.parametrize("bad", ["abc", "1/3", "", "3/", "1.3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        HalfInteger.parse(bad)


def test_from_value():
    assert HalfInteger.from_value(1.5) == HalfInteger(3)
    assert HalfInteger.from_value(2) == HalfInteger(4)
    with pytest.raises(ValueError):
        HalfInteger.from_value(0.3)


def test_arithmetic_and_order():
    h = HalfInteger(3)
    assert h + HalfInteger(1) == HalfInteger(4)
    assert h - 1 == HalfInteger(1)
    assert -h == HalfInteger(-3)
    assert float(h) == 1.5
    assert sorted([HalfInteger(3), HalfInteger(-1), HalfInteger(2)]) == [
        HalfInteger(-1), HalfInteger(2), HalfInteger(3)]
    assert hash(HalfInteger(2)) == hash(HalfInteger(2))


def test_exact_fractions():
    # n(n+1) for n = 3/2 is 15/4, exactly
    assert HalfInteger(3).times_self_plus_one() == Fraction(15, 4)
    # n(n+1) - n3(n3+1) at (3/2, 1/2) is 15/4 - 3/4 = 3
    assert ladder_radicand(HalfInteger(3), HalfInteger(1)) == Fraction(3)
