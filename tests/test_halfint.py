"""Exact half-integer labels: parsing, arithmetic, ordering, and radicands rounded once."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydist.halfint import HalfInteger, ladder_radicand
from fuzzydist.quantum import _literal_radicand, _symmetrized_radicand, _uniform_radicand


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
    assert HalfInteger.from_value(np.int64(-3)) == HalfInteger(-6)
    assert HalfInteger.from_value(Fraction(-5, 2)) == HalfInteger(-5)
    assert HalfInteger.from_value(" 5/2 ") == HalfInteger(5)
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


def _exact(t):
    """v(v+1) for v = t/2 as a Fraction: the reference the integer numerators must round to."""
    return Fraction(t * (t + 2), 4)


def _bits(x):
    assert type(x) is float, x
    return x.hex()


_TWICE = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=300, deadline=None, database=None)
@given(_TWICE, _TWICE)
def test_radicands_are_the_exact_fractions_rounded_once(t, t3):
    """Every radicand is one integer numerator over 4, so its float is the exact rational value
    rounded once: bitwise float(Fraction(...)), the exact forms kept here as the reference, for
    labels up to |2n| = 1e30, where t(t+2) needs 200 bits."""
    n, n3 = HalfInteger(t), HalfInteger(t3)
    ladder = _exact(t) - _exact(t3)
    assert _bits(n.times_self_plus_one()) == _bits(float(_exact(t)))
    assert _bits(ladder_radicand(n, n3)) == _bits(float(ladder))
    literal = _exact(t) - Fraction(t3 * t3, 4) + Fraction(abs(t3), 2)
    assert _bits(_literal_radicand(n, n3)) == _bits(float(literal))
    symmetrized = _exact(t) - min(_exact(v) for v in (t3 - 2, t3, t3 + 2))
    assert _bits(_symmetrized_radicand(n, n3)) == _bits(float(symmetrized))
    assert _bits(_uniform_radicand(n, n3)) == _bits(float(3 * ladder - 1))
    assert hash(HalfInteger(2 * t)) == hash(t)
