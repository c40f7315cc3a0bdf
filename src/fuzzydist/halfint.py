"""Exact half-integer arithmetic in plain ints.

Spin labels and magnetic quantum numbers live in Z/2. A HalfInteger stores t = 2v,
so v(v+1) is the integer t(t+2) over 4, and so is each radicand such as
n(n+1) - n3(n3+1). Python divides ints with one correct rounding at any size, so
a radicand's float is its exact value rounded once: no spurious eigenvalue ties.
"""

from __future__ import annotations

import operator
from functools import total_ordering


@total_ordering
class HalfInteger:
    """A number of the form p/2 with p a signed integer."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        # constructor takes TWICE the value; use from_value/parse for p/2 inputs
        if not isinstance(twice, int):
            raise TypeError("twice must be int, got %r" % (twice,))
        self.twice = twice

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_value(cls, value) -> "HalfInteger":
        """Build from an integer (numpy's too) or an exact ratio (float, numpy float, Fraction)
        equal to some p/2, or parse a string; ValueError for any other value, a bool or a
        non-finite float included."""
        if isinstance(value, HalfInteger):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        try:  # integers by index, other numbers by their exact ratio
            p, q = ((operator.index(value), 1) if hasattr(value, "__index__")
                    else value.as_integer_ratio())
        except (AttributeError, OverflowError, TypeError, ValueError):  # not a number; inf, nan
            q = None
        if isinstance(value, bool) or q not in (1, 2):
            raise ValueError("%r is not a half-integer" % (value,))
        return cls(p if q == 2 else 2 * p)

    @classmethod
    def parse(cls, text: str) -> "HalfInteger":
        """Accept "3/2", "-1/2", "2", "1.5" style strings."""
        s = text.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            if den.strip() != "2":
                raise ValueError("half-integer strings use denominator 2: %r" % text)
            return cls(int(num))
        if "." in s:
            from fractions import Fraction  # a decimal string, read exactly
            return cls.from_value(Fraction(s))
        return cls(2 * int(s))

    # ---- arithmetic (exact) -------------------------------------------

    def __add__(self, other):
        return HalfInteger(self.twice + _twice(other))

    def __sub__(self, other):
        return HalfInteger(self.twice - _twice(other))

    def __neg__(self):
        return HalfInteger(-self.twice)

    def __eq__(self, other):
        try:
            return self.twice == _twice(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.twice < _twice(other)

    def __hash__(self):
        # an integer value equals the int twice // 2, so it must hash like it
        return hash(self.twice // 2) if self.twice % 2 == 0 else hash((self.twice, 2))

    # ---- views ---------------------------------------------------------

    def __float__(self):
        return self.twice / 2.0

    def times_self_plus_one(self) -> float:
        """v(v+1) = t(t+2)/4, t = 2v, rounded once to a float."""
        return _quarters(self.twice) / 4

    def __repr__(self):
        return "HalfInteger(%s)" % str(self)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return "%d/2" % self.twice


def _twice(other) -> int:
    if isinstance(other, HalfInteger):
        return other.twice
    if isinstance(other, int):
        return 2 * other
    raise TypeError("cannot mix HalfInteger with %r" % (other,))


def _quarters(t: int) -> int:
    """4 v(v+1) for v = t/2: the integer t(t+2)."""
    return t * (t + 2)


def ladder_radicand(n: HalfInteger, n3: HalfInteger) -> float:
    """n(n+1) - n3(n3+1), the square of a raising matrix element: one integer numerator
    over 4, rounded once to a float."""
    return (_quarters(n.twice) - _quarters(n3.twice)) / 4
