"""Exact half-integer arithmetic.

Spin labels and magnetic quantum numbers live in Z/2. Storing twice the
value as a plain int keeps products like n(n+1) - n3(n3+1) exact until the
final float conversion, which avoids spurious ties between eigenvalues that
differ by tiny rationals.
"""

from __future__ import annotations

from fractions import Fraction
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
        """Build from an int, float or Fraction that equals some p/2 exactly; ValueError
        for any other value, a bool or a non-finite float included."""
        if isinstance(value, HalfInteger):
            return cls(value.twice)
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(2 * value)
        try:
            frac = Fraction(value)
        except (OverflowError, ValueError):  # inf, nan
            frac = None
        if isinstance(value, bool) or frac is None or frac.denominator not in (1, 2):
            raise ValueError("%r is not a half-integer" % (value,))
        return cls(int(frac * 2))

    @classmethod
    def parse(cls, text: str) -> "HalfInteger":
        """Accept "3/2", "-1/2", "2", "1.5" style strings."""
        s = text.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            if den.strip() != "2":
                raise ValueError("half-integer strings use denominator 2: %r" % text)
            p = int(num)
            return cls(p)
        if "." in s:
            f = Fraction(s)
            if f.denominator not in (1, 2):
                raise ValueError("%r is not a half-integer" % text)
            return cls(int(f * 2))
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
        return hash(Fraction(self.twice, 2))

    # ---- views ---------------------------------------------------------

    def __float__(self):
        return self.twice / 2.0

    def times_self_plus_one(self) -> Fraction:
        """Exact value of v(v+1), as a Fraction (denominator divides 4)."""
        return Fraction(self.twice * (self.twice + 2), 4)

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


def ladder_radicand(n: HalfInteger, n3: HalfInteger) -> Fraction:
    """n(n+1) - n3(n3+1) exactly; the square of a raising matrix element."""
    return n.times_self_plus_one() - n3.times_self_plus_one()
