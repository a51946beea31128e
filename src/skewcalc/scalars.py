"""Exact Gaussian-rational scalars.

All coefficient arithmetic in the package is exact.  A
:class:`GaussianRational` holds one normalized integer triple (a, b, d)
for the value (a + b*i)/d, with d > 0 and gcd(a, b, d) == 1, so equal
values have equal triples and equality and hashing are integer
compares.  Each operation is one formula on the integer triples,
reduced once (Knuth, TAOCP vol. 2, 4.5.1): a power squares and
multiplies the integer pair (a, b) and takes one gcd with d^k at the
end.  ``re``, ``im`` and ``abs2()`` hand out ``fractions.Fraction``
values.  Only seminorm evaluation (which needs square roots and real
powers) goes through binary64 floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

_gcd = math.gcd
_new = object.__new__
# Types whose as_integer_ratio() is in lowest terms, and the only other
# operands + - * accept; any other type gets NotImplemented, so that its
# own reflected method answers (a scalar times an element, say).
_EXACT = (int, Fraction)


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    Immutable in the way ``Fraction`` is: the triple lives in private
    slots, and ``re`` and ``im`` are read-only properties.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        # two reduced fractions over the lcm of their denominators give a
        # triple that is already in lowest terms
        a, d = _ratio(re)
        b, e = _ratio(im)
        lcm = math.lcm(d, e)
        return _make(a * (lcm // d), b * (lcm // e), lcm)

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational(other)
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and not isinstance(other, _EXACT):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational(other)
        a, b, d = self._a, self._b, self._d
        c, f, e = other._a, other._b, other._d
        return _reduced(a * c - b * f, a * f + b * c, d * e)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero")
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        a, b, d = self._a, self._b, self._d
        # square-and-multiply on the integer pair, then one gcd
        dk = d**k
        re, im = 1, 0
        while True:
            if k & 1:
                re, im = re * a - im * b, re * b + im * a
            k >>= 1
            if not k:
                return _reduced(re, im, dk)
            a, b = a * a - b * b, 2 * a * b

    def abs2(self) -> Fraction:
        """|q|^2 as an exact rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __abs__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is
        a, b, d = self._a, self._b, self._d
        return math.sqrt((a * a + b * b) / (d * d))

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __reduce__(self):
        # rebuild through the constructor: without a __getstate__, pickle
        # protocols 0 and 1 refuse a class with __slots__
        return GaussianRational, (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _ratio(value) -> tuple:
    """(numerator, denominator) in lowest terms of an int, a Fraction or
    anything ``Fraction`` accepts."""
    if not isinstance(value, _EXACT):
        value = Fraction(value)
    return value.as_integer_ratio()


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar of a triple already in lowest terms with d > 0."""
    obj = _new(GaussianRational)
    obj._a = a
    obj._b = b
    obj._d = d
    return obj


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b i)/d for any d > 0, brought to lowest terms."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)
