"""Exact scalars: rational serialization and the Gaussian rationals.

Plain rationals are ``fractions.Fraction``.  The one class here covers the
scalar field the rest of the package needs beyond that: Q(i) for basis
normalizations involving sqrt(-1).  It coerces ints and Fractions on the fly
so polynomial and matrix code can use literal 0 and 1.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected int or Fraction, got %r" % (v,))


def rational_str(q: Fraction) -> str:
    """Serialize a rational as ``num/den``, omitting ``/den`` when den == 1."""
    q = _as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @staticmethod
    def _coerce(v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussianRational(v)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_rational(self) -> bool:
        return self.im == 0

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return rational_str(self.re)
        im = rational_str(self.im)
        if self.re == 0:
            return "%s*i" % im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (rational_str(self.re), sign, rational_str(abs(self.im)))
