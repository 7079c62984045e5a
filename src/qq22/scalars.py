"""Exact scalars: rational serialization and a minimal Gaussian rational.

Every scalar the package computes is an ``int`` or ``fractions.Fraction``.
``GaussianRational`` has no caller in the package.  It keeps only the ``+``,
``*`` and ``==`` (ints and Fractions coerced) that the tests use and whose
calls the benchmark tracer counts.
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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)
