"""Exact scalars: rational and integer gates, scaled ints, serialization, a Gaussian rational.

Every scalar the package computes is an ``int`` or ``fractions.Fraction``.
``check_rational`` and ``as_fraction`` are the one gate that turns any other
input into a ``TypeError`` naming what was passed; the matrix, polynomial,
semisimplicity and engine entry points all go through it.  ``as_ints`` is
the one integer gate: an exponent, index, count or length that is not an
integer, or is a bool, is a ``ValueError`` naming the input.  ``scaled_ints``
is the one rule for clearing denominators: every exact kernel that runs on
ints scales its rationals through it.  ``GaussianRational`` has no caller in
the package.  It keeps only the ``+``, ``*`` and ``==`` (ints and Fractions
coerced) that the tests use and whose calls the benchmark tracer counts.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

RATIONAL = (int, Fraction)


def check_rational(values, what):
    """TypeError "<what> must be int or Fraction, got v" at the first v that is not."""
    for v in values:
        if not isinstance(v, RATIONAL):
            raise TypeError("%s must be int or Fraction, got %r" % (what, v))


def as_ints(values, what):
    """The values as a tuple of ints; ValueError "<what> must be integers, got v"
    at the first v that is a bool or that ``operator.index`` refuses (4.0,
    Fraction(4), "4")."""
    out = []
    for v in values:
        if not isinstance(v, bool):
            try:
                out.append(operator.index(v))
                continue
            except TypeError:
                pass
        raise ValueError("%s must be integers, got %r" % (what, v))
    return tuple(out)


def as_fraction(v, what="value"):
    """v as a Fraction, checked by ``check_rational``; a Fraction is returned as is."""
    if isinstance(v, Fraction):
        return v
    check_rational((v,), what)
    return Fraction(v)


def scaled_ints(values):
    """(ints, D): the values times D, the lcm of their denominators ([], 1 if none)."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def rational_str(q: Fraction) -> str:
    """Serialize a rational as ``num/den``, omitting ``/den`` when den == 1."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @staticmethod
    def _coerce(v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, RATIONAL):
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
