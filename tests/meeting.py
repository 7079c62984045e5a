"""Test-side views of the dimension-4 meeting system.

The package keeps the meeting system on ints at mu = D lam and checks
rigidity in the system's kernel coordinates.  These helpers give the system
at lam itself, as Fractions, and the exchange-relation gradients that the
full 763 x 35 rigidity stack is built from: the second routes the tests
compare the package against.
"""

from fractions import Fraction

from qq22 import geometry as geo


def plane_meeting_system(lams):
    """The 28 x 35 meeting system at lam, as Fractions: row 4j+k of the
    integer system at mu = D lam divided by D^(3+k)."""
    rows, d = geo._integer_meeting_system(lams)
    return [[Fraction(x, d ** (3 + r % 4)) for x in row] for r, row in enumerate(rows)]


def relation_gradient(rel, v):
    """Gradient of a quadratic exchange relation at v, as a length-35 row."""
    grad = [0] * len(geo.TRIPLES)
    for sign, p1, p2 in rel:
        grad[p1] += sign * v[p2]
        grad[p2] += sign * v[p1]
    return grad
