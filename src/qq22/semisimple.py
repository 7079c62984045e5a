"""Cutoff Euler multiplication and the semisimplicity criterion.

The matrix of big quantum multiplication by the Euler field, truncated at
order two in the primitive coordinates with ambient coordinates set to zero,
has an explicit closed-form characteristic polynomial.  Distinct eigenvalues
of the cutoff at a single point witness generic semisimplicity, so the module
verifies the closed form against direct exact computation at sampled rational
points and tests the polynomial for simple roots.

The cutoff's nonzero entries are five families, set block by block in
``cutoff_matrix``: the ambient superdiagonal n-1, the ambient diagonal -s/2
(s the sum of the squared primitive coordinates), three ambient corners, the
primitive rows and columns linear in the coordinates, and the primitive
block tau_j tau_k.  Coordinates are ``int`` or ``Fraction``; the shared gate
in ``scalars`` makes anything else a TypeError.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .matrices import mat_charpoly
from .model import check_dimension
from .polynomials import UniPoly, squarefree
from .scalars import as_fraction, as_ints, rational_str, scaled_ints


def _point(n, taus):
    """Check n and the n+3 primitive coordinates and return them as Fractions."""
    check_dimension(n)
    taus = [as_fraction(v, "primitive coordinate") for v in taus]
    if len(taus) != n + 3:
        raise ValueError("need %d primitive coordinates" % (n + 3))
    return taus


def cutoff_matrix(n, taus):
    """Second-order cutoff of Euler-field multiplication at a primitive point.

    ``taus`` lists the n+3 primitive coordinates, ``int`` or ``Fraction``;
    ambient coordinates are zero.  Entry (j, k) is the coefficient of basis
    vector k in the image of basis vector j.  With s = sum tau_i^2 and j, k
    primitive slots (tau_j the coordinate of slot j), the nonzero entries
    are five families:

    * the superdiagonal m[k-1][k] = n-1 for k = 1..n;
    * the diagonal m[k][k] = -s/2 for k = 1..n-1;
    * three ambient corners m[n-1][0] = -2(n-1)s, m[n][1] = -(2n+6)s and
      m[n][2] = 16(n-1);
    * the tau-linear rows and columns m[j][1] = (n-3)tau_j,
      m[j][n] = (2-n)tau_j/8, m[0][j] = (2-n)tau_j/2 and
      m[n-1][j] = -4(n-1)tau_j;
    * the primitive block m[j][k] = tau_j tau_k off the diagonal and s/2 on it.
    """
    taus = _point(n, taus)
    s = sum(v * v for v in taus)
    size = 2 * n + 4
    m = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, n + 1):
        m[k - 1][k] = Fraction(n - 1)
    for k in range(1, n):
        m[k][k] = -s / 2
    m[n - 1][0] = -2 * (n - 1) * s
    m[n][1] = (-2 * n - 6) * s
    m[n][2] = Fraction(16 * (n - 1))
    for j, t in enumerate(taus, start=n + 1):
        m[j][1] = (n - 3) * t
        m[j][n] = Fraction(2 - n, 8) * t
        m[0][j] = Fraction(2 - n, 2) * t
        m[n - 1][j] = -4 * (n - 1) * t
        m[j][n + 1 :] = [t * u for u in taus]
        m[j][j] = s / 2
    return m


def _times_linear(p, c):
    """The coefficients, lowest degree first, of p(w) (w + c)."""
    return [c * a + b for a, b in zip(p + [0], [0] + p)]


def closed_form_charpoly(n, taus) -> UniPoly:
    """The closed-form characteristic polynomial of the cutoff.

    With s = sum tau_i^2, G the product of the linear factors
    f_i = z - s/2 + tau_i^2 and H = sum tau_i^2 G/f_i (the rational-function
    sum cleared against G), the polynomial is A H + B G, where

        A = (n-1)^{n-1}(-(n-1)(n-2)^2 s^2/4 + 2(n-1)(n-4) s z - 4(n-5) z^2)
            - z^2 (z+s/2)^{n-1},
        B = 4(n-1)^n s z - 16(n-1)^{n-1} z^2 + z^2 (z+s/2)^{n-1}.

    Two identities assemble it with no polynomial division and one power.
    The product rule gives G' = sum G/f_i, and tau_i^2 = f_i - (z - s/2), so
    H = (n+3) G - (z - s/2) G'.  Folding the shared term gives
    A H + B G = (n-1)^{n-1} (a H + b G) + z^2 (z+s/2)^{n-1} (G - H), with a
    and b the brackets of A and B without that term, over (n-1)^{n-1}.

    Everything is computed on ints.  ``scalars.scaled_ints`` turns the
    tau_i^2 into the ints t_i = D tau_i^2, so S = D s = sum t_i, and with
    u = 2D the variable w = u z makes u f_i = w - S + 2 t_i.  So
    g = u^{n+3} G and h = u^{n+3} H are integer polynomials in w, as are
    u^2 a, u^2 b and u^{n+1} z^2 (z+s/2)^{n-1} = w^2 (w+S)^{n-1}, and the
    result is P(u z) / u^{2n+4} for one integer polynomial P: the
    coefficient of z^k is P_k / u^{2n+4-k}, as in ``mat_charpoly``.
    """
    t, d = scaled_ints([v * v for v in _point(n, taus)])
    u = 2 * d
    big_s = sum(t)
    g = [1]
    for v in t:
        g = _times_linear(g, 2 * v - big_s)
    dg = _times_linear([k * c for k, c in enumerate(g)][1:], -big_s)
    h = [(n + 3) * a - b for a, b in zip(g, dg)]
    scale = (n - 1) ** (n - 1) * u ** (n - 1)
    a = (-(n - 1) * (n - 2) ** 2 * big_s * big_s, 4 * (n - 1) * (n - 4) * big_s, -4 * (n - 5))
    b = (0, 8 * (n - 1) * big_s, -16)
    p = [0] * (2 * n + 5)
    for j, (x, y) in enumerate(zip(a, b)):
        for k, (hk, gk) in enumerate(zip(h, g)):
            p[j + k] += scale * (x * hk + y * gk)
    fold = [x - y for x, y in zip(g, h)]
    for _ in range(n - 1):
        fold = _times_linear(fold, big_s)
    for k, c in enumerate(fold, start=2):
        p[k] += c
    top = 2 * n + 4
    return UniPoly(Fraction(c, u ** (top - k)) for k, c in enumerate(p))


def branch_discriminant(n) -> Fraction:
    """Discriminant 64(n-1)(n+2)(n+3)^2 of the order-one branch equation."""
    check_dimension(n)
    return Fraction(64 * (n - 1) * (n + 2) * (n + 3) ** 2)


def zn_minus_az_plus_1_squarefree(n, a) -> bool:
    """Simple-roots test for z^n - a z + 1 with rational a (true for n >= 3)."""
    (n,) = as_ints((n,), "degrees")
    if n < 3:
        raise ValueError("degree must be at least 3")
    a = as_fraction(a, "a")
    return squarefree(UniPoly([Fraction(1), -a] + [Fraction(0)] * (n - 2) + [Fraction(1)]))


class ScanRow(
    namedtuple("ScanRow", "point agrees squarefree degree rejected", defaults=(False,))
):
    """One scan point and its verdicts; a rejected point reads False, False, -1."""

    __slots__ = ()

    def as_dict(self):
        return {**self._asdict(), "point": [rational_str(v) for v in self.point]}


# sample_point draws num/den with |num| <= _NUM_MAX and 1 <= den <= _DEN_MAX
_NUM_MAX = 9
_DEN_MAX = 9
# the number of distinct |v| the sampler can draw
_DISTINCT_ABS = len(
    {Fraction(a, b) for a in range(_NUM_MAX + 1) for b in range(1, _DEN_MAX + 1)}
)


def sample_point(n, rng):
    return tuple(
        Fraction(rng.randint(-_NUM_MAX, _NUM_MAX), rng.randint(1, _DEN_MAX))
        for _ in range(n + 3)
    )


def point_is_degenerate(taus):
    """Two coordinates with equal squares collapse two linear factors."""
    squares = [v * v for v in taus]
    return len(set(squares)) != len(squares)


def semisimple_scan(n, samples, seed):
    """Compare direct and closed-form characteristic polynomials at random points.

    Pseudo-random rational points come from the seed; points with an
    accidental repeated linear factor are reported as rejected and resampled.
    Each accepted row records exact agreement of the two routes and the
    simple-roots flag.  When n+3 exceeds the number of distinct |v| the
    sampler can draw, every point is degenerate, so that is a ValueError; so
    is samples < 1, since an empty scan checks nothing.
    """
    check_dimension(n)
    (samples,) = as_ints((samples,), "samples")
    if samples < 1:
        raise ValueError("samples must be at least 1, got %r" % (samples,))
    if n + 3 > _DISTINCT_ABS:
        raise ValueError(
            "n=%d needs %d distinct |coordinates|; the sampler draws only %d"
            % (n, n + 3, _DISTINCT_ABS)
        )
    rng = random.Random(seed)
    rows = []
    accepted = 0
    while accepted < samples:
        taus = sample_point(n, rng)
        if point_is_degenerate(taus):
            rows.append(ScanRow(taus, False, False, -1, rejected=True))
            continue
        direct = mat_charpoly(cutoff_matrix(n, taus))
        closed = closed_form_charpoly(n, taus)
        rows.append(
            ScanRow(taus, direct == closed, squarefree(direct), direct.degree)
        )
        accepted += 1
    return rows
