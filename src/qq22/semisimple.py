"""Cutoff Euler multiplication and the semisimplicity criterion.

The matrix of big quantum multiplication by the Euler field, truncated at
order two in the primitive coordinates with ambient coordinates set to zero,
has an explicit closed-form characteristic polynomial.  Distinct eigenvalues
of the cutoff at a single point witness generic semisimplicity, so the module
verifies the closed form against direct exact computation at sampled rational
points and tests the polynomial for simple roots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .matrices import mat_charpoly
from .model import ModelParams
from .polynomials import UniPoly, squarefree
from .scalars import rational_str


def cutoff_matrix(n, taus):
    """Second-order cutoff of Euler-field multiplication at a primitive point.

    ``taus`` lists the n+3 primitive coordinates; ambient coordinates are
    zero.  Entry (j, k) is the coefficient of basis vector k in the image of
    basis vector j.
    """
    p = ModelParams(n)
    taus = [Fraction(v) for v in taus]
    if len(taus) != p.num_primitive:
        raise ValueError("need %d primitive coordinates" % p.num_primitive)
    s = sum(v * v for v in taus)
    size = p.basis_size
    m = [[Fraction(0)] * size for _ in range(size)]

    def tau(k):
        return taus[k - n - 1]

    for j in range(size):
        for k in range(size):
            v = Fraction(0)
            if k == 0:
                if j == n - 1:
                    v = -2 * (n - 1) * s
            elif k == 1:
                if j == 0:
                    v = Fraction(n - 1)
                elif j == 1:
                    v = -s / 2
                elif j == n:
                    v = (-2 * n - 6) * s
                elif p.is_primitive_slot(j):
                    v = (n - 3) * tau(j)
            elif 2 <= k <= n - 1:
                if j == k - 1:
                    v = Fraction(n - 1)
                elif j == k:
                    v = -s / 2
                elif (j, k) == (n, 2):
                    v = Fraction(16 * (n - 1))
            elif k == n:
                if j == n - 1:
                    v = Fraction(n - 1)
                elif p.is_primitive_slot(j):
                    v = Fraction(2 - n, 8) * tau(j)
            else:  # primitive column
                if j == 0:
                    v = Fraction(2 - n, 2) * tau(k)
                elif j == n - 1:
                    v = -4 * (n - 1) * tau(k)
                elif p.is_primitive_slot(j):
                    v = s / 2 if j == k else tau(j) * tau(k)
            m[j][k] = v
    return m


def closed_form_charpoly(n, taus) -> UniPoly:
    """The closed-form characteristic polynomial of the cutoff.

    Assembles ((n-1)^{n-1}(-(n-1)(n-2)^2 s^2/4 + 2(n-1)(n-4) s z
    - 4(n-5) z^2) - z^2 (z+s/2)^{n-1}) * H + (4(n-1)^n s z
    - 16(n-1)^{n-1} z^2 + z^2 (z+s/2)^{n-1}) * G, where G is the product of
    the linear factors z - s/2 + tau_i^2 and H the partial-sum form of the
    rational-function sum cleared against G.
    """
    ModelParams(n)
    taus = [Fraction(v) for v in taus]
    if len(taus) != n + 3:
        raise ValueError("need %d primitive coordinates" % (n + 3))
    s = sum(v * v for v in taus)
    z = UniPoly.x()
    factors = [z + (v * v - s / 2) for v in taus]
    g = UniPoly.constant(Fraction(1))
    for f in factors:
        g = g * f
    h = UniPoly.zero()
    for i, v in enumerate(taus):
        if not v:
            continue
        part = UniPoly.constant(v * v)
        for k, f in enumerate(factors):
            if k != i:
                part = part * f
        h = h + part
    zs = z + UniPoly.constant(s / 2)
    pw = zs ** (n - 1)
    c = Fraction((n - 1) ** (n - 1))
    abracket = (
        UniPoly.constant(c * Fraction(-(n - 1) * (n - 2) ** 2, 4) * s * s)
        + z * (c * 2 * (n - 1) * (n - 4) * s)
        + z * z * (c * Fraction(-4 * (n - 5)))
        - z * z * pw
    )
    bbracket = (
        z * Fraction(4 * (n - 1) ** n) * s
        - z * z * Fraction(16 * (n - 1) ** (n - 1))
        + z * z * pw
    )
    return abracket * h + bbracket * g


def branch_discriminant(n) -> Fraction:
    """Discriminant 64(n-1)(n+2)(n+3)^2 of the order-one branch equation."""
    ModelParams(n)
    val = Fraction(64 * (n - 1) * (n + 2) * (n + 3) ** 2)
    if val <= 0:
        raise ArithmeticError("branch discriminant must be positive")
    return val


def zn_minus_az_plus_1_squarefree(n, a) -> bool:
    """Simple-roots test for z^n - a z + 1 with rational a (true for n >= 3)."""
    if n < 3:
        raise ValueError("degree must be at least 3")
    a = Fraction(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    coeffs[1] = -a
    coeffs[n] = Fraction(1)
    return squarefree(UniPoly(coeffs))


@dataclass
class ScanRow:
    point: tuple
    agrees: bool
    squarefree: bool
    degree: int
    rejected: bool = False

    def as_dict(self):
        return {
            "point": [rational_str(v) for v in self.point],
            "agrees": self.agrees,
            "squarefree": self.squarefree,
            "degree": self.degree,
            "rejected": self.rejected,
        }


# sample_point draws num/den with |num| <= _NUM_MAX and 1 <= den <= _DEN_MAX
_NUM_MAX = 9
_DEN_MAX = 9


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
    ModelParams(n)
    if samples < 1:
        raise ValueError("samples must be at least 1, got %r" % (samples,))
    distinct = len(
        {Fraction(a, b) for a in range(_NUM_MAX + 1) for b in range(1, _DEN_MAX + 1)}
    )
    if n + 3 > distinct:
        raise ValueError(
            "n=%d needs %d distinct |coordinates|; the sampler draws only %d"
            % (n, n + 3, distinct)
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
