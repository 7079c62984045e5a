"""Fixed data of an even-dimensional intersection of two quadrics.

Every public entry point that takes the dimension n passes it through
``check_dimension``, the one gate that refuses all but an even int n >= 4.
Cohomology basis layout used everywhere: slots 0..n are the ambient classes
(1 and the n hyperplane powers, either cup powers h_i or small-quantum powers
ht_i depending on the coordinate system), slots n+1..2n+3 the orthonormal
middle-dimensional primitive classes.  All basis-dependent constants live in
this module and nowhere else.  The inverse pairing, the Euler field and the
t -> tau change are built once per dimension, as the sparse tuples the
engine reads.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import as_ints


def check_dimension(n):
    """n when it is an even int >= 4 (so never a bool); a ValueError otherwise."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise ValueError("dimension must be even and >= 4, got %r" % (n,))
    return n


@functools.lru_cache(maxsize=None)
def eta_inverse(n: int):
    """Inverse Poincare pairing in the small-quantum basis, row by row.

    Row e is the tuple of its nonzero entries (f, eta^{ef}), f ascending:
    -4 when e+f = 1, 1/4 on the ambient antidiagonal e+f = n, 1 on the
    primitive diagonal.
    """
    check_dimension(n)
    rows = []
    for e in range(2 * n + 4):
        if e > n:
            rows.append(((e, Fraction(1)),))
        elif e <= 1:
            rows.append(((1 - e, Fraction(-4)), (n - e, Fraction(1, 4))))
        else:
            rows.append(((n - e, Fraction(1, 4)),))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def t_to_tau(n: int):
    """Cup-coordinate derivatives that are not a single tau derivative.

    Returns ((j, ((k, c), ...)), ...) with d/dt^j = sum c d/dtau^k, for the
    two slots j = n-1 and j = n; every other d/dt^j is d/dtau^j.
    """
    check_dimension(n)
    return (
        (n - 1, ((n - 1, Fraction(1)), (0, Fraction(-4)))),
        (n, ((n, Fraction(1)), (1, Fraction(-12)))),
    )


def ambient_3pt_tau(n: int, a: int, b: int, c: int) -> Fraction:
    """Three ambient insertions in small-quantum coordinates.

    4 * 16^((a+b+c-n)/(n-1)) when the exponent is a nonnegative integer,
    zero otherwise.  Totally symmetric in (a, b, c).
    """
    check_dimension(n)
    for v in as_ints((a, b, c), "ambient indices"):
        if not 0 <= v <= n:
            raise ValueError("ambient index out of range: %r" % (v,))
    q, r = divmod(a + b + c - n, n - 1)
    if r or q < 0:
        return Fraction(0)
    return Fraction(4) * Fraction(16) ** q


@functools.lru_cache(maxsize=None)
def euler_field(n: int):
    """Euler vector field in small-quantum coordinates.

    E = (n-1) d_1 + sum_{i<=n} (1-i) tau^i d_i + sum_{prim} (1-n/2) tau^i d_i
      + (4n-4) tau^{n-1} d_0 + (12n-12) tau^n d_1.

    Returns (d_1 constant, diagonal weights, moves): the weight of slot i is
    the coefficient of tau^i d_i, and the moves are the two off-diagonal
    linear terms as (tau slot, d slot, coefficient).  The field is diagonal
    in the cup coordinates, so each move comes from ``t_to_tau``: with
    tau^k = t^k + c t^j the term w_k t^k d_k becomes
    w_k tau^k d_k - c (w_k - w_j) tau^j d_k.
    """
    check_dimension(n)
    diag = tuple(
        Fraction(1 - i) if i <= n else Fraction(2 - n, 2) for i in range(2 * n + 4)
    )
    moves = tuple((j, k, -c * (diag[k] - diag[j])) for j, (_, (k, c)) in t_to_tau(n))
    return Fraction(n - 1), diag, moves
