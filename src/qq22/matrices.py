"""Exact dense linear algebra on plain row lists.

A matrix is a list of equal-length rows.  Every routine copies its input,
rejects a ragged one and takes ``int`` and ``Fraction`` entries only: the
shared gate in ``scalars`` makes anything else a TypeError.  All routines
run on Python ints, scaled by ``scalars.scaled_ints``.  Rank and nullspace
scale each row, which leaves the row space unchanged, and share one integer
Gauss-Jordan reduction that keeps every row primitive; a ``Fraction`` is
formed only for a nullspace entry.  The characteristic polynomial scales
the whole matrix at once, which scales the eigenvalues, and runs
Berkowitz's division-free recurrence (Inf. Process. Lett. 18 (1984)
147-150): O(N^4) integer operations, fewer on sparse input, as its products
skip zero entries.  Its coefficients become ``Fraction`` only at the end.
The determinant is (-1)^N times its constant term.  No float appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .polynomials import UniPoly
from .scalars import check_rational, scaled_ints


def _int_rows(a):
    """Integer copy of a row list: each row scaled by ``scaled_ints``.

    Returns (rows, number of columns).  An entry that is not ``int`` or
    ``Fraction`` is a TypeError; a ragged input is a ValueError.
    """
    rows = []
    for row in a:
        check_rational(row, "matrix entry")
        rows.append(scaled_ints(row)[0])
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged matrix")
    return rows, cols


def _rref(rows, cols):
    """Integer Gauss-Jordan reduction in place; returns the pivot columns.

    Afterwards row r < len(pivots) vanishes in every other pivot column and,
    divided by its entry in column pivots[r], is row r of the reduced row
    echelon form, which is unique.  A row is cleared in column c by
    (p/g) row - (a/g) pivot_row, with p and a the two entries in column c
    and g = gcd(p, a), and then divided by the gcd of its entries, so every
    row it touches stays primitive.
    """
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        prow = rows[piv]
        g = gcd(*prow)
        if g > 1:
            prow = [v // g for v in prow]
        rows[piv] = rows[r]
        rows[r] = prow
        p = prow[c]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                g = gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def mat_rank(a) -> int:
    """Rank: the number of pivots of the reduced row echelon form."""
    rows, cols = _int_rows(a)
    return len(_rref(rows, cols))


def mat_nullspace(a):
    """Basis of the right kernel over Q, one vector per free column.

    The vector of free column f has 1 at f, 0 at the other free columns and
    minus the reduced row echelon entries at the pivot columns.
    """
    rows, cols = _int_rows(a)
    pivots = _rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -Fraction(row[fc], row[pc])
        basis.append(v)
    return basis


def mat_charpoly(a) -> UniPoly:
    """Monic characteristic polynomial det(zI - A), with Fraction coefficients.

    With D from ``scaled_ints`` on all entries at once, B = D A is an
    integer matrix and p_A(z) = D^-N p_B(D z): if p_B = sum_i c_i z^(N-i),
    the coefficient of z^k in p_A is c_(N-k) / D^(N-k).  One D: rows
    scaled by different factors would change the eigenvalues.  Berkowitz's
    recurrence gives the c_i: with B_r the trailing block from row r, split
    as [[a, R], [C, B_(r+1)]], the coefficients of p_(B_r) are the lower
    triangular Toeplitz matrix with first column 1, -a, -R C, -R B_(r+1) C,
    -R B_(r+1)^2 C, ... times those of p_(B_(r+1)).
    """
    rows = list(a)
    for row in rows:
        check_rational(row, "matrix entry")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("ragged or non-square matrix")
    flat, d = scaled_ints([v for row in rows for v in row])
    b = [flat[i * n : i * n + n] for i in range(n)]
    vec = [1]
    for r in range(n - 1, -1, -1):
        # sparse rows of R and of B_(r+1), indexed from column r+1
        brow = [(j, x) for j, x in enumerate(b[r][r + 1 :]) if x]
        block = [[(j, x) for j, x in enumerate(b[i][r + 1 :]) if x] for i in range(r + 1, n)]
        t = [1, -b[r][r]]
        v = [b[i][r] for i in range(r + 1, n)]
        for k in range(len(block)):
            if k:
                v = [sum(x * v[j] for j, x in row) for row in block]
            t.append(-sum(x * v[j] for j, x in brow))
        vec = [sum(map(mul, vec[: i + 1], t[i::-1])) for i in range(len(t))]
    return UniPoly(Fraction(vec[n - k], d ** (n - k)) for k in range(n + 1))


def mat_det(a) -> Fraction:
    """Determinant of a square matrix: (-1)^N p_A(0), from ``mat_charpoly``."""
    p = mat_charpoly(a)
    return (-1) ** p.degree * p[0]
