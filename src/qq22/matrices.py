"""Exact dense linear algebra on plain row lists.

A matrix is a list of equal-length rows.  Every routine copies its input,
rejects a ragged one and takes ``int`` and ``Fraction`` entries only: the
shared gate in ``scalars`` makes anything else a TypeError.  Rank, nullspace
and determinant eliminate on Python ints: each row is scaled by the lcm of
its denominators, which leaves the row space unchanged.  Rank and nullspace
share one integer Gauss-Jordan reduction that keeps every row primitive; a
``Fraction`` is formed only for a nullspace entry.  The determinant runs
Bareiss's fraction-free elimination (Math. Comp. 22 (1968) 565-578) with
exact ``//`` and divides by the row scales once, at the end.  The
characteristic polynomial works over Q, reading ``int`` as ``Fraction``: it
reduces to upper Hessenberg form and runs the Hessenberg recurrence (Cohen,
A Course in Computational Algebraic Number Theory, Alg. 2.2.9), O(N^3)
rational operations.  No float appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polynomials import UniPoly, padd, pmul, pscale
from .scalars import as_fraction, check_rational


def _int_rows(a):
    """Integer copy of a row list: each row times the lcm of its denominators.

    Returns (rows, product of the row scales, number of columns).  An entry
    that is not ``int`` or ``Fraction`` is a TypeError; a ragged input is a
    ValueError.
    """
    rows = []
    scale = 1
    for row in a:
        check_rational(row, "matrix entry")
        den = lcm(*[v.denominator for v in row])
        rows.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged matrix")
    return rows, scale, cols


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
    rows, _, cols = _int_rows(a)
    return len(_rref(rows, cols))


def mat_det(a) -> Fraction:
    """Determinant by Bareiss elimination on the integer rows (square input)."""
    m, scale, n = _int_rows(a)
    if len(m) != n:
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for r in range(n):
        piv = next((i for i in range(r, n) if m[i][r]), None)
        if piv is None:
            return Fraction(0)
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[r]
        # every entry is a minor of the scaled input, so // is exact
        for i in range(r + 1, n):
            a = m[i][r]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], prow)]
        prev = p
    return Fraction(sign * prev, scale)


def mat_nullspace(a):
    """Basis of the right kernel over Q, one vector per free column.

    The vector of free column f has 1 at f, 0 at the other free columns and
    minus the reduced row echelon entries at the pivot columns.
    """
    rows, _, cols = _int_rows(a)
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
    """Monic characteristic polynomial det(zI - A) over Q.

    Entries must be ``int`` or ``Fraction``; ``int`` entries are read as
    ``Fraction``, and any other entry is a TypeError.  A copy of A is
    reduced to upper Hessenberg form H by similarity, then the recurrence
    p_m = (z - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    gives p_N = det(zI - A).
    """
    h = [[as_fraction(v, "matrix entry") for v in row] for row in a]
    n = len(h)
    if any(len(row) != n for row in h):
        raise ValueError("characteristic polynomial of a ragged or non-square matrix")
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        hm = h[m]
        for i in range(m + 1, n):
            hi = h[i]
            if not hi[m - 1]:
                continue
            u = hi[m - 1] / hm[m - 1]
            # row_i -= u row_m, then col_m += u col_i keeps the similarity
            for j in range(m - 1, n):
                if hm[j]:
                    hi[j] -= u * hm[j]
            for row in h:
                if row[i]:
                    row[m] += u * row[i]
    polys = [(Fraction(1),)]
    for m in range(n):
        p = pmul((-h[m][m], Fraction(1)), polys[m])
        prod = Fraction(1)
        for i in range(m - 1, -1, -1):
            prod = prod * h[i + 1][i]
            if not prod:
                break
            p = padd(p, pscale(-h[i][m] * prod, polys[i]))
        polys.append(p)
    return UniPoly(polys[n])
