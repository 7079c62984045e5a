"""Exact dense linear algebra on plain row lists.

A matrix is a list of equal-length rows.  Every routine copies its input
and rejects a ragged one.  The determinant uses
fraction-free (Bareiss) elimination to keep intermediate entries small; rank
and nullspace share one Gauss-Jordan reduction over a field; the
characteristic polynomial reduces to upper Hessenberg form and runs the
Hessenberg recurrence (Cohen, A Course in Computational Algebraic Number
Theory, Alg. 2.2.9), O(N^3) field operations over Q or Q(i).  Every routine
divides, so ``int`` entries are read as ``Fraction`` and no float appears.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import UniPoly, padd, pmul, pscale


def _field_rows(a):
    """Copy of a row list with ``int`` entries read as ``Fraction``.

    Every elimination here divides, and ``int / int`` would give a float.
    Returns (rows, number of rows, number of columns); a ragged input is a
    ValueError.
    """
    rows = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in a]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged matrix")
    return rows, len(rows), cols


def _square_field_rows(a, what):
    m, n, cols = _field_rows(a)
    if n != cols:
        raise ValueError("%s of a non-square matrix" % what)
    return m, n


def mat_rank(a) -> int:
    """Rank: the number of pivots of the reduced row echelon form."""
    return len(_rref(*_field_rows(a)))


def mat_det(a):
    """Determinant by Bareiss elimination (square input)."""
    m, n = _square_field_rows(a, "determinant")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(n - 1):
        if not m[r][r]:
            piv = None
            for i in range(r + 1, n):
                if m[i][r]:
                    piv = i
                    break
            if piv is None:
                return 0
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]) / prev
            m[i][r] = 0
        prev = m[r][r]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def _rref(data, rows, cols):
    """In-place reduced row echelon form over a field; returns pivot columns."""
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if data[i][c]:
                piv = i
                break
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        lead = data[r][c]
        data[r] = [v / lead for v in data[r]]
        for i in range(rows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [vi - f * vr for vi, vr in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def mat_nullspace(a):
    """Basis of the right kernel over a field, one vector per free column."""
    m, rows, cols = _field_rows(a)
    pivots = _rref(m, rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def mat_charpoly(a) -> UniPoly:
    """Monic characteristic polynomial det(zI - A) over a field.

    Entries must be field elements (``Fraction`` or ``GaussianRational``);
    ``int`` entries are read as ``Fraction``.  A copy of A is reduced to upper
    Hessenberg form H by similarity, then the recurrence
    p_m = (z - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    gives p_N = det(zI - A).
    """
    h, n = _square_field_rows(a, "characteristic polynomial")
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
