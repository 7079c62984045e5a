import collections
import math
import random
from fractions import Fraction

import pytest

from qq22 import geometry as geo
from qq22.matrices import mat_charpoly, mat_det, mat_nullspace, mat_rank
from qq22.polynomials import UniPoly, padd, pmul, pscale
from qq22.scalars import GaussianRational
from qq22.semisimple import cutoff_matrix, sample_point

from meeting import plane_meeting_system, relation_gradient


def rand_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


# Second route: Gauss-Jordan, Bareiss and the Hessenberg characteristic
# polynomial over Q on Fraction entries.  mat_det reads its value off
# Berkowitz's recurrence, so field_det is the route that checks both.

def field_rref(a):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    data = [[Fraction(v) for v in row] for row in a]
    pivots = []
    r = 0
    for c in range(len(data[0]) if data else 0):
        piv = next((i for i in range(r, len(data)) if data[i][c]), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        lead = data[r][c]
        data[r] = [v / lead for v in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [vi - f * vr for vi, vr in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == len(data):
            break
    return data, pivots


def field_nullspace(a):
    data, pivots = field_rref(a)
    cols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -data[r][fc]
        basis.append(v)
    return basis


def field_det(a):
    """Bareiss elimination over Q."""
    m = [[Fraction(v) for v in row] for row in a]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for r in range(n):
        piv = next((i for i in range(r, n) if m[i][r]), None)
        if piv is None:
            return Fraction(0)
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]) / prev
        prev = m[r][r]
    return sign * prev


def field_charpoly(a):
    """Hessenberg reduction by similarity, then the Hessenberg recurrence
    p_m = (z - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    h = [[Fraction(v) for v in row] for row in a]
    n = len(h)
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


def assert_matches_field_route(m):
    rank = mat_rank(m)
    kernel = mat_nullspace(m)
    expected = field_nullspace(m)
    assert rank == len(field_rref(m)[1])
    # the reduced row echelon form is unique: same vectors, same order, and
    # int 0/1 in the free columns
    assert kernel == expected
    assert [list(map(type, v)) for v in kernel] == [list(map(type, v)) for v in expected]
    if len(m) == len(m[0]):
        det = mat_det(m)
        assert type(det) is Fraction and det == field_det(m)
    return rank


def sparse_rational_matrix(rng, rows, cols, big=False):
    m = [
        [
            Fraction(
                rng.randint(-6, 6) + (3**40 if big and rng.random() < 0.5 else 0),
                rng.choice((1, 1, 2, 3, 7, 3**20 if big else 5)),
            )
            if rng.random() < 0.7
            else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    if rows > 1 and rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if cols > 1 and rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0
    if rows > 2 and rng.random() < 0.3:
        # a dependent row: a rational combination of two others
        i, j, k = rng.sample(range(rows), 3)
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
        m[k] = [s * x + t * y for x, y in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize(
    "func, rows",
    [
        pytest.param(f, rows, id="%s-ragged%d" % (f.__name__, k))
        for f in (mat_rank, mat_det, mat_nullspace, mat_charpoly)
        for k, rows in enumerate(([[1, 2], [3]], [[1], [2, 3]]))
    ]
    + [
        pytest.param(f, [[1, 2, 3], [4, 5, 6]], id="%s-non-square" % f.__name__)
        for f in (mat_det, mat_charpoly)
    ],
)
def test_shape_is_checked(func, rows):
    with pytest.raises(ValueError):
        func(rows)


@pytest.mark.parametrize("func", [mat_rank, mat_det, mat_nullspace])
@pytest.mark.parametrize(
    "entry",
    [0.5, 2.0, 1j, "3", GaussianRational(1, 1), GaussianRational(2)],
    ids=["float", "integral-float", "complex", "str", "gaussian", "gaussian-real"],
)
def test_entry_type_is_checked(func, entry):
    with pytest.raises(TypeError):
        func([[1, Fraction(1, 2)], [entry, 3]])


@pytest.mark.parametrize(
    "entry",
    [0.5, 2.0, 1j, "3", GaussianRational(1, 1), GaussianRational(2)],
    ids=["float", "integral-float", "complex", "str", "gaussian", "gaussian-real"],
)
def test_charpoly_entry_type_is_checked(entry):
    # a float entry used to give float coefficients: (-0.5, -3.5, 1)
    with pytest.raises(TypeError, match="matrix entry must be"):
        mat_charpoly([[entry, 1], [2, 3]])
    with pytest.raises(TypeError, match="matrix entry must be"):
        mat_charpoly([[1, Fraction(1, 2)], [2, entry]])


def test_charpoly_takes_int_and_fraction_entries():
    p = mat_charpoly([[1, Fraction(1, 2)], [2, 3]])
    assert p.coeffs == (2, -4, 1)
    assert all(isinstance(c, Fraction) for c in p.coeffs)


def test_rank_basics():
    assert mat_rank([[1, 0], [0, 1]]) == 2
    assert mat_rank([[0] * 5 for _ in range(3)]) == 0
    assert mat_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_nullspace_basics():
    assert mat_nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    basis = mat_nullspace([[1, -1]])
    assert basis == [[1, 1]]


def test_int_entries_stay_exact():
    # int / int is a float, which rounds b = 3**40 + 1 away
    b = 3**40 + 1
    assert mat_rank([[1, 0, 0], [0, b, b + 1], [0, b - 1, b]]) == 3
    det = mat_det([[1, 0, 0], [0, b, 1], [0, 1, b]])
    assert det == b * b - 1 and not isinstance(det, float)
    basis = mat_nullspace([[1, 2], [2, 4]])
    assert basis == [[-2, 1]]
    assert not any(isinstance(v, float) for v in basis[0])


def test_rank_nullity_random():
    rng = random.Random(9)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rank = mat_rank(m)
        kernel = mat_nullspace(m)
        assert rank + len(kernel) == len(m[0])
        for v in kernel:
            assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in m)


def test_charpoly_examples():
    p = mat_charpoly([[1, 0], [0, 2]])
    x = UniPoly.x()
    assert p == (x - 1) * (x - 2)
    assert mat_charpoly([[0, 1], [0, 0]]) == x * x
    with pytest.raises(ValueError):
        mat_charpoly([[1, 2, 3]])


def test_cayley_hamilton_random():
    rng = random.Random(21)
    for size in range(1, 7):
        m = rand_matrix(rng, size, size, span=3)
        p = mat_charpoly(m)
        acc = [[Fraction(0)] * size for _ in range(size)]
        power = [[Fraction(i == j) for j in range(size)] for i in range(size)]
        for c in p.coeffs:
            acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
            power = [
                [sum(row[k] * m[k][j] for k in range(size)) for j in range(size)]
                for row in power
            ]
        assert all(v == 0 for row in acc for v in row)


def test_charpoly_matches_det_on_sparse_matrices():
    # det(z0 I - A) by field_det's Bareiss elimination is an independent
    # route to p(z0); the sparse
    # entries and zeroed subdiagonals give Berkowitz's recurrence zero
    # columns C and powers B^k C that vanish early
    rng = random.Random(33)
    for size in range(1, 13):
        for _ in range(3):
            m = [
                [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < 0.3
                    else Fraction(0)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            for i in range(size - 1):
                if rng.random() < 0.6:
                    m[i + 1][i] = Fraction(0)
            p = mat_charpoly(m)
            assert p.degree == size and p[size] == 1
            for z0 in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5)):
                shifted = [
                    [(z0 if i == j else 0) - m[i][j] for j in range(size)] for i in range(size)
                ]
                assert p(z0) == field_det(shifted)


def test_charpoly_of_int_matrix_has_fraction_coefficients():
    p = mat_charpoly([[2, 1, 0], [3, 0, 5], [1, 4, 1]])
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (38, -21, -3, 1)


def test_det_matches_charpoly_constant():
    rng = random.Random(2)
    for size in range(1, 6):
        m = rand_matrix(rng, size, size, span=4)
        p = mat_charpoly(m)
        assert mat_det(m) == field_det(m) == (-1) ** size * p[0]


def test_det_returns_fraction_on_every_path():
    for m in ([], [[0, 1], [0, 2]], [[3]], [[1, 2], [3, 4]], [[Fraction(1, 2), 1], [1, 1]]):
        assert type(mat_det(m)) is Fraction
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det([[Fraction(1, 2), 1], [1, 1]]) == Fraction(-1, 2)
    assert mat_det([]) == 1 and mat_det([[0, 1], [0, 2]]) == 0


def test_random_matrices_match_field_route():
    rng = random.Random(2024)
    deficient = 0
    for rows in range(1, 9):
        for cols in range(1, 9):
            for _ in range(4):
                rank = assert_matches_field_route(sparse_rational_matrix(rng, rows, cols))
                deficient += rank < min(rows, cols)
    # zero rows, zero columns and dependent rows must reach the pivot search
    assert deficient >= 40


def test_large_entries_match_field_route():
    rng = random.Random(41)
    for rows, cols in ((3, 3), (4, 6), (6, 4), (5, 5), (8, 8)):
        for _ in range(3):
            assert_matches_field_route(sparse_rational_matrix(rng, rows, cols, big=True))


def test_meeting_system_matches_field_route():
    ec = plane_meeting_system(range(1, 8))
    assert (len(ec), len(ec[0])) == (28, 35)
    assert_matches_field_route(ec)
    square = [row[:28] for row in ec]
    assert mat_det(square) == field_det(square)


def test_rigidity_stack_matches_field_route():
    # dual_uniqueness reads the kernel of the 763 x 35 stack (meeting system
    # over the exchange-relation gradients at p) off the 7-dimensional
    # kernel of the meeting system.  The two spans agree for every p and
    # every system, so they are compared at both solution tables, at seeded
    # points that solve nothing, and, at the tables, for the first block of
    # the system alone, whose larger kernel leaves an 11-dimensional stack
    # kernel that the scaling line alone cannot fill
    ec = plane_meeting_system(geo.CASE_LAMS)
    ec_int, _ = geo._integer_meeting_system(geo.CASE_LAMS)
    rng = random.Random(32)
    tables = [geo.PLANE_SOLUTION_MAIN, geo.PLANE_SOLUTION_BASE]
    points = [[rng.randint(-3, 3) for _ in geo.TRIPLES] for _ in range(3)]
    assert all(all(geo._residuals(ec_int, p)) for p in points)
    cases = [(ec, ec_int, p) for p in tables + points]
    cases += [(ec[:4], ec_int[:4], p) for p in tables]
    dims = []
    for rows, rows_int, p in cases:
        stack = rows + [relation_gradient(rel, p) for rel in geo.plucker_relations()]
        assert len(stack[0]) == 35 and len(stack) == len(rows) + 735
        kernel = mat_nullspace(stack)
        if p is geo.PLANE_SOLUTION_MAIN and rows is ec:
            assert mat_rank(stack) == 34 and len(kernel) == 1
            assert kernel == field_nullspace(stack)
        basis = geo._tangent_basis(rows_int, p)
        assert len(basis) == len(kernel)
        assert mat_rank(kernel + basis) == len(kernel)
        dims.append(len(kernel))
    assert dims == [1, 1, 0, 0, 0, 11, 11]


def assert_charpoly_matches_field_route(m):
    p, q = mat_charpoly(m), field_charpoly(m)
    assert p.coeffs == q.coeffs
    assert [type(c) for c in p.coeffs] == [type(c) for c in q.coeffs]
    return p


def charpoly_draw(rng, size):
    """A seeded size x size rational matrix and the structures it has.

    With probability 0.3 it is a triangular matrix with a repeated nonzero diagonal
    entry lam, moved by elementary similarities (row_i += c row_j, then
    col_j -= c col_i).  Otherwise its entries are sparse, each row with its
    own denominators and some numerators near 3**40, and it may get a zero
    row, a zero column and a zeroed subdiagonal.
    """
    lam = None
    if size >= 2 and rng.random() < 0.3:
        lam = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3)))
        diag = [lam, lam] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size - 2)]
        rng.shuffle(diag)
        m = [
            [
                diag[i] if i == j else Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * (j > i)
                for j in range(size)
            ]
            for i in range(size)
        ]
        for _ in range(2 * size):
            i, j = rng.sample(range(size), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
    else:
        big = rng.random() < 0.3
        m = []
        for _ in range(size):
            den = rng.choice((1, 2, 3, 4, 5, 7, 9, 3**20 if big else 8))
            m.append(
                [
                    Fraction(
                        rng.randint(-6, 6) + (3**40 if big and rng.random() < 0.5 else 0),
                        den * rng.choice((1, 1, 2)),
                    )
                    if rng.random() < 0.6
                    else 0
                    for _ in range(size)
                ]
            )
        if size >= 3 and rng.random() < 0.3:
            for i in range(size - 1):
                m[i + 1][i] = 0
        if size >= 2 and rng.random() < 0.3:
            m[rng.randrange(size)] = [0] * size
        if size >= 2 and rng.random() < 0.3:
            c = rng.randrange(size)
            for row in m:
                row[c] = 0
    kinds = {
        "row denominators": len({math.lcm(*[v.denominator for v in row]) for row in m}) > 1,
        "zero row": any(not any(row) for row in m),
        "zero column": size > 0 and any(not any(col) for col in zip(*m)),
        "zero subdiagonal": size >= 3 and not any(m[i + 1][i] for i in range(size - 1)),
        "big numerators": any(abs(v.numerator) > 3**39 for row in m for v in row),
    }
    return m, lam, {k for k, v in kinds.items() if v}


def test_charpoly_matches_field_route():
    rng = random.Random(1984)
    seen = collections.Counter()
    for size in range(13):
        for _ in range(10):
            m, lam, kinds = charpoly_draw(rng, size)
            p = assert_charpoly_matches_field_route(m)
            if lam is not None:
                assert p(lam) == 0 and p.derivative()(lam) == 0
                kinds.add("repeated eigenvalue")
            seen.update(kinds)
            seen["draws"] += 1
    # each kind of structure must reach the comparison often enough that a
    # wrong scale, sign or convolution index shows
    assert seen["draws"] == 130
    for kind in (
        "row denominators",
        "zero row",
        "zero column",
        "zero subdiagonal",
        "big numerators",
        "repeated eigenvalue",
    ):
        assert seen[kind] >= 15, (kind, seen)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_cutoff_charpoly_matches_field_route(n):
    # tau_i = i, then seeded draws of the scan's sampler, degenerate or not
    rng = random.Random(n)
    for taus in [tuple(range(1, n + 4))] + [sample_point(n, rng) for _ in range(2)]:
        assert assert_charpoly_matches_field_route(cutoff_matrix(n, taus)).degree == 2 * n + 4
