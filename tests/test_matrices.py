import random
from fractions import Fraction

import pytest

from qq22 import geometry as geo
from qq22.matrices import mat_charpoly, mat_det, mat_nullspace, mat_rank
from qq22.polynomials import UniPoly
from qq22.scalars import GaussianRational


def rand_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


# Second route: Gauss-Jordan and Bareiss over Q on Fraction entries, the
# field elimination the integer routines replaced.

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
    # det(z0 I - A) by Bareiss is an independent route to p(z0); zeroed
    # subdiagonals make the Hessenberg pivot search skip and swap rows
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
                assert p(z0) == mat_det(shifted)


def test_charpoly_of_int_matrix_has_fraction_coefficients():
    p = mat_charpoly([[2, 1, 0], [3, 0, 5], [1, 4, 1]])
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (38, -21, -3, 1)


def test_det_matches_charpoly_constant():
    rng = random.Random(2)
    for size in range(1, 6):
        m = rand_matrix(rng, size, size, span=4)
        p = mat_charpoly(m)
        assert mat_det(m) == (-1) ** size * p[0]


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
    ec = geo.plane_meeting_system(range(1, 8))
    assert (len(ec), len(ec[0])) == (28, 35)
    assert_matches_field_route(ec)
    square = [row[:28] for row in ec]
    assert mat_det(square) == field_det(square)


def test_rigidity_stack_matches_field_route():
    ec = geo.plane_meeting_system(geo.CASE_LAMS)
    p = geo.PLANE_SOLUTION_MAIN
    stack = ec + [geo.relation_gradient(rel, p) for rel in geo.plucker_relations()]
    assert (len(stack), len(stack[0])) == (763, 35)
    kernel = mat_nullspace(stack)
    assert mat_rank(stack) == 34 and len(kernel) == 1
    assert kernel == field_nullspace(stack)
