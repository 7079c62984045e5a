import random
from fractions import Fraction

import pytest

from qq22.matrices import mat_charpoly, mat_det, mat_nullspace, mat_rank
from qq22.polynomials import UniPoly


def rand_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


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
