import random
from fractions import Fraction
from math import lcm

import pytest

from qq22 import polynomials
from qq22.matrices import mat_charpoly
from qq22.polynomials import UniPoly, poly_gcd, squarefree
from qq22.scalars import GaussianRational
from qq22.semisimple import cutoff_matrix, sample_point, zn_minus_az_plus_1_squarefree


def test_basic_arithmetic():
    x = UniPoly.x()
    p = (x - 1) * (x + 2)
    assert p.coeffs == (-2, 1, 1)
    assert p(1) == 0 and p(-2) == 0
    assert (p - p).is_zero()
    assert p.degree == 2
    assert (x**5).coeffs == (0, 0, 0, 0, 0, 1)


def test_trailing_zeros_stripped():
    assert UniPoly((1, 0, 0)).coeffs == (1,)
    assert UniPoly((0, 0)).is_zero()
    assert UniPoly(()).degree == -1


def test_divmod_and_gcd():
    x = UniPoly.x()
    p = (x - 1) * (x - 2) * (x + 3)
    q, r = p.divmod(x - 2)
    assert r.is_zero()
    assert q == (x - 1) * (x + 3)
    g = poly_gcd(p, (x - 2) * (x + 5))
    assert g == (x - 2).monic()


def test_squarefree_examples():
    x = UniPoly.x()
    assert not squarefree(x * x)
    assert squarefree(x**3 - UniPoly.constant(Fraction(4, 3)) * x + 1)
    assert not squarefree((x - 1) * (x - 1) * (x + 2))
    with pytest.raises(ValueError):
        squarefree(UniPoly.zero())


@pytest.mark.parametrize(
    "coeff",
    [GaussianRational(0, 1), GaussianRational(2), 0.5],
    ids=["gaussian", "gaussian-real", "float"],
)
def test_squarefree_coefficient_type_is_checked(coeff):
    # only Q is supported: a constant is checked too, before the degree test
    for p in (UniPoly((coeff, 0, 1)), UniPoly((coeff,))):
        with pytest.raises(TypeError, match="coefficient must be"):
            squarefree(p)


def test_derivative_and_eval():
    x = UniPoly.x()
    p = 3 * x**4 - x + 7
    assert p.derivative() == 12 * x**3 - 1
    assert p(Fraction(1, 2)) == Fraction(3, 16) - Fraction(1, 2) + 7


def test_random_ring_axioms():
    rng = random.Random(3)

    def rand_poly():
        return UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))])

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not b.is_zero():
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_int_coefficients_divide_exactly():
    # int / int is a float: this gcd used to come out as UniPoly((1.0, 1.0))
    g = poly_gcd(UniPoly((2, 3, 1)), UniPoly((1, 1)))
    assert g == UniPoly((1, 1))
    assert all(type(c) is Fraction for c in g.coeffs)
    q, r = UniPoly((1, 0, 1)).divmod(UniPoly((0, 3)))
    assert q.coeffs == (0, Fraction(1, 3)) and r.coeffs == (1,)
    assert not any(isinstance(c, float) for c in q.coeffs + r.coeffs)
    m = UniPoly((1, 2, 3)).monic()
    assert m.coeffs == (Fraction(1, 3), Fraction(2, 3), 1)
    assert all(type(c) is Fraction for c in m.coeffs)


# the prime of the modular certificate in ``squarefree``
CERT_PRIME = 2**61 - 1


def _certificate_branch(p):
    """Which route ``squarefree`` must take, read off the coefficients alone."""
    den = lcm(*[c.denominator for c in p.coeffs])
    if p.coeffs[-1] * den % CERT_PRIME == 0:
        return "lead"
    return "mod-p"


def _certificate_cases():
    rng = random.Random(20)
    x = UniPoly.x()
    cases = []
    for n, points in ((4, 4), (6, 3), (8, 2)):
        for _ in range(points):
            cases.append(mat_charpoly(cutoff_matrix(n, sample_point(n, rng))))
        # the degenerate zero point, and a point with two equal squares
        cases.append(mat_charpoly(cutoff_matrix(n, [0] * (n + 3))))
        taus = [Fraction(k + 1, 3) for k in range(n + 3)]
        taus[1] = -taus[0]
        cases.append(mat_charpoly(cutoff_matrix(n, taus)))

    def rand_poly(deg):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
        return UniPoly(cs + [Fraction(rng.randint(1, 9), rng.randint(1, 9))])

    for _ in range(12):
        g, h = rand_poly(rng.randint(1, 3)), rand_poly(rng.randint(0, 4))
        cases.append(g * g * h)
        cases.append(g * h)
    # a multiple of the prime in the cleared leading coefficient
    cases.append(UniPoly((Fraction(1, 3), -1, CERT_PRIME)))
    cases.append(UniPoly((Fraction(1, 2), 7, Fraction(CERT_PRIME, 5))) * (x - 1))
    cases.append(UniPoly((CERT_PRIME, -2 * CERT_PRIME, CERT_PRIME)))
    # squarefree over Q, but the roots 0 and P meet mod P
    cases.append(x * (x - CERT_PRIME) * (x + Fraction(1, 2)))
    for n, a in ((3, 2), (4, Fraction(-5, 3)), (5, Fraction(7, 2)), (8, 0)):
        z = [0] * (n + 1)
        z[0], z[1], z[n] = 1, -Fraction(a), 1
        cases.append(UniPoly(z))
    return cases


def test_certificate_agrees_with_exact_route(monkeypatch):
    calls = 0
    exact_gcd = polynomials.poly_gcd

    def counted(p, q):
        nonlocal calls
        calls += 1
        return exact_gcd(p, q)

    monkeypatch.setattr(polynomials, "poly_gcd", counted)
    reached = set()
    for p in _certificate_cases():
        expected = exact_gcd(p, p.derivative()).degree == 0
        calls = 0
        assert squarefree(p) == expected, p
        branch = _certificate_branch(p)
        if branch == "mod-p":
            # no Euclid means the certificate proved p squarefree
            branch = "certified" if calls == 0 else "gcd mod p"
        else:
            assert calls == 1, (branch, p)
        reached.add((branch, expected))
    assert reached >= {
        ("certified", True),
        ("gcd mod p", False),
        ("gcd mod p", True),
        ("lead", True),
        ("lead", False),
    }
    for n, a in ((3, 2), (4, Fraction(-5, 3)), (7, Fraction(1, 9))):
        calls = 0
        assert zn_minus_az_plus_1_squarefree(n, a) and calls == 0
