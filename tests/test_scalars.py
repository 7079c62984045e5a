import random
from fractions import Fraction

import pytest

from qq22.scalars import GaussianRational, rational_str


def rand_fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def rand_gaussian(rng):
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def test_rational_serialization():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-11, 16)) == "-11/16"


def test_gaussian_basics():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    conj = GaussianRational(z.re, -z.im)
    assert z + conj == 1
    assert (z * conj).is_rational()
    assert z / z == 1
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_gaussian_field_axioms_random():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * (1 / a) == 1
