import random
import re
from fractions import Fraction

import pytest

from qq22.engine import convergence_witness
from qq22.geometry import window, window_class_h_eps
from qq22.model import ambient_3pt_tau
from qq22.scalars import GaussianRational, as_ints, rational_str
from qq22.semisimple import semisimple_scan, zn_minus_az_plus_1_squarefree


def rand_fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def rand_gaussian(rng):
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def test_rational_serialization():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-11, 16)) == "-11/16"


def test_integer_gate():
    assert as_ints([3, 0, -2], "exponents") == (3, 0, -2)
    assert as_ints((), "exponents") == ()
    for bad in (4.0, Fraction(4), "4", None, True, False):
        text = "exponents must be integers, got %r" % (bad,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(text)):
            as_ints([1, bad], "exponents")


@pytest.mark.parametrize(
    "what, call",
    [
        # these returned 64.0 and 4.0
        ("ambient indices", lambda: ambient_3pt_tau(4, 1.5, 1.5, 4)),
        ("ambient indices", lambda: ambient_3pt_tau(4, 0.5, 0.5, 3)),
        # this ran two accepted samples
        ("samples", lambda: semisimple_scan(4, 1.5, 0)),
        # these returned frozenset({0.5, 1.5}) and seven +1/2 entries
        ("window starts", lambda: window(0.5, 4)),
        ("window starts", lambda: window_class_h_eps(0.5, 4)),
        # these raised a raw TypeError
        ("correlator lengths", lambda: convergence_witness(4, 5.5)),
        ("degrees", lambda: zn_minus_az_plus_1_squarefree(4.0, 1)),
    ],
)
def test_integer_inputs_are_checked(what, call):
    with pytest.raises(ValueError, match="^%s must be integers, got " % what):
        call()


def test_gaussian_basics():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    conj = GaussianRational(z.re, -z.im)
    assert z + conj == 1
    assert z * conj == Fraction(13, 16)


def test_gaussian_field_axioms_random():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
