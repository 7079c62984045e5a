import random
from fractions import Fraction

from qq22.engine import CorrelatorEngine


def ambient(n, amb):
    """Exponent vector over the 2n+4 slots from ambient exponents 0..n."""
    return tuple(amb) + (0,) * (n + 3)


def test_three_point_base():
    # two top powers and the top class: 192 for every even n
    for n in (4, 6, 8):
        idx = [0] * (n + 1)
        idx[n - 1] = 2
        idx[n] = 1
        assert CorrelatorEngine(n).correlator_t(ambient(n, idx)).coeffs == (192,)


def test_pairing_triple():
    # <1, a, b> with a+b = n is the classical intersection 4
    for n in (4, 6):
        idx = [0] * (n + 1)
        idx[0] = 1
        idx[1] += 1
        idx[n - 1] += 1
        assert CorrelatorEngine(n).correlator_tau(ambient(n, idx)).coeffs == (4,)


def test_degree_seven_golden():
    eng = CorrelatorEngine(4)
    index = ambient(4, [0, 0, 7, 0, 0])
    assert eng.correlator_tau(index).coeffs == (46656,)
    assert eng.correlator_t(index).coeffs == (46656,)


def test_divisor_equation_oracle():
    # appending the divisor multiplies by the curve degree: independent
    # route to <h, h3, h3, h4> = 2 * 192
    index = ambient(4, [0, 1, 0, 2, 1])
    assert CorrelatorEngine(4).correlator_t(index).coeffs == (384,)


def test_divisor_property_random():
    rng = random.Random(31)
    eng = CorrelatorEngine(4)
    n = 4
    checked = 0
    for _ in range(60):
        idx = [0, 0] + [rng.randint(0, 2) for _ in range(n - 1)]
        if sum(idx) < 3:
            continue
        full = tuple(idx) + (0,) * (n + 3)
        beta = eng.beta_of_t_index(full)
        if beta is None:
            continue
        base = eng.correlator_t(full)
        bumped = list(full)
        bumped[1] += 1
        assert eng.correlator_t(bumped) == base * Fraction(beta)
        checked += 1
    assert checked >= 10


def test_dimension_vanishing():
    eng = CorrelatorEngine(4)
    rng = random.Random(77)
    for _ in range(50):
        idx = [0] * 12
        for _ in range(rng.randint(3, 7)):
            idx[rng.randint(0, 4)] += 1
        n = 4
        weighted = sum(k * v for k, v in enumerate(idx[:5]))
        if (weighted - (n - 3 + sum(idx))) % (n - 1):
            assert eng.correlator_tau(idx).is_zero()


def test_full_symmetry_through_class_entry():
    # ambient insertions commute: exponent-vector encoding plus the class
    # entry point agree on reordered insertion lists
    eng = CorrelatorEngine(4)
    h2 = [0] * 12
    h2[2] = 1
    h4 = [0] * 12
    h4[4] = 1
    index = [0, 0, 4, 0, 1] + [0] * 7
    beta = eng.beta_of_t_index(index)
    assert beta == 2
    v1 = eng.correlator_classes([h2, h2, h2, h2, h4], beta)
    v2 = eng.correlator_classes([h4, h2, h2, h2, h2], beta)
    direct = eng.correlator_t(index)
    assert not direct.is_zero()
    assert v1 == v2
    assert [c for c in v1.coeffs] == list(direct.coeffs)
