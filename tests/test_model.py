import random
from fractions import Fraction

import pytest

from qq22.matrices import ExactMatrix
from qq22.model import (
    ModelParams,
    ambient_3pt_tau,
    eta_inverse,
    eta_pairing,
    euler_coeffs_tau,
    t_tau_transition,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(5)
    with pytest.raises(ValueError):
        ModelParams(2)
    p = ModelParams(6)
    assert p.basis_size == 16
    assert p.num_primitive == 9
    assert p.fano_index == 5


def test_eta_inverse_entries_n4():
    m = eta_inverse(4)
    assert m[0, 1] == -4
    assert m[2, 2] == Fraction(1, 4)
    assert m[5, 5] == 1 and m[5, 6] == 0
    assert m[0, 4] == Fraction(1, 4)
    assert m[3, 4] == 0


def test_eta_inverse_times_pairing_is_identity():
    for n in (4, 6):
        inv = eta_inverse(n)
        pair = eta_pairing(n)
        prod = inv.matmul(pair)
        size = 2 * n + 4
        assert prod.data == ExactMatrix.identity(size, Fraction(1), Fraction(0)).data
        # symmetry of the pairing
        assert pair.data == pair.transpose().data


def test_transitions_mutually_inverse():
    for n in (4, 6):
        fwd = t_tau_transition(n, "t_to_tau")
        back = t_tau_transition(n, "tau_to_t")
        size = 2 * n + 4
        for j in range(size):
            acc = {}
            for slot, c in fwd[j]:
                for slot2, c2 in back[slot]:
                    acc[slot2] = acc.get(slot2, Fraction(0)) + c * c2
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {j: Fraction(1)}
    with pytest.raises(ValueError):
        t_tau_transition(4, "sideways")


def test_transition_spec_values():
    fwd = t_tau_transition(4, "t_to_tau")
    assert sorted(fwd[3]) == [(0, Fraction(-4)), (3, Fraction(1))]
    assert fwd[2] == [(2, Fraction(1))]


def test_ambient_3pt_values_and_symmetry():
    rng = random.Random(1)
    for n in (4, 6):
        # a+b+c = n gives the classical value 4
        assert ambient_3pt_tau(n, 0, 1, n - 1) == 4
        # a+b+c = 2n-1 has exponent 1 and gives 64
        assert ambient_3pt_tau(n, n, n - 1, 0) == 64
        assert ambient_3pt_tau(n, 1, 1, n - 1) == 0
        for _ in range(20):
            a, b, c = (rng.randint(0, n) for _ in range(3))
            v = ambient_3pt_tau(n, a, b, c)
            assert v == ambient_3pt_tau(n, b, c, a) == ambient_3pt_tau(n, c, b, a)


def test_euler_coefficients():
    for n in (4, 6):
        field = euler_coeffs_tau(n)
        assert field.constant_part() == {1: n - 1}
        assert field.linear_coefficient(n - 1, 0) == 4 * n - 4
        assert field.linear_coefficient(n, 1) == 12 * n - 12
        assert field.linear_coefficient(n + 2, n + 2) == Fraction(2 - n, 2)
        assert field.linear_coefficient(3, 3) == -2
        assert field.linear_coefficient(2, 3) == 0
        # slot n-1 diagonal plus nothing else
        assert field.linear_coefficient(n - 1, n - 1) == 2 - n
