import random
import re
from fractions import Fraction

import pytest

from qq22 import (
    CorrelatorEngine,
    branch_discriminant,
    closed_form_charpoly,
    convergence_witness,
    cutoff_matrix,
    epsilon_gram,
    intersection_dim,
    only_base_plane_meets_all_windows,
    semisimple_scan,
    window_sum_inequality,
)
from qq22.model import (
    ambient_3pt_tau,
    check_dimension,
    eta_inverse,
    eta_pairing,
    euler_field,
    t_to_tau,
)
from qq22.serial import load_cache, save_cache


def test_params_validation():
    with pytest.raises(ValueError):
        check_dimension(5)
    with pytest.raises(ValueError):
        check_dimension(2)
    assert check_dimension(6) == 6
    # at n = 6 the basis has 16 slots, 9 of them primitive
    assert len(eta_inverse(6)) == len(euler_field(6)[1]) == 16
    assert len(cutoff_matrix(6, [0] * 9)) == 16
    with pytest.raises(ValueError, match="need 9 primitive coordinates"):
        cutoff_matrix(6, [0] * 8)


# a file no call may open: the cache functions check n before any file I/O
UNOPENED = "no-such-directory/memo.cache"

# every public entry point that takes a dimension, called with n
GATED = {
    "CorrelatorEngine": CorrelatorEngine,
    "eta_inverse": eta_inverse,
    "eta_pairing": eta_pairing,
    "t_to_tau": t_to_tau,
    "euler_field": euler_field,
    "ambient_3pt_tau": lambda n: ambient_3pt_tau(n, 0, 1, 3),
    "intersection_dim": lambda n: intersection_dim({0}, {1}, n),
    "epsilon_gram": epsilon_gram,
    "only_base_plane_meets_all_windows": only_base_plane_meets_all_windows,
    "window_sum_inequality": window_sum_inequality,
    "cutoff_matrix": lambda n: cutoff_matrix(n, [0] * 7),
    "closed_form_charpoly": lambda n: closed_form_charpoly(n, [0] * 7),
    "semisimple_scan": lambda n: semisimple_scan(n, 1, 0),
    "branch_discriminant": branch_discriminant,
    "convergence_witness": lambda n: convergence_witness(n, 6),
    "load_cache": lambda n: load_cache(UNOPENED, n),
    "save_cache": lambda n: save_cache(UNOPENED, n, {}),
}


@pytest.mark.parametrize("call", GATED.values(), ids=GATED.keys())
def test_every_entry_point_checks_the_dimension(call):
    # 4.0, Fraction(4), "4" and True compare or convert to 4 but are no
    # dimension; before the gate 4.0 ran and returned floats
    for n in (4.0, Fraction(4), "4", True, 5, 2, 0, -4):
        text = "dimension must be even and >= 4, got %r" % (n,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(text)):
            call(n)


def test_eta_inverse_entries_n4():
    rows = [dict(row) for row in eta_inverse(4)]
    assert rows[0] == {1: -4, 4: Fraction(1, 4)}
    assert rows[1] == {0: -4, 3: Fraction(1, 4)}
    assert rows[2] == {2: Fraction(1, 4)}
    assert rows[4] == {0: Fraction(1, 4)}
    assert rows[5] == {5: 1}
    for row in eta_inverse(4):
        assert [f for f, _ in row] == sorted(f for f, _ in row)
        assert all(v for _, v in row)


def test_eta_inverse_times_pairing_is_identity():
    for n in (4, 6):
        rows = eta_inverse(n)
        pair = eta_pairing(n)
        size = 2 * n + 4
        assert len(rows) == size
        for e, row in enumerate(rows):
            for g in range(size):
                assert sum(v * pair[f][g] for f, v in row) == (1 if e == g else 0)
        for e in range(size):
            for f in range(size):
                assert pair[e][f] == pair[f][e]


def test_transition_spec_values():
    assert t_to_tau(4) == (
        (3, ((3, Fraction(1)), (0, Fraction(-4)))),
        (4, ((4, Fraction(1)), (1, Fraction(-12)))),
    )
    assert [j for j, _ in t_to_tau(6)] == [5, 6]


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
        const, diag, moves = euler_field(n)
        assert const == n - 1
        assert moves == ((n - 1, 0, 4 * n - 4), (n, 1, 12 * n - 12))
        assert len(diag) == 2 * n + 4
        assert diag[n + 2] == Fraction(2 - n, 2)
        assert diag[3] == -2
        assert diag[n - 1] == 2 - n
        # euler_field is public API, and its types are pinned as part of it:
        # the engine converts the table to ints itself
        assert all(type(v) is Fraction for v in (const, *diag))


def test_euler_moves_follow_from_t_to_tau():
    # the moves are derived from t_to_tau and the diagonal weights; they keep
    # the values and reprs of the literal tuples they replaced
    for n in range(4, 31, 2):
        moves = euler_field(n)[2]
        literal = ((n - 1, 0, Fraction(4 * n - 4)), (n, 1, Fraction(12 * n - 12)))
        assert moves == literal
        assert repr(moves) == repr(literal)
