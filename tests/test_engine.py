import hashlib
import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from qq22.engine import (
    CorrelatorEngine,
    convergence_witness,
    index_triple,
)
from qq22.polynomials import PZERO, UniPoly, padd, peval, pscale
from qq22.scalars import GaussianRational
from qq22.serial import save_cache

X = UniPoly((Fraction(0), Fraction(1)))


def idx(n, amb=(), prim=()):
    v = [0] * (2 * n + 4)
    for slot, k in amb:
        v[slot] += k
    for slot, k in prim:
        v[n + 1 + slot] += k
    return tuple(v)


@pytest.fixture(scope="module")
def eng4():
    return CorrelatorEngine(4)


@pytest.fixture(scope="module")
def eng6():
    return CorrelatorEngine(6)


def test_four_point_base(eng4):
    assert eng4.correlator_tau(idx(4, prim=[(0, 2), (1, 2)])) == 1
    assert eng4.correlator_tau(idx(4, prim=[(0, 4)])) == 1
    assert eng4.correlator_tau(idx(4, prim=[(0, 2), (1, 1), (2, 1)])).is_zero()


def test_special_correlator_is_symbolic(eng4):
    assert eng4.correlator_tau(idx(4, prim=[(s, 1) for s in range(7)])) == X


def test_mixed_parity_vanishes(eng4):
    assert eng4.correlator_tau(idx(4, prim=[(0, 1), (1, 1), (2, 1), (3, 1)])).is_zero()
    assert eng4.correlator_tau(
        idx(4, amb=[(2, 1)], prim=[(0, 2), (1, 1)])
    ).is_zero()


def test_low_order_t_values(eng4):
    # three and four point data in cup coordinates
    assert eng4.correlator_t(idx(4, amb=[(3, 2), (4, 1)])) == 192
    assert eng4.correlator_t(idx(4, amb=[(3, 1)], prim=[(0, 2)])) == -4
    assert eng4.correlator_t(idx(4, amb=[(3, 1), (4, 1)], prim=[(0, 2)])) == -16
    assert eng4.correlator_t(idx(4, amb=[(3, 1), (4, 2)], prim=[(0, 2)])) == -192
    # the same four-point datum in small-quantum coordinates
    assert eng4.correlator_tau(idx(4, amb=[(3, 1), (4, 1)], prim=[(0, 2)])) == -64


def test_length7_golden_table(eng4):
    table = [
        ([(2, 7)], [], 46656),
        ([(2, 5)], [(0, 2)], -624),
        ([(2, 3)], [(0, 4)], 36),
        ([(2, 3)], [(0, 2), (1, 2)], 4),
        ([(2, 1)], [(0, 6)], -7),
        ([(2, 1)], [(0, 4), (1, 2)], 1),
        ([(2, 1)], [(0, 2), (1, 2), (2, 2)], 1),
    ]
    for amb, prim, expected in table:
        assert eng4.correlator_t(idx(4, amb=amb, prim=prim)) == expected


def test_cross_derivation_identities(eng4, eng6):
    # the five-point identities relate engine values to the four-point one
    for eng in (eng4, eng6):
        n = eng.n
        four = eng.correlator_tau(idx(n, prim=[(0, 2), (1, 2)]))
        lhs = eng.correlator_t(idx(n, amb=[(n, 1)], prim=[(0, 2), (1, 2)]))
        assert lhs == 4 - 4 * four
        four_same = eng.correlator_tau(idx(n, prim=[(0, 4)]))
        lhs = eng.correlator_t(idx(n, amb=[(n, 1)], prim=[(0, 4)]))
        assert lhs == 12 - 4 * four_same


def test_fca_vanishing(eng4):
    assert eng4.correlator_t(idx(4, amb=[(0, 1), (2, 3)])).is_zero()
    assert eng4.correlator_tau(idx(4, amb=[(0, 1), (2, 1)], prim=[(0, 2)])).is_zero()


def test_permutation_invariance_random(eng4):
    rng = random.Random(100)
    for _ in range(100):
        amb = [(k, rng.randint(0, 2)) for k in range(2, 5)]
        prim = [(s, rng.randint(0, 2)) for s in range(7)]
        index = idx(4, amb=amb, prim=prim)
        if sum(index) < 3:
            continue
        base = eng4.correlator_tau(index)
        perm = list(range(7))
        rng.shuffle(perm)
        shuffled = list(index)
        for s in range(7):
            shuffled[5 + perm[s]] = index[5 + s]
        assert eng4.correlator_tau(shuffled) == base


def test_parity_vanishing_random(eng4):
    rng = random.Random(200)
    found = 0
    while found < 100:
        prim = [rng.randint(0, 3) for _ in range(7)]
        parities = {v & 1 for v in prim}
        if len(parities) != 2:
            continue
        amb = [(k, rng.randint(0, 1)) for k in range(2, 5)]
        index = idx(4, amb=amb, prim=list(enumerate(prim)))
        if sum(index) < 3:
            continue
        assert eng4.correlator_tau(index).is_zero()
        found += 1


def test_divisor_consistency_over_cache(eng4):
    # cup-coordinate divisor equation, checked against every cached key;
    # independent of the slot-1 elimination route used internally
    items = list(eng4.cached_items())
    assert items
    for (amb, prim), _ in items:
        index = amb + prim
        if sum(index) < 3:
            continue
        beta = eng4.beta_of_t_index(index)
        if beta is None or beta < 0:
            continue
        base = eng4.correlator_t(index)
        bumped = list(index)
        bumped[1] += 1
        assert eng4.correlator_t(bumped) == base * Fraction(beta)


def test_wdvv_extracted_residuals(eng4, eng6):
    for eng in (eng4, eng6):
        size = 2 * eng.n + 4
        rng = random.Random(321)
        for _ in range(25):
            comps = [rng.randrange(size) for _ in range(4)]
            index = [0] * size
            for _ in range(rng.randint(0, 4)):
                index[rng.randrange(size)] += 1
            assert eng.wdvv_extracted_residual(*comps, index).is_zero()


# sha256 of the cache file written after the quadratic-identity query; any
# change to the recursion that alters a memo key or value changes these
MEMO_CACHE_SHA256 = {
    4: (14874, "770980d61ae3ffcd1b7b76c2d71b926ae24d8c0b8bad3178c09581a8a77c8caa"),
    6: (76671, "bbcfaf4704175f27c1c144ed5a2d34ba6b7d69844125769611b84577c83f62ec"),
    8: (297723, "a8aa2471b4335fba35c517921cc0a7955c2a9017da16035256804dcb499e617d"),
}


@pytest.mark.parametrize("n", sorted(MEMO_CACHE_SHA256))
def test_memo_cache_bytes_pinned(n, tmp_path):
    eng = CorrelatorEngine(n)
    eng.conjecture_quadratic_lhs()
    path = tmp_path / "memo.cache"
    save_cache(path, n, eng.memo)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == MEMO_CACHE_SHA256[n]


def _subindex_sum(eng, vec, aslots, bslots, lo=0, hi=0):
    """WDVV extraction as the plain sum over every subindex J <= vec."""
    top = sum(vec) + hi
    total = PZERO
    for j in itertools.product(*(range(v + 1) for v in vec)):
        if not lo <= sum(j) <= top:
            continue
        w = 1
        for v, jv in zip(vec, j):
            w *= math.comb(v, jv)
        a = list(j)
        for s in aslots:
            a[s] += 1
        b = [v - jv for v, jv in zip(vec, j)]
        for s in bslots:
            b[s] += 1
        total = padd(total, pscale(w, eng._contract(a, b)))
    return total


def test_extract_orbit_sum_matches_subindex_sum(monkeypatch):
    # second route for the orbit-summed kernel: every extraction the n = 4
    # and n = 6 squares correlators make, with the primitive slots (and the
    # fixed slots among them) shuffled by a seeded permutation, against the
    # same extraction summed over every J
    calls = []
    extract = CorrelatorEngine._extract

    def recorded(self, vec, aslots, bslots, lo=0, hi=0):
        calls.append((self, vec, aslots, bslots, lo, hi))
        return extract(self, vec, aslots, bslots, lo, hi)

    monkeypatch.setattr(CorrelatorEngine, "_extract", recorded)
    for n in (4, 6):
        CorrelatorEngine(n).conjecture_quadratic_lhs()
    monkeypatch.undo()
    rng = random.Random(8101)
    seen = {"free group": 0, "fixed slot in a group": 0, "lo/hi": 0}
    for eng, vec, aslots, bslots, lo, hi in calls:
        n = eng.n
        perm = list(range(n + 1, 2 * n + 4))
        rng.shuffle(perm)
        move = list(range(n + 1)) + perm
        shuffled = [0] * len(vec)
        for s, v in enumerate(vec):
            shuffled[move[s]] = v
        aslots = tuple(move[s] for s in aslots)
        bslots = tuple(move[s] for s in bslots)
        got = eng._extract(tuple(shuffled), aslots, bslots, lo, hi)
        assert got == _subindex_sum(eng, shuffled, aslots, bslots, lo, hi)
        if not got:
            continue
        fixed = set(aslots) | set(bslots)
        prim = [(s, v) for s, v in enumerate(shuffled) if s > n and v]
        free = [v for s, v in prim if s not in fixed]
        seen["free group"] += len(free) > len(set(free))
        seen["fixed slot in a group"] += any(
            s in fixed and any(t != s and w == v for t, w in prim) for s, v in prim
        )
        seen["lo/hi"] += (lo, hi) != (0, 0)
    assert min(seen.values()) >= 4, seen


def test_quadratic_identity_n10():
    assert CorrelatorEngine(10).conjecture_quadratic().is_zero()


def test_n8_quadratic_makes_few_memo_lookups(monkeypatch):
    # the plain subindex sum made 1,228,317 _T calls here; the orbit sum
    # must stay below a fifth of that
    calls = 0
    lookup = CorrelatorEngine._T

    def counted(self, amb, prim):
        nonlocal calls
        calls += 1
        return lookup(self, amb, prim)

    monkeypatch.setattr(CorrelatorEngine, "_T", counted)
    assert CorrelatorEngine(8).conjecture_quadratic().is_zero()
    assert calls <= 1228317 // 5


def test_index_triple_examples():
    assert index_triple((3, 2, 1, 0, 0, 0, 0)) == (0, 1, 3)
    a, b, c = index_triple((2, 2, 2, 2, 2, 0, 0))
    assert {a, b} <= {0, 1, 2, 3, 4} and c in (5, 6)
    a, b, c = index_triple((2,) * 7)
    assert len({a, b, c}) == 3
    # nonzero reduction coefficient for the all-equal case, n = 4
    inner_size = 14 - 2
    assert Fraction(2 * inner_size - 4, 3) - 2 * 2 != 0
    with pytest.raises(ValueError):
        index_triple((5, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        index_triple((1,) * 7)


def test_quadratic_conjecture_small():
    eng = CorrelatorEngine(4)
    assert eng.conjecture_quadratic_lhs().coeffs == (Fraction(-1, 2), 0, Fraction(2))
    assert eng.conjecture_quadratic().is_zero()


def test_f4_value():
    eng = CorrelatorEngine(4)
    assert eng.f_value().coeffs == (Fraction(11, 16), Fraction(5, 8))


def test_f_value_matches_gaussian_expansion():
    # second route: the multilinear expansion of the window classes over the
    # engine basis, with Gaussian-rational coefficients, at the fixed degree
    from qq22.geometry import sigma_interval_class

    for n in (4, 6):
        eng = CorrelatorEngine(n)
        classes = [sigma_interval_class(w, n) for w in range(n + 3)]
        ref = eng.correlator_classes(classes, beta=n // 2).coeffs
        if n % 4 == 2:
            # f is written in the unnormalized unknown x' with x = i x', so
            # the x^d coefficient picks up i^d
            fac, out = GaussianRational(1), []
            for c in ref:
                out.append(c * fac)
                fac = fac * GaussianRational(0, 1)
            ref = out
        assert all(c.is_rational() for c in ref)
        assert eng.f_value().coeffs == tuple(c.re for c in ref)


def test_f_integer_at_conjectural_x():
    # Observed, not proved: at the conjectural x = (-1)^{n/2} / 2 (the value
    # convergence_witness uses) the window correlator is an integer for every
    # n computed.  f(4) = 1 agrees with the single conic conic_pipeline finds.
    for n, expected in ((4, 1), (6, 1204), (8, 1610489)):
        f = CorrelatorEngine(n).f_value()
        assert peval(f.coeffs, Fraction((-1) ** (n // 2), 2)) == expected


def test_class_entry_bilinearity(eng4):
    from qq22.geometry import sigma_interval_class

    classes = [sigma_interval_class(w, 4) for w in range(7)]
    base = eng4.correlator_classes(classes, beta=2)
    doubled = [[2 * c for c in classes[0]]] + classes[1:]
    assert eng4.correlator_classes(doubled, beta=2) == base * 2
    with pytest.raises(ValueError):
        eng4.correlator_classes(classes[:2], beta=2)


def test_determinism_and_concurrency():
    index = idx(4, amb=[(2, 3)], prim=[(0, 2), (1, 2)])
    serial = CorrelatorEngine(4).correlator_tau(index)
    eng = CorrelatorEngine(4)
    jobs = [index, idx(4, amb=[(2, 5)], prim=[(0, 2)]), idx(4, prim=[(0, 4), (1, 2), (2, 2)])] * 4
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda i: eng.correlator_tau(i), jobs))
    assert results[0] == serial
    for a, b in zip(results[:3], results[3:6]):
        assert a == b
    assert eng.correlator_tau(index) == serial


def test_convergence_witness_monotone():
    c7, count7 = convergence_witness(4, 7)
    c8, count8 = convergence_witness(4, 8)
    assert c7 >= 1 and c8 >= c7
    assert count8 > count7
    # empty range convention
    c5, count5 = convergence_witness(4, 5)
    assert c5 == 1 and count5 == 0
    with pytest.raises(ValueError):
        convergence_witness(4, 4)
    with pytest.raises(ValueError):
        convergence_witness(4, 7, engine=CorrelatorEngine(6))


def test_peval():
    assert peval((Fraction(1), Fraction(2)), Fraction(1, 2)) == 2


@pytest.mark.parametrize("bad", [7.5, "7"])
def test_non_integer_exponents_are_rejected(eng4, bad):
    index = [0, 0, bad, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    for query in (eng4.correlator_tau, eng4.correlator_t, eng4.beta_of_t_index):
        with pytest.raises(ValueError, match="exponents must be integers"):
            query(index)


def test_engine_input_validation(eng4):
    with pytest.raises(ValueError):
        eng4.correlator_tau([1, 2, 3])
    with pytest.raises(ValueError):
        eng4.correlator_tau([0] * 11 + [-1])
    with pytest.raises(ValueError):
        eng4.correlator_tau([1] + [0] * 11)
