import hashlib
import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from qq22.engine import (
    CorrelatorEngine,
    RecursionCycleError,
    _ambient_exponents,
    _excess,
    _grid_steps,
    _prim_partitions,
    convergence_witness,
    curve_degree,
)
from qq22.model import eta_inverse
from qq22.polynomials import PZERO, UniPoly, padd, peval, pmul, pscale
from qq22.serial import load_cache, poly_to_str, save_cache

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
    # independent of the slot-1 elimination route used internally; the
    # quadratic fills the memo, so the check does not rest on earlier tests
    eng4.conjecture_quadratic_lhs()
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
    # Almost every plain draw gives an equation with both sides zero, so
    # also draw until 25 pass the degree and parity rules.  A term pairs two
    # correlators, so I + comps carries their degrees like one correlator
    # with one more slot-2 insertion, and the primitive parities match.
    for eng in (eng4, eng6, CorrelatorEngine(8), CorrelatorEngine(10)):
        n = eng.n
        size = 2 * n + 4
        rng = random.Random(321)
        checked = nonzero = 0
        while checked < 25:
            comps = [rng.randrange(size) for _ in range(4)]
            index = [0] * size
            for _ in range(rng.randint(4, 8)):
                index[rng.randrange(size)] += 1
            full = list(index)
            for s in comps + [2]:
                full[s] += 1
            beta = curve_degree(n, full)
            if beta is None or beta < 0 or len({v & 1 for v in full[n + 1 :]}) > 1:
                continue
            checked += 1
            nonzero += bool(eng._extract(tuple(index), comps[:2], comps[2:]))
            assert eng.wdvv_extracted_residual(*comps, index).is_zero()
        assert nonzero >= 10


@pytest.mark.parametrize("n, m, value", [(4, 10, 18), (6, 14, 20400)])
def test_single_slot_reduction(n, m, value):
    # f, the quadratic identity and the witness sweeps never reach the
    # one-slot branch of the primitive move; the residual is its WDVV
    # equation with every boundary term kept
    eng = CorrelatorEngine(n)
    assert eng.correlator_tau(idx(n, prim=[(0, m)])) == value
    a, b = n + 1, n + 2
    assert eng.wdvv_extracted_residual(a, a, b, b, idx(n, prim=[(0, m - 2)])).is_zero()


def _ambient_step_at(eng, amb, prim, i, a, b):
    """The engine's ambient move, WDVV for (slot 1, slot i-1; a, b), at given slots."""
    vec = list(amb + prim)
    for s in (i, a, b):
        vec[s] -= 1
    specs = [(1, (1, a), (i - 1, b), 0, 0), (-1, (1, i - 1), (a, b), 1, 0)]
    return eng._signed_extracts(vec, specs)


class MinFirstEngine(CorrelatorEngine):
    """Removes the smallest ambient index first also when primitive slots are
    present, where the engine removes the largest: a second move order."""

    def _ambient_step(self, amb, prim):
        if not any(prim):
            return super()._ambient_step(amb, prim)
        i = min(k for k in range(2, self.n + 1) if amb[k])
        a = self.n + 1
        return _ambient_step_at(self, amb, prim, i, a, a if prim[0] >= 2 else a + 1)


class PlainContractEngine(CorrelatorEngine):
    """Contracts by looking up every A-side slot on every call, with no row
    cache and a sorted key per lookup: the reference for ``_contract``.  Like
    ``_contract``, it returns four times the contraction through eta."""

    def _contract(self, a, b):
        avals = [self._at(a, e) for e in range(len(a))]
        total = PZERO
        for av, row in zip(avals, eta_inverse(self.n)):
            if av:
                for f, c in row:
                    bv = self._at(b, f)
                    if bv:
                        total = padd(total, pscale(4 * c, pmul(av, bv)))
        return total


SWEEPS = [(4, 7), (6, 7), (8, 6)]


def _swept(cls, n, lmax):
    """An engine after f, the quadratic identity and a witness sweep."""
    eng = cls(n)
    eng.f_value()
    assert eng.conjecture_quadratic().is_zero()
    convergence_witness(n, lmax, eng)
    return eng


@pytest.fixture(scope="module")
def swept_main():
    engines = {}

    def get(n, lmax):
        if (n, lmax) not in engines:
            engines[n, lmax] = _swept(CorrelatorEngine, n, lmax)
        return engines[n, lmax]

    return get


@pytest.mark.parametrize("n, lmax", SWEEPS)
def test_second_move_order_agrees_on_shared_keys(n, lmax, swept_main):
    # the reconstruction theorem: a value does not depend on which WDVV
    # equation reduces it
    main, alt = swept_main(n, lmax), _swept(MinFirstEngine, n, lmax)
    shared = main.memo.keys() & alt.memo.keys()
    assert len(shared) > len(main.memo) // 2
    assert [k for k in shared if main.memo[k] != alt.memo[k]] == []


@pytest.mark.parametrize("n, lmax", SWEEPS)
def test_row_cache_matches_plain_contraction(n, lmax, swept_main):
    # the per-base cache skips lookups, never adds or drops a memo key, and
    # each entry holds exactly the nonzero A-side values of its base: by
    # ambient slot, ascending, and by primitive exponent v, raised on the
    # first slot of exponent v
    main = swept_main(n, lmax)
    assert _swept(PlainContractEngine, n, lmax).memo == main.memo
    assert main._bases
    for (amb, prim), (pairs, by_exp) in main._bases.items():
        base = list(amb + prim)
        ambient = [(e, main._at(base, e)) for e in range(n + 1)]
        assert pairs == tuple((e, v) for e, v in ambient if v)
        first = {}
        for s, v in enumerate(prim, n + 1):
            first.setdefault(v, s)
        raised = {v: main._at(base, s) for v, s in first.items()}
        assert by_exp == {v: val for v, val in raised.items() if val}


@pytest.mark.parametrize("n", range(4, 16, 2))
def test_residue_rule_marks_dead_slots(n):
    # the rule by which _base_row writes a key as zero without a lookup:
    # slot e of degree d is dead at a exactly when a + e has no integral
    # curve degree
    rng = random.Random(1500 + n)
    size = 2 * n + 4
    for _ in range(40):
        a = [0] * size
        for _ in range(rng.randint(0, 2 * n)):
            a[rng.randrange(size)] += 1
        r = _excess(n, a[: n + 1], sum(a[n + 1 :])) - 1
        for e in range(size):
            dead = (r + (e if e <= n else n // 2)) % (n - 1) != 0
            a[e] += 1
            assert dead == (curve_degree(n, a) is None)
            a[e] -= 1


@pytest.mark.parametrize("n", range(4, 16, 2))
def test_excess_matches_its_definition(n):
    # _excess by its formula written out: sum (k - 1) v_k over the ambient
    # slots, plus (n/2 - 1) per primitive insertion, less n - 3
    rng = random.Random(2600 + n)
    for _ in range(200):
        amb = [rng.randrange(4) if rng.random() < 0.4 else 0 for _ in range(n + 1)]
        room = rng.randrange(3 * n)
        plain = sum((k - 1) * amb[k] for k in range(n + 1)) + (n // 2 - 1) * room - (n - 3)
        assert _excess(n, tuple(amb), room) == plain


@pytest.mark.parametrize("n, lmax", SWEEPS + [(4, 10)])
def test_values_have_the_parity_of_their_primitive_exponents(n, lmax, swept_main):
    # the x-parity rule: a nonzero value whose primitive exponents are all
    # even (ambient-only keys included) has only even powers of x, and one
    # whose exponents are all odd only odd powers.  Each swept memo holds one
    # all-odd nonzero key; the witness memo at (4, 10) alone holds 16
    if (n, lmax) in SWEEPS:
        memo = swept_main(n, lmax).memo
    else:
        eng = CorrelatorEngine(n)
        convergence_witness(n, lmax, eng)
        memo = eng.memo
    nonzero = [(prim, value) for (_, prim), value in memo.items() if value]
    odd = [prim[-1] & 1 for prim, _ in nonzero]
    assert all(len({v & 1 for v in prim}) == 1 for prim, _ in nonzero)
    assert 0 < sum(odd) < len(nonzero)
    for (prim, value), parity in zip(nonzero, odd):
        assert all(not c for d, c in enumerate(value) if d & 1 != parity), prim


@pytest.mark.parametrize("n, lmax", SWEEPS)
def test_memo_coefficient_is_int_exactly_when_integral(n, lmax, swept_main):
    # the kernel runs on ints and keeps a Fraction only for a non-integral
    # value; at n = 4 the window correlator stores some of those
    coeffs = [c for value in swept_main(n, lmax).memo.values() for c in value]
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in coeffs)
    if n == 4:
        assert any(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("n, lmax", SWEEPS)
def test_public_returns_have_fraction_coefficients(n, lmax, swept_main):
    # seeded nonzero memo keys, read back through the public queries; the
    # quadratic residual and the WDVV residuals are zero, so carry no type
    eng = swept_main(n, lmax)
    rng = random.Random(2111 + n)
    keys = sorted(key for key, value in eng.memo.items() if value)
    polys = [eng.f_value(), eng.conjecture_quadratic_lhs()]
    for amb, prim in rng.sample(keys, 20):
        polys += [eng.correlator_tau(amb + prim), eng.correlator_t(amb + prim)]
    assert all(not p.is_zero() for p in polys[:2] + polys[2::2])
    assert {type(c) for p in polys for c in p.coeffs} == {Fraction}


F10 = (Fraction(16232959575, 4), Fraction(2467, 2))


def test_f10_by_both_move_orders():
    assert CorrelatorEngine(10).f_value().coeffs == F10
    alt = MinFirstEngine(10)
    assert alt.f_value().coeffs == F10
    assert alt.conjecture_quadratic().is_zero()


F12 = (Fraction(1043839210222043, 32), Fraction(467557, 16))


def test_f12_by_both_move_orders():
    assert CorrelatorEngine(12).f_value().coeffs == F12
    assert MinFirstEngine(12).f_value().coeffs == F12


def test_quadratic_identity_n12_by_both_move_orders():
    lhs = (Fraction(-128), 0, Fraction(512))  # 2^9 (x^2 - 1/4)
    assert CorrelatorEngine(12).conjecture_quadratic_lhs().coeffs == lhs
    assert MinFirstEngine(12).conjecture_quadratic_lhs().coeffs == lhs


def test_leaf_move_order_is_what_terminates():
    # with no primitive insertions the engine takes i smallest and a, b
    # largest; the opposite choice sends this correlator back to itself
    class MaxFirstLeafEngine(CorrelatorEngine):
        def _ambient_step(self, amb, prim):
            if any(prim):
                return super()._ambient_step(amb, prim)
            live = [k for k in range(2, self.n + 1) for _ in range(amb[k])]
            return _ambient_step_at(self, amb, prim, live[-1], live[0], live[1])

    index = (0, 0, 5, 1, 0) + (0,) * 7
    assert CorrelatorEngine(4).correlator_tau(index) == 12032
    with pytest.raises(RecursionCycleError):
        MaxFirstLeafEngine(4).correlator_tau(index)


# sha256 of the cache file written after the quadratic-identity query; any
# change to the recursion that alters a memo key or value changes these
MEMO_CACHE_SHA256 = {
    4: (14874, "770980d61ae3ffcd1b7b76c2d71b926ae24d8c0b8bad3178c09581a8a77c8caa"),
    6: (76671, "bbcfaf4704175f27c1c144ed5a2d34ba6b7d69844125769611b84577c83f62ec"),
    8: (297723, "a8aa2471b4335fba35c517921cc0a7955c2a9017da16035256804dcb499e617d"),
    10: (994693, "57c656126f493357ce8e82e9b48c0725709e6287e72f2ef7592a31d3e95cb6a0"),
}


# (memo entries, cache bytes, sha256) after the witness sweep that the
# benchmark counts, and after the window correlator at n = 8
MEMO_CACHE_SHA256_AFTER = {
    "convergence_witness(6, 7)": (
        2304,
        84530,
        "3346842b8c48d21eb7eddf108c4bfc457798dacc18bf7ef1cfe39c2ece93171b",
    ),
    "f_value(8)": (
        5422,
        240575,
        "44fdf381bcafae7fca82aa8e5ff90d86e8ae2d6f99a4b5658e03b97267a41b9f",
    ),
}


def _memo_pin(eng, tmp_path):
    path = tmp_path / "memo.cache"
    save_cache(path, eng.n, eng.memo)
    data = path.read_bytes()
    # the file loads back to the memo, which saves to the same bytes
    loaded = load_cache(path, eng.n)
    assert loaded == eng.memo
    # with the same element type at every coefficient, so a warm engine
    # that extends a loaded memo stays on ints
    assert {k: tuple(map(type, v)) for k, v in loaded.items()} == {
        k: tuple(map(type, v)) for k, v in eng.memo.items()
    }
    save_cache(path, eng.n, loaded)
    assert path.read_bytes() == data
    return len(eng.memo), len(data), hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", sorted(MEMO_CACHE_SHA256))
def test_memo_cache_bytes_pinned(n, tmp_path):
    eng = CorrelatorEngine(n)
    eng.conjecture_quadratic_lhs()
    assert _memo_pin(eng, tmp_path)[1:] == MEMO_CACHE_SHA256[n]


@pytest.mark.parametrize("query", sorted(MEMO_CACHE_SHA256_AFTER))
def test_memo_cache_bytes_pinned_after(query, tmp_path):
    if query == "f_value(8)":
        eng = CorrelatorEngine(8)
        eng.f_value()
    else:
        eng = CorrelatorEngine(6)
        assert convergence_witness(6, 7, eng) == (44040192, 1749)
    assert _memo_pin(eng, tmp_path) == MEMO_CACHE_SHA256_AFTER[query]


def _plain_cache_text(n, memo):
    """The cache text by the plain route: one record per item of
    sorted(memo.items())."""
    lines = ["qq22-cache 1 n=%d" % n]
    for (amb, prim), poly in sorted(memo.items()):
        fields = (str(n), ",".join(map(str, amb)), ",".join(map(str, prim)), poly_to_str(poly))
        lines.append("|".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, lmax", SWEEPS)
def test_save_cache_matches_plain_writer(n, lmax, swept_main, tmp_path):
    # second route for save_cache's record order, which groups the records
    # by ambient part instead of sorting the nested keys
    memo = swept_main(n, lmax).memo
    path = tmp_path / "memo.cache"
    save_cache(path, n, memo)
    assert path.read_bytes() == _plain_cache_text(n, memo).encode("ascii")


def _subindex_sum(eng, vec, aslots, bslots, lo=0, hi=0):
    """WDVV extraction as the plain sum over every subindex J <= vec, each
    term a quarter of ``_contract``, which sums over 4 eta."""
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
        total = padd(total, pscale(Fraction(w, 4), eng._contract(a, b)))
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
    # the bounds at the edges: the zero vec, whose one leaf is the empty
    # product, and small vecs with free and fixed primitive groups, at every
    # lo in 0..2 and hi in -2..0, for the first slot pairs whose plain sum
    # at lo = hi = 0 is nonzero
    eng = CorrelatorEngine(4)
    vecs = [
        (0,) * 12,
        idx(4, amb=[(2, 1)]),
        idx(4, prim=[(0, 2)]),
        idx(4, prim=[(0, 1), (1, 1)]),
        idx(4, amb=[(3, 1)], prim=[(0, 1), (1, 1)]),
        idx(4, prim=[(0, 1), (1, 1), (2, 1)]),
    ]
    pairs = list(itertools.combinations_with_replacement(range(12), 2))
    for vec in vecs:
        live = []
        for aslots, bslots in itertools.product(pairs, pairs):
            if len(live) < 6 and _subindex_sum(eng, vec, aslots, bslots):
                live.append((aslots, bslots))
        assert live, vec
        for aslots, bslots in live:
            for lo, hi in itertools.product((0, 1, 2), (0, -1, -2)):
                want = _subindex_sum(eng, vec, aslots, bslots, lo, hi)
                assert eng._extract(vec, aslots, bslots, lo, hi) == want


def _partitions(total, largest=None):
    """The partitions of total, as descending tuples."""
    if not total:
        yield ()
        return
    for v in range(min(total, largest or total), 0, -1):
        for rest in _partitions(total - v, v):
            yield (v,) + rest


def _layer_key(n, mu):
    """The primitive exponents 2 mu over the n + 3 primitive slots."""
    return tuple(2 * v for v in mu) + (0,) * (n + 3 - len(mu))


def _layer_factors(top):
    """a(0..top), a(p) = (2p)! [u^p] G(u) with
    log G = sum_{p>=1} (-1)^(p-1) (p-1)! u^p / (2p)!; G' = (log G)' G."""
    log = [0] + [
        Fraction((-1) ** (p - 1) * math.factorial(p - 1), math.factorial(2 * p))
        for p in range(1, top + 1)
    ]
    g = [Fraction(1)]
    for m in range(1, top + 1):
        g.append(sum(k * log[k] * g[m - k] for k in range(1, m + 1)) / m)
    return [math.factorial(2 * p) * c for p, c in enumerate(g)]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_first_primitive_layer_closed_form(n):
    # a second route for the layer of total exponent 2n + 2, indexed by the
    # partitions mu of n + 1: <prod eps_i^(2 mu_i)> = -2^(n-5) prod a(mu_i),
    # save the quadratic identity's mu = 1^(n+1), 2^(n-3) x^2 - 2^(n-5)
    eng = CorrelatorEngine(n)
    factors = _layer_factors(n + 1)
    scale = Fraction(2) ** (n - 5)
    for mu in _partitions(n + 1):
        if mu == (1,) * (n + 1):
            want = UniPoly((-scale, Fraction(0), 4 * scale))
        else:
            want = UniPoly((-scale * math.prod(factors[v] for v in mu),))
        assert eng.correlator_tau((0,) * (n + 1) + _layer_key(n, mu)) == want, mu


def test_quadratic_identity_n10():
    assert CorrelatorEngine(10).conjecture_quadratic().is_zero()


def test_contraction_is_called_from_the_kernel_frame(monkeypatch):
    # the stack budget without a clock or a limit: no helper frame sits
    # between _extract and _contract, so each WDVV level costs the kernel one
    # frame, and the default recursion limit holds the n = 18 quadratic and
    # f(16)
    callers = set()
    contract = CorrelatorEngine._contract

    def wrapped(self, a, b):
        callers.add(sys._getframe(1).f_code.co_name)
        return contract(self, a, b)

    monkeypatch.setattr(CorrelatorEngine, "_contract", wrapped)
    assert CorrelatorEngine(6).conjecture_quadratic().is_zero()
    assert callers == {"_extract"}


def test_n8_quadratic_makes_few_memo_lookups(monkeypatch):
    # the plain subindex sum made 1,228,317 memo lookups here; the orbit sum
    # must stay below a fifth of that.  Every lookup, through _T, _at or
    # _base_row, passes _lookup.
    calls = 0
    lookup = CorrelatorEngine._lookup

    def counted(self, key):
        nonlocal calls
        calls += 1
        return lookup(self, key)

    monkeypatch.setattr(CorrelatorEngine, "_lookup", counted)
    assert CorrelatorEngine(8).conjecture_quadratic().is_zero()
    assert calls <= 1228317 // 5


def _index_triple(exponents):
    """The primitive step's slots by the general search, on any exponent
    vector: a, b carry the two largest components, c the smallest among the
    remaining slots; ties break to the lowest slot."""
    exps = tuple(exponents)
    nonzero = sum(1 for v in exps if v)
    if nonzero <= 1:
        raise ValueError("index_triple: single nonzero component")
    if all(v == 1 for v in exps):
        raise ValueError("index_triple: all-ones vector is the special correlator")
    order = sorted(range(len(exps)), key=lambda s: (-exps[s], s))
    a, b = order[0], order[1]
    rest = [s for s in range(len(exps)) if s not in (a, b)]
    c = min(rest, key=lambda s: (exps[s], s))
    return a, b, c


class PrimitiveStepRecorder(CorrelatorEngine):
    """Records every key that reaches ``_primitive_step`` with the slots
    (a, b, c) it reduces by."""

    def __init__(self, n):
        super().__init__(n)
        self.primitive_steps = []

    def _rhs4(self, inner, a, b, c):
        prim = list(inner)
        prim[a] += 1
        prim[b] += 1
        self.primitive_steps.append((tuple(prim), (a, b, c)))
        return super()._rhs4(inner, a, b, c)


def test_primitive_step_reads_its_slots_off_the_canonical_key():
    # every key that reaches the primitive step, in the swept memos, the
    # n = 10 quadratic and the first purely primitive layer at n = 4 and 6,
    # is canonical, and its slots are those of the general search.  First the
    # search itself, on hand-picked keys and the two it refuses
    assert _index_triple((3, 2, 1, 0, 0, 0, 0)) == (0, 1, 3)
    assert _index_triple((2, 2, 2, 2, 2, 0, 0)) == (0, 1, 5)
    assert _index_triple((2,) * 7) == (0, 1, 2)
    for single in ((5, 0, 0, 0, 0, 0, 0), (1,) * 7):
        with pytest.raises(ValueError):
            _index_triple(single)
    engines = [_swept(PrimitiveStepRecorder, n, lmax) for n, lmax in SWEEPS]
    quadratic = PrimitiveStepRecorder(10)
    assert quadratic.conjecture_quadratic().is_zero()
    engines.append(quadratic)
    for n in (4, 6):
        eng = PrimitiveStepRecorder(n)
        for mu in _partitions(n + 1):
            eng._T((0,) * (n + 1), _layer_key(n, mu))
        engines.append(eng)
    steps = [step for eng in engines for step in eng.primitive_steps]
    assert len(steps) > 20
    for prim, slots in steps:
        assert list(prim) == sorted(prim, reverse=True)
        if prim[1]:
            assert slots == _index_triple(prim), prim
        else:
            assert slots == (0, 0, 1) and not any(prim[1:]), prim


def test_quadratic_conjecture_small():
    eng = CorrelatorEngine(4)
    assert eng.conjecture_quadratic_lhs().coeffs == (Fraction(-1, 2), 0, Fraction(2))
    assert eng.conjecture_quadratic().is_zero()


def test_f4_value():
    eng = CorrelatorEngine(4)
    assert eng.f_value().coeffs == (Fraction(11, 16), Fraction(5, 8))


def _gaussian_window_expansion(eng):
    """f by the plain multilinear expansion of the window classes.

    Each window class over the engine basis is 4 times the class of
    ``window_class_h_eps``, its primitive part times -i when n = 2 mod 4,
    held as Gaussian integer (re, im) pairs.  The expansion sums the product
    of one entry per class times correlator_t over every index at degree
    n/2; f is written in the unknown x' with x = i x', so the x^d
    coefficient then picks up i^d.  Returns (real, imaginary) coefficients.
    """
    from qq22.geometry import window_class_h_eps

    n = eng.n
    size = n + 3
    twist = n % 4 == 2
    classes = []
    for w in range(size):
        hcoef, eps = window_class_h_eps(w, n)
        support = [(n // 2, (int(4 * hcoef), 0))]
        for j, e in enumerate(eps):
            support.append((n + 1 + j, (0, -int(4 * e)) if twist else (int(4 * e), 0)))
        classes.append(support)
    acc = {(0,) * (2 * n + 4): (1, 0)}
    for support in classes:
        nxt = {}
        for key, (ar, ai) in acc.items():
            for slot, (gr, gi) in support:
                k = key[:slot] + (key[slot] + 1,) + key[slot + 1 :]
                cr, ci = nxt.get(k, (0, 0))
                nxt[k] = (cr + ar * gr - ai * gi, ci + ar * gi + ai * gr)
        acc = nxt
    re, im = {}, {}
    for key, (ar, ai) in acc.items():
        if eng.beta_of_t_index(key) != n // 2:
            continue
        for d, c in enumerate(eng.correlator_t(key).coeffs):
            r, i = ar * c, ai * c
            for _ in range(d if twist else 0):
                r, i = -i, r  # times i
            re[d] = re.get(d, 0) + r
            im[d] = im.get(d, 0) + i
    scale = Fraction(1, 4**size)
    degrees = range(max(re, default=-1) + 1)
    return (
        UniPoly([re[d] * scale for d in degrees]),
        UniPoly([im[d] * scale for d in degrees]),
    )


def test_f_value_matches_gaussian_expansion():
    # second route: the multilinear expansion of the window classes over the
    # engine basis, in Gaussian integer arithmetic, at the fixed degree
    for n in (4, 6):
        eng = CorrelatorEngine(n)
        real, imag = _gaussian_window_expansion(eng)
        assert imag.is_zero()
        assert eng.f_value() == real
        assert not real.is_zero()


def test_f_integer_at_conjectural_x():
    # Observed, not proved: at the conjectural x = (-1)^{n/2} / 2 (the value
    # convergence_witness uses) the window correlator is an integer for every
    # n computed, and at the opposite sign it is not, so integrality picks
    # the sign.  f(4) = 1 agrees with the single conic conic_pipeline finds.
    cases = (
        (4, 1, Fraction(3, 8)),
        (6, 1204, Fraction(9671, 8)),
        (8, 1610489, Fraction(3220843, 2)),
    )
    for n, expected, opposite in cases:
        f = CorrelatorEngine(n).f_value()
        sign = (-1) ** (n // 2)
        assert peval(f.coeffs, Fraction(sign, 2)) == expected
        assert peval(f.coeffs, Fraction(-sign, 2)) == opposite


def test_class_entry_bilinearity(eng4):
    from qq22.geometry import window_class_h_eps

    classes = []
    for w in range(7):
        hcoef, eps = window_class_h_eps(w, 4)
        classes.append([0, 0, hcoef, 0, 0] + eps)
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


def _plain_witness(eng, lmax):
    """convergence_witness by the plain route: curve_degree on every
    candidate, a sorted scan, and the grid search on every nonzero value."""
    n = eng.n
    for total in range(5, lmax + 1):
        for amb in _ambient_exponents(n, total):
            for prim in _prim_partitions(n, total - sum(amb)):
                if curve_degree(n, amb + prim) is not None:
                    eng._T(amb, prim)
    xval = Fraction((-1) ** (n // 2), 2)
    best, count = Fraction(1), 0
    for (amb, prim), poly in sorted(eng.memo.items()):
        length = sum(amb) + sum(prim)
        if 6 <= length <= lmax:
            count += 1
            v = abs(peval(poly, xval))
            if v:
                best = max(best, Fraction(_grid_steps(v, length - 5), 4))
    return best, count


@pytest.mark.parametrize("n, lmax", [(4, 8), (6, 7), (8, 6)])
def test_witness_matches_plain_route(n, lmax):
    plain = CorrelatorEngine(n)
    expected = _plain_witness(plain, lmax)
    eng = CorrelatorEngine(n)
    assert convergence_witness(n, lmax, eng) == expected
    assert eng.memo == plain.memo


def _fraction_grid_steps(v, k):
    """Smallest m >= 1 with (m/4)^k >= v / k!, by bisection on Fractions."""
    target = v / math.factorial(k)
    lo, hi = 1, 2
    while (hi * Fraction(1, 4)) ** k < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid * Fraction(1, 4)) ** k >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_witness_grid_search_in_ints():
    # second route for convergence_witness's integer search; the values on
    # a grid boundary, v = (m/4)^k k!, must give m itself, and a hair more
    # must give m + 1
    rng = random.Random(4217)
    for k in range(1, 9):
        values = [Fraction(0), Fraction(1, 10**9)]
        values += [
            Fraction(rng.randrange(1, 10**15), rng.randrange(1, 10**6))
            for _ in range(40)
        ]
        for m in [1, 2, 3, 4, 5] + [rng.randrange(6, 10**6) for _ in range(20)]:
            edge = Fraction(m, 4) ** k * math.factorial(k)
            assert _grid_steps(edge, k) == m
            assert _grid_steps(edge + Fraction(1, 10**40), k) == m + 1
            values += [edge, edge - Fraction(1, 10**40), edge + Fraction(1, 10**40)]
        for v in values:
            assert _grid_steps(v, k) == _fraction_grid_steps(v, k)


def test_peval():
    assert peval((Fraction(1), Fraction(2)), Fraction(1, 2)) == 2


@pytest.mark.parametrize("bad", [7.5, "7", True])
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
    # the curve degree is read off a full-length, nonnegative index only
    for bad in ((0, 0, 0, 0, 1, 1), [0] * 11 + [-1]):
        with pytest.raises(ValueError):
            eng4.beta_of_t_index(bad)
    assert eng4.beta_of_t_index(idx(4, amb=[(3, 2), (4, 1)])) == 2


@pytest.mark.parametrize("slot", [-1, 12, 1.0, "0", True])
def test_wdvv_residual_slots_are_checked(eng4, slot):
    # slot -1 used to alias slot 11, slot 12 raised IndexError, and True
    # was read as slot 1
    index = [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError, match="slot"):
        eng4.wdvv_extracted_residual(slot, 5, 6, 2, index)
    assert eng4.wdvv_extracted_residual(11, 5, 6, 2, index).is_zero()
