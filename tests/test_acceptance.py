"""Acceptance suite: every criterion exact, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
comparisons are exact; the stated wall-clock budgets are asserted too.
"""

import random
import time
from fractions import Fraction

from qq22.engine import CorrelatorEngine, convergence_witness
from qq22 import geometry as geo
from qq22 import semisimple as ss
from qq22.matrices import mat_charpoly
from qq22.polynomials import UniPoly, squarefree
from qq22.serial import poly_to_str


def idx(n, amb=(), prim=()):
    v = [0] * (2 * n + 4)
    for slot, k in amb:
        v[slot] += k
    for slot, k in prim:
        v[n + 1 + slot] += k
    return tuple(v)


def report(num, label, ok):
    print("ACCEPTANCE %d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (num, label)


def test_criterion_1_length7_table():
    start = time.time()
    eng = CorrelatorEngine(4)  # cold cache
    table = [
        ([(2, 7)], [], 46656),
        ([(2, 5)], [(0, 2)], -624),
        ([(2, 3)], [(0, 4)], 36),
        ([(2, 3)], [(0, 2), (1, 2)], 4),
        ([(2, 1)], [(0, 6)], -7),
        ([(2, 1)], [(0, 4), (1, 2)], 1),
        ([(2, 1)], [(0, 2), (1, 2), (2, 2)], 1),
    ]
    ok = all(
        eng.correlator_t(idx(4, amb=amb, prim=prim)) == expected
        for amb, prim, expected in table
    )
    elapsed = time.time() - start
    report(1, "length-7 golden table, %.1fs" % elapsed, ok and elapsed < 60)


def test_criterion_2_base_cross_checks():
    start = time.time()
    ok = True
    for n in (4, 6):
        eng = CorrelatorEngine(n)
        ok &= eng.correlator_t(idx(n, amb=[(n - 1, 2), (n, 1)])) == 192
        ok &= eng.correlator_t(idx(n, amb=[(n - 1, 1)], prim=[(0, 2)])) == -4
        ok &= eng.correlator_t(idx(n, amb=[(n - 1, 1), (n, 1)], prim=[(0, 2)])) == -16
        ok &= eng.correlator_t(idx(n, amb=[(n - 1, 1), (n, 2)], prim=[(0, 2)])) == -192
        # length-5 identities with the four-point value 1 substituted
        ok &= eng.correlator_t(idx(n, amb=[(n, 1)], prim=[(0, 2), (1, 2)])) == 4 - 4 * 1
        ok &= eng.correlator_t(idx(n, amb=[(n, 1)], prim=[(0, 4)])) == 12 - 4 * 1
    elapsed = time.time() - start
    report(2, "base and low-order cross-checks n=4,6, %.1fs" % elapsed, ok and elapsed < 120)


def test_criterion_3_special_expressions():
    t0 = time.time()
    f4 = CorrelatorEngine(4).f_value()
    t4 = time.time() - t0
    t0 = time.time()
    f6 = CorrelatorEngine(6).f_value()
    t6 = time.time() - t0
    t0 = time.time()
    f8 = CorrelatorEngine(8).f_value()
    t8 = time.time() - t0
    ok = (
        f4.coeffs == (Fraction(11, 16), Fraction(5, 8))
        and f6.coeffs == (Fraction(19303, 16), Fraction(39, 8))
        and f8.coeffs == (Fraction(6441821, 4), Fraction(135, 2))
        and t4 < 60
        and t6 < 900
        and t8 < 3600
    )
    report(3, "window correlators f(4)/f(6)/f(8), %.0fs/%.0fs/%.0fs" % (t4, t6, t8), ok)


def test_criterion_4_quadratic_identity():
    ok = True
    eng6 = CorrelatorEngine(6)
    ok &= poly_to_str(eng6.conjecture_quadratic_lhs().coeffs, descending=True) == "8*x^2-2"
    for n in (4, 6, 8):
        ok &= CorrelatorEngine(n).conjecture_quadratic().is_zero()
    report(4, "quadratic identity residuals n=4,6,8", ok)


def test_criterion_5_property_suite():
    start = time.time()
    eng = CorrelatorEngine(4)
    rng = random.Random(1234)
    ok = True
    # permutation invariance on 100 random indices
    for _ in range(100):
        amb = [(k, rng.randint(0, 2)) for k in range(2, 5)]
        prim = [(s, rng.randint(0, 2)) for s in range(7)]
        index = idx(4, amb=amb, prim=prim)
        if sum(index) < 3:
            continue
        base = eng.correlator_tau(index)
        perm = list(range(7))
        rng.shuffle(perm)
        shuffled = list(index)
        for s in range(7):
            shuffled[5 + perm[s]] = index[5 + s]
        ok &= eng.correlator_tau(shuffled) == base
    # parity vanishing on 100 random mixed-parity indices
    found = 0
    while found < 100:
        prim = [rng.randint(0, 3) for _ in range(7)]
        if len({v & 1 for v in prim}) != 2:
            continue
        index = idx(4, amb=[(k, rng.randint(0, 1)) for k in range(2, 5)], prim=list(enumerate(prim)))
        if sum(index) < 3:
            continue
        ok &= eng.correlator_tau(index).is_zero()
        found += 1
    # dimension vanishing
    for _ in range(50):
        index = [0] * 12
        for _ in range(rng.randint(3, 8)):
            index[rng.randrange(12)] += 1
        n = 4
        weighted = sum(k * v for k, v in enumerate(index[:5])) + 2 * sum(index[5:])
        if (weighted - (1 + sum(index))) % 3:
            ok &= eng.correlator_tau(index).is_zero()
    # divisor-equation consistency for all cached correlators
    for (amb, prim), _ in eng.cached_items():
        index = amb + prim
        if sum(index) < 3:
            continue
        beta = eng.beta_of_t_index(index)
        if beta is None or beta < 0:
            continue
        bumped = list(index)
        bumped[1] += 1
        ok &= eng.correlator_t(bumped) == eng.correlator_t(index) * Fraction(beta)
    # WDVV residual for 25 random extracted components, |I| <= 4
    for _ in range(25):
        comps = [rng.randrange(12) for _ in range(4)]
        index = [0] * 12
        for _ in range(rng.randint(0, 4)):
            index[rng.randrange(12)] += 1
        ok &= eng.wdvv_extracted_residual(*comps, index).is_zero()
    elapsed = time.time() - start
    report(5, "n=4 property suite, %.1fs" % elapsed, ok and elapsed < 600)


def test_criterion_6_semisimplicity():
    start = time.time()
    ok = True
    for n in (4, 6):
        rows = ss.semisimple_scan(n, 20, seed=2024)
        accepted = [r for r in rows if not r.rejected]
        ok &= len(accepted) == 20
        ok &= all(r.agrees for r in accepted)
        ok &= sum(1 for r in accepted if r.squarefree) >= 19
        zero = ss.closed_form_charpoly(n, [0] * (n + 3))
        z = UniPoly.x()
        ok &= zero == z ** (n + 5) * (z ** (n - 1) - 16 * (n - 1) ** (n - 1))
        ok &= mat_charpoly(ss.cutoff_matrix(n, [0] * (n + 3))) == zero
    ok &= ss.branch_discriminant(4) == 56448
    ok &= ss.branch_discriminant(6) == 207360
    elapsed = time.time() - start
    report(6, "semisimplicity checks n=4,6, %.1fs" % elapsed, ok and elapsed < 300)


def test_criterion_7_conic_pipeline():
    start = time.time()
    pipeline = geo.conic_pipeline()
    rigidity = geo.dual_uniqueness()
    ok = pipeline.ok and rigidity.ok and geo.no_conic_through_meeting_points(range(1, 8))
    elapsed = time.time() - start
    report(7, "dimension-4 conic pipeline, %.1fs" % elapsed, ok and elapsed < 120)


def test_criterion_8_lattice_suite():
    start = time.time()
    ok = True
    for n in (4, 6, 8):
        gram = geo.epsilon_gram(n)
        sign = (-1) ** (n // 2)
        ok &= all(
            gram[i][j] == (sign if i == j else 0)
            for i in range(n + 3)
            for j in range(n + 3)
        )
        ok &= geo.only_base_plane_meets_all_windows(n)
    ok &= geo.intersection_number({0}, {1}, 4) == 1
    ok &= geo.intersection_number({0}, {0}, 4) == 2
    # any plane class pairs to 1 against the middle hyperplane power
    pairing = geo._pairing_matrix(4)
    ok &= pairing[0][1] == 1
    for n in range(4, 66, 2):
        ok &= geo.window_sum_inequality(n)
    elapsed = time.time() - start
    report(8, "lattice suite n=4,6,8, %.1fs" % elapsed, ok and elapsed < 120)


def test_criterion_9_convergence_witness():
    c7, count7 = convergence_witness(4, 7)
    c8, count8 = convergence_witness(4, 8)
    ok = c7 >= 1 and c8 >= c7 and count8 > count7 > 0
    report(9, "convergence witness C(7)=%s C(8)=%s" % (c7, c8), ok)
