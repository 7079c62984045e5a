import itertools
import random
from fractions import Fraction

import pytest

from qq22 import geometry as geo
from qq22.matrices import mat_nullspace, mat_rank


def test_flip_set_combinatorics():
    n = 4
    rng = random.Random(15)
    for _ in range(30):
        i_set = frozenset(v for v in range(n + 3) if rng.random() < 0.4)
        j_set = frozenset(v for v in range(n + 3) if rng.random() < 0.4)
        assert geo.flip_mismatch_count(i_set, j_set, n) == geo.flip_mismatch_count(j_set, i_set, n)
        assert geo.flip_mismatch_count(i_set, i_set, n) == 0
    # flip indices are the coordinates 0..n+2
    for bad in ({n + 3}, {-1}, {0, 99}, {1.5}):
        with pytest.raises(ValueError):
            geo.flip_mismatch_count(bad, set(), n)
        with pytest.raises(ValueError):
            geo.intersection_number(set(), bad, n)


def test_intersection_dims():
    n = 4
    assert geo.intersection_dim(set(), set(), n) == 2
    assert geo.intersection_dim(set(), {0, 1}, n) == 0
    assert geo.intersection_dim(set(), {0, 1, 2}, n) == -1
    assert geo.intersection_dim(set(), {0, 1, 2, 3, 4}, n) == 0
    # dimension is insensitive to complementing either argument
    assert geo.intersection_dim({0}, {1}, n) == geo.intersection_dim(
        frozenset(range(7)) - frozenset({0}), {1}, n
    )


def test_intersection_numbers_spot():
    n = 4
    assert geo.intersection_number({0}, {1}, n) == 1
    assert geo.intersection_number({0}, {0}, n) == 2
    assert geo.intersection_number(set(), {0, 1, 2}, n) == 0


def test_epsilon_gram_signed_identity():
    for n in (4, 6, 8):
        gram = geo.epsilon_gram(n)
        sign = (-1) ** (n // 2)
        for i in range(n + 3):
            for j in range(n + 3):
                assert gram[i][j] == (sign if i == j else 0)
        # each orthogonal class pairs to zero with h_{n/2}
        ph = [row[0] for row in geo._pairing_matrix(n)]
        for v in geo._orthobasis_vectors(n):
            assert sum(a * b for a, b in zip(v, ph)) == 0


def test_plane_class_roundtrip():
    # over the (h_{n/2}, single-flip planes) coordinates:
    # plane_i = eps_{i+1} - (1/2) sum eps + h/4, and the unflipped plane
    # (n/2+1)/(n+1) h - 1/(n+1) sum planes = h/4 + (1/2) sum eps
    for n in (4, 6):
        vecs = geo._orthobasis_vectors(n)
        size = n + 4
        half_sum = [Fraction(1, 2) * sum(v[k] for v in vecs) for k in range(size)]
        quarter_h = [Fraction(1, 4)] + [Fraction(0)] * (n + 3)
        for i in range(n + 3):
            plane = [Fraction(0)] * size
            plane[i + 1] = Fraction(1)
            assert plane == [
                e - s + q for e, s, q in zip(vecs[i], half_sum, quarter_h)
            ]
        base = [Fraction(n // 2 + 1, n + 1)] + [Fraction(-1, n + 1)] * (n + 3)
        assert base == [s + q for s, q in zip(half_sum, quarter_h)]


def test_window_class_coefficients_n4():
    hcoef, eps = geo.window_class_h_eps(0, 4)
    assert hcoef == Fraction(1, 4)
    assert eps[0] == eps[1] == Fraction(-1, 2)
    assert all(c == Fraction(1, 2) for c in eps[2:])


def test_window_self_intersection_two_routes():
    # windows 0 and 1 paired homologically and through the orthogonal basis,
    # where h.h = 4 and eps_i.eps_j = (-1)^{n/2} delta_ij
    for n in (4, 6):
        direct = geo.intersection_number(geo.window(0, n), geo.window(1, n), n)
        h0, e0 = geo.window_class_h_eps(0, n)
        h1, e1 = geo.window_class_h_eps(1, n)
        sign = (-1) ** (n // 2)
        assert direct == 4 * h0 * h1 + sign * sum(a * b for a, b in zip(e0, e1))


def test_unique_meeting_plane():
    assert geo.only_base_plane_meets_all_windows(4)
    assert geo.only_base_plane_meets_all_windows(6)
    # explicit witness: the single flip {0} misses some window
    assert any(
        geo.intersection_dim({0}, geo.window(i, 4), 4) < 0 for i in range(7)
    )


def test_window_sum_inequality():
    for n in range(4, 66, 2):
        assert geo.window_sum_inequality(n)


def test_plucker_relations_on_spanning_planes():
    rng = random.Random(8)
    rels = geo.plucker_relations()
    for _ in range(5):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(7)] for _ in range(3)]
        if mat_rank(m) < 3:
            continue
        p = geo.spanning_pluckers(m)
        assert all(geo.evaluate_relation(r, p) == 0 for r in rels)


def test_spanning_and_cutting_conventions_agree():
    rng = random.Random(80)
    checked = 0
    for _ in range(5):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(7)] for _ in range(3)]
        if mat_rank(m) < 3:
            continue
        # the four linear forms vanishing on the rows of m
        ann = mat_nullspace(m)
        assert len(ann) == 4
        p_cut = geo.cutting_pluckers(ann)
        p_span = geo.spanning_pluckers(m)
        scale = None
        for u, v in zip(p_cut, p_span):
            if (u == 0) != (v == 0):
                pytest.fail("support mismatch between conventions")
            if v:
                r = u / v
                if scale is None:
                    scale = r
                assert r == scale
        checked += 1
    assert checked


def test_meeting_system_shape_and_solutions():
    ec = geo.plane_meeting_system(range(1, 8))
    assert len(ec) == 28 and all(len(row) == 35 for row in ec)
    assert len(mat_nullspace(ec)) == 7
    for table in (geo.PLANE_SOLUTION_MAIN, geo.PLANE_SOLUTION_BASE):
        assert all(sum(c * x for c, x in zip(row, table)) == 0 for row in ec)
    # leading coefficient pinned by the displayed first row family
    lams = [Fraction(v) for v in range(1, 8)]
    expect = (
        lams[0]
        * lams[1]
        * lams[2]
        * (lams[0] - lams[1])
        * (lams[1] - lams[2])
        * (lams[2] - lams[0])
    )
    assert ec[3][0] == expect
    with pytest.raises(ValueError):
        geo.plane_meeting_system([1, 1, 2, 3, 4, 5, 6])


def test_q_substitution_structure():
    # dividing column I by the cyclic difference product turns the
    # powers-(0,1,2) row of each block into +-1 entries and the
    # powers-(1,2,3) row into +- products of three parameters
    lams = [Fraction(v) for v in range(1, 8)]
    ec = geo.plane_meeting_system(lams)
    signs = []
    for pos, tri in enumerate(geo.TRIPLES[:4]):
        a, b, c = (lams[i] for i in tri)
        q = (a - b) * (b - c) * (c - a)
        unit = ec[0][pos] / q
        assert unit in (1, -1)
        signs.append(unit)
        assert ec[3][pos] / q == unit * a * b * c
    assert signs == [1, -1, -1, 1]


def test_tables_satisfy_relations():
    rels = geo.plucker_relations()
    for table in (geo.PLANE_SOLUTION_MAIN, geo.PLANE_SOLUTION_BASE):
        assert all(geo.evaluate_relation(r, table) == 0 for r in rels)


def test_plucker_relations_built_once():
    rels = geo.plucker_relations()
    assert geo.plucker_relations() is rels
    assert type(rels) is tuple and len(rels) == 735
    assert all(type(rel) is tuple and all(len(t) == 3 for t in rel) for rel in rels)
    geo.plucker_relations.cache_clear()
    assert geo.plucker_relations() == rels


def test_integral_tables_hold_ints():
    rows = [geo.PLANE_SOLUTION_MAIN, geo.PLANE_SOLUTION_BASE, *geo.PARAM_WS, *geo.FREENESS_MATRIX]
    assert all(type(v) is int for row in rows for v in row)


def test_base_table_is_base_plane():
    base = geo.cutting_pluckers(geo.base_plane_cut_matrix(range(1, 8)))
    scale = Fraction(base[0]) / geo.PLANE_SOLUTION_BASE[0]
    assert scale != 0
    for u, v in zip(base, geo.PLANE_SOLUTION_BASE):
        assert u == scale * v


def test_conic_pipeline_all_stages():
    report = geo.conic_pipeline()
    failures = [s.name for s in report.stages if not s.ok]
    assert report.ok, failures
    assert len(report.stages) >= 30


def test_pipeline_rejects_other_parameters():
    with pytest.raises(ValueError):
        geo.conic_pipeline([1, 2, 3, 4, 5, 6, 8])


def test_dual_uniqueness():
    report = geo.dual_uniqueness()
    failures = [s.name for s in report.stages if not s.ok]
    assert report.ok, failures


def test_no_conic_through_meeting_points():
    assert geo.no_conic_through_meeting_points(range(1, 8))
    m_rows = 7
    lams = [Fraction(v) for v in range(1, 8)]
    rows = []
    for i in range(m_rows):
        a, b = lams[i], lams[(i + 1) % 7]
        x, y = a * b, -a - b
        rows.append([x * x, y * y, 1, x * y, x, y])
    assert mat_rank(rows) == 6


def test_conjectural_quadric_contains_plane():
    assert geo.conic_plane_in_conjectural_quadric()


def test_quadric_scalings():
    q1, q2 = geo.rescaled_quadric_coeffs(range(1, 8))
    assert [v / 12 for v in q1] == [Fraction(v) for v in geo.QUADRIC_1_SCALED]
    assert [v / 48 for v in q2] == [Fraction(v) for v in geo.QUADRIC_2_SCALED]


def test_dual_number_system_dimension():
    # the meeting system leaves seven free parameters: its rational kernel
    # has seven independent vectors, each solving the system
    ec = geo.plane_meeting_system(range(1, 8))
    rational = mat_nullspace(ec)
    span = {tuple(v) for v in rational}
    for vec in rational:
        assert all(sum(c * x for c, x in zip(row, vec)) == 0 for row in ec)
    assert len(span) == 7
