import itertools
import random
from fractions import Fraction

import pytest

from qq22 import geometry as geo
from qq22.matrices import mat_det, mat_nullspace, mat_rank
from qq22.polynomials import UniPoly

from meeting import plane_meeting_system


# A second route to the Plucker objects, by generic minors: the package
# builds the meeting system and the unflipped plane's vector from closed
# forms, and these helpers recompute both the long way.

def cutting_pluckers(b):
    """Plucker vector of the plane cut out by a 4x7 matrix of linear forms.

    The coordinate at triple I is the 4x4 minor on the complementary
    columns.
    """
    assert len(b) == 4 and all(len(row) == 7 for row in b)
    out = []
    for tri in geo.TRIPLES:
        cols = [c for c in range(7) if c not in tri]
        out.append(mat_det([[row[c] for c in cols] for row in b]))
    return out


def spanning_pluckers(m):
    """Plucker vector of the row space of a 3x7 matrix, cutting convention.

    Converts the spanning-convention minors with the duality sign
    (-1)^{sum(I)+1} so the result matches ``cutting_pluckers`` of any matrix
    annihilating the rows.
    """
    assert len(m) == 3 and all(len(row) == 7 for row in m)
    out = []
    for tri in geo.TRIPLES:
        sub = [[row[c] for c in tri] for row in m]
        out.append(Fraction((-1) ** (sum(tri) + 1)) * mat_det(sub))
    return out


def base_plane_cut_matrix(lams):
    """Power-sum equations (exponents 0..3) cutting the unflipped plane."""
    return [[Fraction(v) ** p for v in lams] for p in range(4)]


def minor_meeting_system(lams):
    """The 28 x 35 meeting system from 3x3 minors: block j, row k is the
    ``spanning_pluckers`` vector of the flipped equations without power 3-k."""
    rows = []
    for j in range(7):
        nj = geo.flipped_cut_matrix(lams, j)
        for k in range(4):
            rows.append(spanning_pluckers([nj[p] for p in range(4) if p != 3 - k]))
    return rows


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
        p = spanning_pluckers(m)
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
        p_cut = cutting_pluckers(ann)
        p_span = spanning_pluckers(m)
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


def _closed_form_sample_lams():
    """(1..7), then seeded draws: ints with 0 and negatives, Fractions, a mix."""
    rng = random.Random(19)
    sets = [list(range(1, 8)), [0, -1, 2, -3, 4, -5, 6]]
    while len(sets) < 26:
        kind = len(sets) % 3
        if kind == 0:
            vals = rng.sample(range(-9, 10), 7)
        else:
            vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(7)]
            if kind == 2:
                vals[:3] = rng.sample(range(-9, 10), 3)
        if len(set(vals)) == 7:
            sets.append(vals)
    return sets


def test_closed_forms_match_minors():
    # the closed forms equal the generic minors exactly, element type included
    for lams in _closed_form_sample_lams():
        got, want = plane_meeting_system(lams), minor_meeting_system(lams)
        assert got == want
        assert all(type(v) is Fraction for row in got + want for v in row)


def test_integer_core_scales_the_fraction_view():
    # the integer rows and base-plane vector are built at mu = D lam; row
    # 4j+k is homogeneous of degree 3+k and the vector of degree 6, so
    # dividing by those powers of D gives the meeting system at lam and the
    # base plane's minors, as Fractions
    denominators = set()
    for lams in _closed_form_sample_lams():
        rows, d = geo._integer_meeting_system(lams)
        vec, d_base = geo._integer_base_plane(lams)
        assert d == d_base and all(type(x) is int for row in rows + [vec] for x in row)
        denominators.add(d)
        view = [[Fraction(x, d ** (3 + r % 4)) for x in row] for r, row in enumerate(rows)]
        base = [Fraction(x, d**6) for x in vec]
        for got, want in (
            (view, minor_meeting_system(lams)),
            ([base], [cutting_pluckers(base_plane_cut_matrix(lams))]),
        ):
            assert got == want
            assert all(type(v) is Fraction for row in want for v in row)
    assert 1 in denominators and len(denominators) > 5


def test_parameters_pass_the_exact_scalar_gate():
    for bad in (1.0, 0.5, "1/2"):
        lams = [bad, 2, 3, 4, 5, 6, 7]
        for f in (
            geo.conic_pipeline,
            geo.dual_uniqueness,
            geo.no_conic_through_meeting_points,
            geo.conic_plane_in_conjectural_quadric,
            geo._integer_meeting_system,
            geo._integer_base_plane,
        ):
            with pytest.raises(TypeError, match="parameter must be int or Fraction"):
                f(lams)
    assert geo.no_conic_through_meeting_points([Fraction(1, 2), 2, 3, 4, 5, 6, 7])


def test_lattice_functions_check_the_dimension():
    for n in (5, 2, 0, -4):
        calls = (
            lambda: geo.flip_mismatch_count(set(), set(), n),
            lambda: geo.intersection_dim(set(), {0}, n),
            lambda: geo.intersection_number({0}, {0}, n),
            lambda: geo.epsilon_gram(n),
            lambda: geo.only_base_plane_meets_all_windows(n),
            lambda: geo.window(0, n),
            lambda: geo.window_class_h_eps(0, n),
            lambda: geo.window_sum_inequality(n),
        )
        for call in calls:
            with pytest.raises(ValueError, match="dimension must be even and >= 4"):
                call()


def test_meeting_system_shape_and_solutions():
    ec = plane_meeting_system(range(1, 8))
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
        plane_meeting_system([1, 1, 2, 3, 4, 5, 6])


def test_q_substitution_structure():
    # dividing column I by the cyclic difference product turns the
    # powers-(0,1,2) row of each block into +-1 entries and the
    # powers-(1,2,3) row into +- products of three parameters
    lams = [Fraction(v) for v in range(1, 8)]
    ec = plane_meeting_system(lams)
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


def _sort_sign(idx):
    """Parity sign of sorting an index tuple; 0 on repeats."""
    if len(set(idx)) < len(idx):
        return 0, ()
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, tuple(sorted(idx))


def relations_by_sorting():
    """The exchange relations with each sign found by counting the
    inversions of (i, j, l): a second route to ``plucker_relations``,
    which takes the signs from a closed form."""
    rels = []
    for pair in itertools.combinations(range(7), 2):
        for quad in itertools.combinations(range(7), 4):
            terms = []
            for t, l in enumerate(quad):
                s1, t1 = _sort_sign(pair + (l,))
                if not s1:
                    continue
                rest = tuple(x for x in quad if x != l)
                terms.append((s1 * (-1) ** t, geo.TRIPLE_POS[t1], geo.TRIPLE_POS[rest]))
            if terms:
                rels.append(tuple(terms))
    return tuple(rels)


def test_plucker_relations_match_the_sorting_route():
    # same relations in the same order, each term's sign and positions too
    rels = geo.plucker_relations()
    assert rels == relations_by_sorting()
    assert all(type(sign) is int for rel in rels for sign, _, _ in rel)


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
    base = cutting_pluckers(base_plane_cut_matrix(range(1, 8)))
    scale = Fraction(base[0]) / geo.PLANE_SOLUTION_BASE[0]
    assert scale != 0
    for u, v in zip(base, geo.PLANE_SOLUTION_BASE):
        assert u == scale * v


def test_conic_pipeline_all_stages():
    report = geo.conic_pipeline()
    failures = [s.name for s in report.stages if not s.ok]
    assert report.ok, failures
    assert len(report.stages) >= 30


def test_pipeline_coprime_summary_fails_with_its_pair(monkeypatch):
    # a common factor reported for one pair fails that pair's stage and the
    # summary stage, not only the former
    exact_gcd = geo.poly_gcd
    calls = []

    def one_shared_factor(p, q):
        calls.append((p, q))
        return UniPoly.x() if len(calls) == 3 else exact_gcd(p, q)

    monkeypatch.setattr(geo, "poly_gcd", one_shared_factor)
    report = geo.conic_pipeline()
    failed = [s.name for s in report.stages if not s.ok]
    assert failed == ["components 0,3 coprime", "components pairwise coprime"]
    assert not report.ok


def test_pipeline_rejects_other_parameters():
    # the three functions that read the (1..7) tables share one gate and its
    # message, the one the conics command prints
    message = r"^pipeline verification data exists only for \(1,\.\.\.,7\)$"
    for f in (geo.conic_pipeline, geo.dual_uniqueness, geo.conic_plane_in_conjectural_quadric):
        with pytest.raises(ValueError, match=message):
            f([1, 2, 3, 4, 5, 6, 8])


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
    ec = plane_meeting_system(range(1, 8))
    rational = mat_nullspace(ec)
    span = {tuple(v) for v in rational}
    for vec in rational:
        assert all(sum(c * x for c, x in zip(row, vec)) == 0 for row in ec)
    assert len(span) == 7
