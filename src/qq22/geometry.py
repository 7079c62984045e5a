"""Middle-dimensional plane lattice and the dimension-4 conic verification.

The variety is cut out by sum Y_i^2 = 0 and sum lam_i Y_i^2 = 0 with pairwise
distinct lam_i.  Its middle-dimensional planes are parametrized by sign-flip
subsets of the coordinates; this module implements their intersection
calculus for any even n >= 4, and, for n = 4 with lam = (1..7), the full
exact pipeline that pins down the unique conic meeting the seven consecutive
sign-flip planes: the linear system on Plucker coordinates, its
seven-dimensional solution space, the two plane solutions, the conic through
the seven marked points, its parametrization, the two quadric containment
identities, the freeness determinant and the first-order rigidity check.
Matrices are plain row lists, as in ``matrices``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .matrices import mat_det, mat_nullspace, mat_rank
from .polynomials import UniPoly, poly_gcd

# ---------------------------------------------------------------------------
# plane lattice combinatorics

def flip_mismatch_count(i_set, j_set, n):
    """Number of coordinates where the two flip patterns disagree.

    Flip indices are the integer coordinates 0..n+2; a non-integer or any
    other index is a ValueError.
    """
    i_set, j_set = frozenset(i_set), frozenset(j_set)
    for v in i_set | j_set:
        try:
            k = operator.index(v)
        except TypeError:
            raise ValueError("flip index %r is not an integer" % (v,)) from None
        if not 0 <= k <= n + 2:
            raise ValueError("flip index %r out of range 0..%d" % (v, n + 2))
    return len(i_set ^ j_set)


def intersection_dim(i_set, j_set, n):
    """Dimension of the intersection of two flip planes; -1 when empty."""
    m = flip_mismatch_count(i_set, j_set, n)
    half = n // 2
    if m <= half:
        return half - m
    if m <= half + 2:
        return -1
    return m - half - 3


def intersection_number(i_set, j_set, n):
    """Homological intersection number of two flip-plane classes."""
    r = intersection_dim(i_set, j_set, n)
    if r < 0:
        return Fraction(0)
    return Fraction((-1) ** r * (r // 2 + 1))


def window(i, n):
    """The consecutive flip set of length n/2 starting at position i."""
    return frozenset((i + k) % (n + 3) for k in range(n // 2))


def only_base_plane_meets_all_windows(n):
    """Check by enumeration that only the unflipped plane meets every window.

    Iterates the 2^{n+2} canonical flip subsets; returns True when the empty
    set is the sole survivor.
    """
    wins = [window(i, n) for i in range(n + 3)]
    survivors = []
    universe = list(range(1, n + 3))
    for r in range(n + 3):
        for tail in itertools.combinations(universe, r):
            subset = frozenset(tail)
            if len(subset) > (n + 3) // 2:
                continue
            if all(intersection_dim(subset, w, n) >= 0 for w in wins):
                survivors.append(subset)
    return survivors == [frozenset()]


# ---------------------------------------------------------------------------
# middle-degree classes over the basis (h_{n/2}, plane classes)

def _pairing_matrix(n):
    """Pairing of (h_{n/2}, single-flip planes 0..n+2)."""
    size = n + 4
    m = [[Fraction(0)] * size for _ in range(size)]
    m[0][0] = Fraction(4)
    for i in range(n + 3):
        m[0][i + 1] = m[i + 1][0] = Fraction(1)
        for j in range(n + 3):
            m[i + 1][j + 1] = intersection_number({i}, {j}, n)
    return m


def _orthobasis_vectors(n):
    """The n+3 unnormalized orthogonal classes over (h_{n/2}, planes)."""
    vecs = []
    for i in range(1, n + 4):
        v = [Fraction(1, 2 * (n + 1))] + [Fraction(-1, n + 1)] * (n + 3)
        v[i] += 1
        vecs.append(v)
    return vecs


def epsilon_gram(n):
    """Gram matrix of the orthogonal middle-degree basis; (-1)^{n/2} Id."""
    pairing = _pairing_matrix(n)
    vecs = _orthobasis_vectors(n)
    rows = []
    for v in vecs:
        pv = [sum(c * x for c, x in zip(row, v)) for row in pairing]
        rows.append([sum(w[k] * pv[k] for k in range(len(pv))) for w in vecs])
    return rows


def window_class_h_eps(start, n):
    """Window-plane class over (h_{n/2}, orthogonal basis): rational coeffs.

    h-coefficient 1/4; the orthogonal coefficient at slot j is
    (-1)^{n/2} (1/2 - [j in window positions]).
    """
    if not 0 <= start <= n + 2:
        raise ValueError("window start out of range")
    sgn = (-1) ** (n // 2)
    hit = {(start + k) % (n + 3) for k in range(n // 2)}
    eps = [
        Fraction(sgn) * (Fraction(1, 2) - (1 if j in hit else 0))
        for j in range(n + 3)
    ]
    return Fraction(1, 4), eps


# ---------------------------------------------------------------------------
# Plucker bookkeeping for 2-planes in P^6

TRIPLES = tuple(
    sorted(itertools.combinations(range(7), 3), key=lambda t: (t[2], t[1], t[0]))
)
TRIPLE_POS = {t: k for k, t in enumerate(TRIPLES)}


def _sort_sign(idx):
    """Parity sign of sorting an index tuple; 0 on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] == idx[j + 1]:
                return 0, ()
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


@functools.cache
def plucker_relations():
    """Quadratic exchange relations cutting the plane Grassmannian in P^6.

    Each relation is a tuple of (sign, pos1, pos2) with positions into
    TRIPLES; a coordinate vector v is decomposable only if
    sum sign * v[pos1] * v[pos2] vanishes for every relation.  Built once
    per process: the tuples are shared by every caller.
    """
    rels = []
    for pair in itertools.combinations(range(7), 2):
        for quad in itertools.combinations(range(7), 4):
            terms = []
            for t, l in enumerate(quad):
                s1, t1 = _sort_sign(pair + (l,))
                if not s1:
                    continue
                rest = tuple(x for x in quad if x != l)
                sign = s1 * (-1) ** t
                terms.append((sign, TRIPLE_POS[t1], TRIPLE_POS[rest]))
            if terms:
                rels.append(tuple(terms))
    return tuple(rels)


def evaluate_relation(rel, v):
    acc = 0
    for sign, p1, p2 in rel:
        acc = acc + sign * v[p1] * v[p2]
    return acc


def relation_gradient(rel, v):
    """Gradient of a quadratic relation at v, as a length-35 row."""
    grad = [0] * len(TRIPLES)
    for sign, p1, p2 in rel:
        grad[p1] += sign * v[p2]
        grad[p2] += sign * v[p1]
    return grad


def cutting_pluckers(b):
    """Plucker vector of the plane cut out by a 4x7 matrix of linear forms.

    The coordinate at triple I is the 4x4 minor on the complementary
    columns.
    """
    if len(b) != 4 or any(len(row) != 7 for row in b):
        raise ValueError("cutting matrix must be 4 x 7")
    out = []
    for tri in TRIPLES:
        cols = [c for c in range(7) if c not in tri]
        out.append(mat_det([[row[c] for c in cols] for row in b]))
    return out


def spanning_pluckers(m):
    """Plucker vector of the row space of a 3x7 matrix, cutting convention.

    Converts the spanning-convention minors with the duality sign
    (-1)^{sum(I)+1} so the result matches ``cutting_pluckers`` of any matrix
    annihilating the rows.
    """
    if len(m) != 3 or any(len(row) != 7 for row in m):
        raise ValueError("spanning matrix must be 3 x 7")
    out = []
    for tri in TRIPLES:
        sub = [[row[c] for c in tri] for row in m]
        out.append(Fraction((-1) ** (sum(tri) + 1)) * mat_det(sub))
    return out


# ---------------------------------------------------------------------------
# the linear system forcing a plane to meet the seven flipped planes

def _check_lams(lams):
    lams = [Fraction(v) for v in lams]
    if len(lams) != 7:
        raise ValueError("need seven parameters")
    if len(set(lams)) != 7:
        raise ValueError("parameters must be pairwise distinct")
    return lams


def base_plane_cut_matrix(lams):
    """Power-sum equations (exponents 0..3) cutting the unflipped plane."""
    lams = _check_lams(lams)
    return [[v**p for v in lams] for p in range(4)]


def flipped_cut_matrix(lams, j):
    """Same equations with signs flipped on coordinates j, j+1 (mod 7)."""
    lams = _check_lams(lams)
    flip = {j % 7, (j + 1) % 7}
    return [
        [(-(v**p) if c in flip else v**p) for c, v in enumerate(lams)] for p in range(4)
    ]


def plane_meeting_system(lams):
    """28 x 35 system: a plane meets all seven flipped planes.

    Block j (rows 4j..4j+3) demands rank <= 6 of the flipped cut equations
    stacked over the unknown plane's own cut equations; row k drops power
    3-k, and the Plucker coordinate at triple S carries the Laplace sign
    (-1)^{3+sum(S)} times the complementary 3x3 minor.  That is the
    ``spanning_pluckers`` vector of the three remaining equations.
    """
    lams = _check_lams(lams)
    rows = []
    for j in range(7):
        nj = flipped_cut_matrix(lams, j)
        for k in range(4):
            kept = [nj[p] for p in range(4) if p != 3 - k]
            rows.append(spanning_pluckers(kept))
    return rows


# ---------------------------------------------------------------------------
# frozen verification data for lam = (1, 2, 3, 4, 5, 6, 7)

CASE_LAMS = tuple(Fraction(v) for v in range(1, 8))

# the two projective solutions of the meeting system plus all exchange
# relations; the second one is the unflipped plane itself.  Integral tables
# (these two, PARAM_WS, FREENESS_MATRIX) hold plain ints.
PLANE_SOLUTION_MAIN = (
    1277, 2420, 2053, -808, 2958, 9020, 20295, 12338, 40332, 38335,
    1804, 8403, 21780, 13024, 42416, 40332, 6722, 21780, 20295, -808,
    451, 2420, 6722, 3861, 13024, 12338, 2420, 8403, 9020, 2053,
    451, 1804, 2958, 2420, 1277,
)
PLANE_SOLUTION_BASE = (
    1, 4, 10, 20, 6, 20, 45, 20, 60, 50,
    4, 15, 36, 20, 64, 60, 10, 36, 45, 20,
    1, 4, 10, 6, 20, 20, 4, 15, 20, 10,
    1, 4, 6, 4, 1,
)

CHART_MATRIX = tuple(
    tuple(Fraction(num, 1277) for num in row[:3]) + row[3:]
    for row in (
        (-808, 2053, 2420, 1, 0, 0, 0),
        (-20295, -9020, -2958, 0, 1, 0, 0),
        (21780, 8403, 1804, 0, 0, 1, 0),
        (-6722, -2420, -451, 0, 0, 0, 1),
    )
)

MEETING_POINTS = tuple(
    tuple(Fraction(v) for v in row)
    for row in (
        (1, -4, Fraction(-90, 7), Fraction(220, 7), Fraction(-295, 7), Fraction(192, 7), Fraction(-48, 7)),
        (1, 0, Fraction(7, 2), -6, 24, -22, Fraction(13, 2)),
        (1, Fraction(-36, 25), Fraction(63, 50), Fraction(14, 25), Fraction(216, 25), Fraction(-234, 25), Fraction(149, 50)),
        (1, Fraction(-468, 149), Fraction(432, 149), Fraction(28, 149), Fraction(63, 149), Fraction(-72, 149), Fraction(50, 149)),
        (1, Fraction(-44, 13), Fraction(48, 13), Fraction(-12, 13), Fraction(7, 13), 0, Fraction(2, 13)),
        (1, -4, Fraction(295, 48), Fraction(-55, 12), Fraction(15, 8), Fraction(7, 12), Fraction(-7, 48)),
        (1, Fraction(-108, 7), Fraction(495, 7), Fraction(-760, 7), Fraction(495, 7), Fraction(-108, 7), 1),
    )
)

# conic through the seven points, chart (W0, W1, W2), monomial order
# (W0^2, W0W1, W0W2, W1^2, W1W2, W2^2)
CONIC_COEFFS = (
    Fraction(1),
    Fraction(231982, 286839),
    Fraction(-69410, 286839),
    Fraction(924289, 4589424),
    Fraction(-68035, 1721034),
    Fraction(-512, 40977),
)

# degree-2 parametrization of the conic, coefficients (t^2, t, 1)
PARAM_WS = (
    (5545734, 3809960, -4214784),
    (-18460312, -31751328, 0),
    (19410069, 77945952, 96377904),
    (-3596236, -94256288, -185309376),
    (2704496, 16828728, 156262176),
    (-532380, 33837888, -64266048),
    (1063751, -12587344, 11851728),
)

# the two quadric forms in the rescaled coordinates, up to overall scale
QUADRIC_1_SCALED = (60, -10, 4, -3, 4, -10, 60)
QUADRIC_2_SCALED = (15, -5, 3, -3, 5, -15, 105)

FREENESS_MATRIX = (
    (0, -370618752, -188512576, -7192472, 0, -1482475008, -754050304, -28769888),
    (-370618752, -188512576, -7192472, 0, -1482475008, -754050304, -28769888, 0),
    (0, 312524352, 33657456, 5408992, 0, 1562621760, 168287280, 27044960),
    (312524352, 33657456, 5408992, 0, 1562621760, 168287280, 27044960, 0),
    (0, -128532096, 67675776, -1064760, 0, -771192576, 406054656, -6388560),
    (-128532096, 67675776, -1064760, 0, -771192576, 406054656, -6388560, 0),
    (0, 23703456, -25174688, 2127502, 0, 165924192, -176222816, 14892514),
    (23703456, -25174688, 2127502, 0, 165924192, -176222816, 14892514, 0),
)

# tangent-direction relations at the main solution: coef1 x_{t1} + coef2 x_{t2} = 0
DUAL_IDEAL_GENERATORS = (
    (9, (0, 2, 4), -4, (1, 2, 4)),
    (6765, (0, 1, 4), -986, (1, 2, 4)),
    (20295, (1, 2, 3), 808, (1, 2, 4)),
    (20295, (0, 2, 3), -2053, (1, 2, 4)),
    (369, (0, 1, 3), -44, (1, 2, 4)),
    (20295, (0, 1, 2), -1277, (1, 2, 4)),
)

# the conjectural quadric through the conic's plane: monomial exponents of
# the degree-4 seed polynomial in the seven parameters
_H_TERMS = (
    (1, (2, 1, 0, 1, 0, 0, 0)),
    (-1, (2, 1, 0, 0, 0, 1, 0)),
    (-1, (2, 0, 1, 1, 0, 0, 0)),
    (1, (2, 0, 1, 0, 0, 0, 1)),
    (1, (2, 0, 0, 0, 1, 1, 0)),
    (-1, (2, 0, 0, 0, 1, 0, 1)),
    (1, (1, 1, 1, 0, 0, 1, 0)),
    (-1, (1, 1, 1, 0, 0, 0, 1)),
    (-1, (1, 1, 0, 1, 1, 0, 0)),
    (-1, (1, 1, 0, 1, 0, 0, 1)),
    (1, (1, 1, 0, 0, 1, 0, 1)),
    (1, (1, 1, 0, 0, 0, 1, 1)),
    (1, (1, 0, 1, 1, 1, 0, 0)),
    (1, (1, 0, 1, 1, 0, 1, 0)),
    (-1, (1, 0, 1, 0, 1, 1, 0)),
    (-1, (1, 0, 1, 0, 0, 1, 1)),
    (-1, (1, 0, 0, 1, 1, 1, 0)),
    (1, (1, 0, 0, 1, 1, 0, 1)),
    (-1, (0, 1, 1, 1, 0, 1, 0)),
    (1, (0, 1, 1, 1, 0, 0, 1)),
    (1, (0, 1, 0, 1, 1, 1, 0)),
    (-1, (0, 1, 0, 0, 1, 1, 1)),
    (-1, (0, 0, 1, 1, 1, 0, 1)),
    (1, (0, 0, 1, 0, 1, 1, 1)),
)


def quadric_seed_poly(lams):
    lams = [Fraction(v) for v in lams]
    total = Fraction(0)
    for sign, exps in _H_TERMS:
        term = Fraction(sign)
        for v, e in zip(lams, exps):
            term *= v**e
        total += term
    return total


def conjectural_quadric_coeffs(lams):
    lams = _check_lams(lams)
    out = []
    for i in range(7):
        rot = [lams[(i + k) % 7] for k in range(7)]
        prod = Fraction(1)
        for k in range(1, 7):
            prod *= lams[i] - lams[(i + k) % 7]
        out.append(quadric_seed_poly(rot) * prod)
    return out


# ---------------------------------------------------------------------------
# pipeline helpers

def rescaled_quadric_coeffs(lams):
    """Coefficients of the two quadrics in the rescaled coordinates."""
    lams = _check_lams(lams)
    c2 = []
    for i, v in enumerate(lams):
        prod = Fraction(1)
        for j, w in enumerate(lams):
            if j != i:
                prod *= v - w
        c2.append(prod)
    return c2, [v * c for v, c in zip(lams, c2)]


def chart_matrix_from_pluckers(p):
    """Four cutting rows of the plane with Plucker vector p, pivot on p_{012}."""
    p012 = p[TRIPLE_POS[(0, 1, 2)]]
    if not p012:
        raise ValueError("chart requires nonzero leading coordinate")
    rows = []
    for r in range(4):
        s = Fraction((-1) ** r)
        row = [
            s * Fraction(p[TRIPLE_POS[(1, 2, 3 + r)]], 1) / p012,
            s * Fraction(p[TRIPLE_POS[(0, 2, 3 + r)]], 1) / p012,
            s * Fraction(p[TRIPLE_POS[(0, 1, 3 + r)]], 1) / p012,
        ] + [Fraction(1) if c == r else Fraction(0) for c in range(4)]
        rows.append(row)
    return rows


def _conic_monomials(w0, w1, w2):
    return (w0 * w0, w0 * w1, w0 * w2, w1 * w1, w1 * w2, w2 * w2)


def _conic_value(coeffs, pt):
    return sum(c * m for c, m in zip(coeffs, _conic_monomials(pt[0], pt[1], pt[2])))


def fit_conic(points):
    """The unique conic through five chart points, leading coefficient 1."""
    rows = [list(_conic_monomials(p[0], p[1], p[2])) for p in points]
    basis = mat_nullspace(rows)
    if len(basis) != 1:
        raise ArithmeticError("conic through the points is not unique")
    v = basis[0]
    if not v[0]:
        raise ArithmeticError("conic is degenerate in the chart")
    return tuple(c / v[0] for c in v)


def parametrize_conic(coeffs, seed=(2, 0, 7)):
    """Quadratic parametrization through the pencil of lines at a seed point.

    Uses the line family W2 = seed2, W1 = t (W0 - seed0) and returns seven
    homogeneous quadratics in t once the plane chart is extended.
    """
    x0, y0, z0 = (Fraction(v) for v in seed)
    if y0 != 0:
        raise ValueError("seed must have vanishing middle coordinate")
    if _conic_value(coeffs, (x0, y0, z0)):
        raise ValueError("seed point does not lie on the conic")
    c = list(coeffs)
    tp = UniPoly((Fraction(0), Fraction(1)))
    one = UniPoly.constant(Fraction(1))
    # substitute W0 = w, W1 = t(w - x0), W2 = z0 and divide by (w - x0)
    a = c[0] * one + c[1] * tp + c[3] * tp * tp  # coefficient of w^2
    b = (
        c[1] * (-x0) * tp
        + c[2] * z0 * one
        + c[3] * (-2 * x0) * tp * tp
        + c[4] * z0 * tp
    )
    const = c[3] * x0 * x0 * tp * tp + c[4] * (-x0) * z0 * tp + c[5] * z0 * z0 * one
    # roots multiply to const/a; one root is x0, the other gives the curve
    w0 = const
    denom = a * x0
    w1 = tp * (const - denom * x0)
    w2 = z0 * denom
    return w0, w1, w2


def extend_to_plane(chart, w012):
    """Extend chart components by the plane's four cutting relations."""
    w0, w1, w2 = w012
    out = [w0, w1, w2]
    for r in range(4):
        out.append(
            -(chart[r][0] * w0 + chart[r][1] * w1 + chart[r][2] * w2)
        )
    return out


def freeness_matrix(ws, lams):
    """8x8 coefficient matrix of the normal-bundle surjectivity check.

    Rows pair t- and u-multiples of the four plane forms with the two
    quadric differentials (weights 2 and 2 lam_i); columns list cubic
    coefficients (u^3, t u^2, t^2 u, t^3) for each differential.
    """
    rows = []
    for i in range(3, 7):
        w = ws[i]
        c = (w[2], w[1], w[0])  # (t^2, t, 1) -> ascending (1, t, t^2)
        tmul = (0, c[0], c[1], c[2])  # u^3, t u^2, t^2 u, t^3
        umul = (c[0], c[1], c[2], 0)
        for vec in (tmul, umul):
            row = [2 * v for v in vec] + [2 * lams[i] * v for v in vec]
            rows.append([Fraction(x) for x in row])
    return rows


class Stage:
    def __init__(self, name, ok, expected=None, got=None):
        self.name = name
        self.ok = bool(ok)
        self.expected = expected
        self.got = got

    def as_dict(self):
        d = {"stage": self.name, "ok": self.ok}
        if not self.ok:
            d["expected"] = str(self.expected)
            d["got"] = str(self.got)
        return d


class VerificationReport:
    def __init__(self):
        self.stages = []

    def check(self, name, ok, expected=None, got=None):
        self.stages.append(Stage(name, ok, expected, got))
        return ok

    @property
    def ok(self):
        return all(s.ok for s in self.stages)

    def as_dict(self):
        return {"ok": self.ok, "stages": [s.as_dict() for s in self.stages]}


def conic_pipeline(lams=CASE_LAMS) -> VerificationReport:
    """End-to-end exact verification of the unique-conic computation.

    Only the worked parameter set (1..7) is supported: the solution tables
    are input data, not recomputed, and every later stage is checked against
    them with zero tolerance.
    """
    lams = _check_lams(lams)
    if tuple(lams) != CASE_LAMS:
        raise ValueError("pipeline verification data exists only for (1,...,7)")
    rep = VerificationReport()
    ec = plane_meeting_system(lams)
    kernel = mat_nullspace(ec)
    rep.check("meeting system solution space has dimension 7", len(kernel) == 7, 7, len(kernel))

    rels = plucker_relations()
    for label, table in (("main", PLANE_SOLUTION_MAIN), ("base", PLANE_SOLUTION_BASE)):
        resid = [r for r in (sum(c * x for c, x in zip(row, table)) for row in ec) if r]
        rep.check("table %s solves the meeting system" % label, not resid, [], resid[:3])
        bad = [evaluate_relation(r, table) for r in rels]
        bad = [v for v in bad if v]
        rep.check("table %s satisfies all exchange relations" % label, not bad, [], bad[:3])

    base = cutting_pluckers(base_plane_cut_matrix(lams))
    scale = None
    ok = True
    for u, v in zip(base, PLANE_SOLUTION_BASE):
        if (u == 0) != (v == 0):
            ok = False
            break
        if v:
            r = Fraction(u) / v
            if scale is None:
                scale = r
            elif r != scale:
                ok = False
                break
    rep.check("base table is the unflipped plane", ok and scale, "proportional", "mismatch")

    chart = chart_matrix_from_pluckers(PLANE_SOLUTION_MAIN)
    rep.check(
        "chart matrix of the main plane",
        [list(r) for r in CHART_MATRIX] == chart,
        CHART_MATRIX,
        chart,
    )

    points = []
    for j in range(7):
        kern = mat_nullspace(chart + flipped_cut_matrix(lams, j))
        if len(kern) != 1 or not kern[0][0]:
            rep.check("meeting point %d is unique" % j, False, 1, len(kern))
            return rep
        pt = tuple(v / kern[0][0] for v in kern[0])
        points.append(pt)
        rep.check(
            "meeting point %d matches" % j, pt == MEETING_POINTS[j], MEETING_POINTS[j], pt
        )

    conic = fit_conic(points[:5])
    rep.check("conic through the first five points", conic == CONIC_COEFFS, CONIC_COEFFS, conic)
    for j in (5, 6):
        v = _conic_value(conic, points[j])
        rep.check("conic passes point %d" % j, v == 0, 0, v)

    # frozen parametrization: check it satisfies the conic, the plane and
    # both quadrics identically
    ws = [UniPoly(reversed(c)) for c in PARAM_WS]
    conic_val = sum(
        UniPoly.constant(c) * m
        for c, m in zip(conic, _conic_monomials(ws[0], ws[1], ws[2]))
    )
    rep.check("parametrization lies on the conic", conic_val.is_zero(), 0, conic_val.coeffs)
    for r in range(4):
        resid = ws[3 + r] + sum(
            UniPoly.constant(chart[r][c]) * ws[c] for c in range(3)
        )
        rep.check("parametrization satisfies plane form %d" % r, resid.is_zero(), 0, resid.coeffs)
    q1, q2 = rescaled_quadric_coeffs(lams)
    s1 = Fraction(q1[0], QUADRIC_1_SCALED[0])
    s2 = Fraction(q2[0], QUADRIC_2_SCALED[0])
    rep.check(
        "first quadric matches its scaled form",
        [v / s1 for v in q1] == [Fraction(v) for v in QUADRIC_1_SCALED],
        QUADRIC_1_SCALED,
        q1,
    )
    rep.check(
        "second quadric matches its scaled form",
        [v / s2 for v in q2] == [Fraction(v) for v in QUADRIC_2_SCALED],
        QUADRIC_2_SCALED,
        q2,
    )
    for label, qc in (("first", q1), ("second", q2)):
        total = UniPoly.zero()
        for c, w in zip(qc, ws):
            total = total + UniPoly.constant(c) * w * w
        rep.check("curve lies on the %s quadric" % label, total.is_zero(), 0, total.coeffs)

    for i in range(7):
        for j in range(i + 1, 7):
            g = poly_gcd(ws[i], ws[j])
            if g.degree > 0:
                rep.check("components %d,%d coprime" % (i, j), False, 0, g.degree)
    rep.check("components pairwise coprime", True)

    # re-derive a parametrization from the seed point and verify by
    # substitution (scaling and reparametrization do not matter)
    own = parametrize_conic(conic)
    own_full = extend_to_plane(chart, own)
    own_conic = sum(
        UniPoly.constant(c) * m
        for c, m in zip(conic, _conic_monomials(own[0], own[1], own[2]))
    )
    rep.check("derived parametrization lies on the conic", own_conic.is_zero(), 0, own_conic.coeffs)
    nontrivial = any(w.degree == 2 for w in own_full)
    rep.check("derived parametrization is a genuine conic", nontrivial, True, False)
    for label, qc in (("first", q1), ("second", q2)):
        total = UniPoly.zero()
        for c, w in zip(qc, own_full):
            total = total + UniPoly.constant(c) * w * w
        rep.check(
            "derived parametrization lies on the %s quadric" % label,
            total.is_zero(),
            0,
            total.coeffs,
        )

    fm = freeness_matrix(PARAM_WS, lams)
    rep.check(
        "freeness matrix matches",
        fm == [list(r) for r in FREENESS_MATRIX],
        "frozen 8x8",
        "mismatch",
    )
    det = mat_det(fm)
    rep.check("freeness determinant nonzero", det != 0, "nonzero", det)
    return rep


def dual_uniqueness(lams=CASE_LAMS) -> VerificationReport:
    """First-order rigidity of the main plane solution.

    Stacks the meeting system with the exchange-relation gradients at the
    main solution; the kernel must be the scaling line, so the only
    first-order deformations over Q[eps]/(eps^2) are unit multiples.
    """
    lams = _check_lams(lams)
    if tuple(lams) != CASE_LAMS:
        raise ValueError("rigidity data exists only for (1,...,7)")
    rep = VerificationReport()
    p = list(PLANE_SOLUTION_MAIN)
    ec = plane_meeting_system(lams)
    rels = plucker_relations()
    kern = mat_nullspace(ec + [relation_gradient(rel, p) for rel in rels])
    rep.check("tangent space is one-dimensional", len(kern) == 1, 1, len(kern))
    if len(kern) == 1:
        v = kern[0]
        pivot = next(k for k, x in enumerate(p) if x)
        scale = Fraction(v[pivot]) / p[pivot]
        ok = scale != 0 and all(Fraction(x) == scale * y for x, y in zip(v, p))
        rep.check("tangent direction is the scaling line", ok, "multiple of solution", "other")
    for c1, t1, c2, t2 in DUAL_IDEAL_GENERATORS:
        lhs = c1 * p[TRIPLE_POS[t1]] + c2 * p[TRIPLE_POS[t2]]
        rep.check(
            "tangent relation %s x_%s %+d x_%s" % (c1, "".join(map(str, t1)), c2, "".join(map(str, t2))),
            lhs == 0,
            0,
            lhs,
        )
    # over Q[eps]/(eps^2) a form of degree d takes the value (1+eps)^d v(p)
    # at (1+eps) p, and (1+eps)^d is a unit, so that value vanishes exactly
    # when v(p) = 0: both dual-number checks evaluate at p itself
    ec_vals = [sum(c * x for c, x in zip(row, p)) for row in ec]
    rep.check("scaled solution passes the system over dual numbers", not any(ec_vals), 0, "nonzero")
    bad = [v for v in (evaluate_relation(rel, p) for rel in rels) if v]
    rep.check("scaled solution passes the relations over dual numbers", not bad, 0, bad[:2])
    return rep


def no_conic_through_meeting_points(lams) -> bool:
    """No conic on the unflipped plane passes its seven marked points.

    Builds the 7x6 point-conic incidence matrix in the plane's own chart and
    returns True exactly when it has full rank 6.
    """
    lams = _check_lams(lams)
    rows = []
    for i in range(7):
        a = lams[i]
        b = lams[(i + 1) % 7]
        x, y = a * b, -a - b
        rows.append([x * x, y * y, Fraction(1), x * y, x, y])
    return mat_rank(rows) == 6


def conic_plane_in_conjectural_quadric(lams=CASE_LAMS) -> bool:
    """Whether the plane of the unique conic lies in the conjectural quadric."""
    lams = _check_lams(lams)
    if tuple(lams) != CASE_LAMS:
        raise ValueError("the conic's plane is only pinned down for (1,...,7)")
    mu = conjectural_quadric_coeffs(lams)
    chart = chart_matrix_from_pluckers(PLANE_SOLUTION_MAIN)
    basis = mat_nullspace(chart)
    for u in basis:
        for v in basis:
            if sum(m * a * b for m, a, b in zip(mu, u, v)):
                return False
    return True


def window_sum_inequality(n) -> bool:
    """Exact check of sum_{k=2}^{n-2} n(n-1)/(k(k-1)(n-k)(n-k-1)) < 4."""
    total = Fraction(0)
    for k in range(2, n - 1):
        total += Fraction(n * (n - 1), k * (k - 1) * (n - k) * (n - k - 1))
    return total < 4
