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
Plucker vectors use one convention, the cutting one (the coordinate at a
triple is the 4x4 minor of the cutting forms on the other four columns); the
meeting system and the unflipped plane's vector are Vandermonde closed forms.
Both are built on ints at mu = D lam (``scalars.scaled_ints``): row
4j+k of the system is homogeneous of degree 3+k and each coordinate of
degree 6, so they are D^(3+k) and D^6 times their values at lam.  The
pipeline and the rigidity check use the integer rows as they are, since
scaling a row changes neither the kernel nor which residuals vanish.
Matrices are plain row lists, as in ``matrices``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .matrices import mat_det, mat_nullspace, mat_rank
from .model import check_dimension
from .polynomials import UniPoly, poly_gcd
from .scalars import as_fraction, as_ints, scaled_ints

# ---------------------------------------------------------------------------
# plane lattice combinatorics

def flip_mismatch_count(i_set, j_set, n):
    """Number of coordinates where the two flip patterns disagree.

    Flip indices are the integer coordinates 0..n+2; a non-integer or any
    other index is a ValueError.
    """
    check_dimension(n)
    i_set, j_set = frozenset(i_set), frozenset(j_set)
    for v in as_ints(i_set | j_set, "flip indices"):
        if not 0 <= v <= n + 2:
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
    check_dimension(n)
    (i,) = as_ints((i,), "window starts")
    return frozenset((i + k) % (n + 3) for k in range(n // 2))


def only_base_plane_meets_all_windows(n):
    """Check by enumeration that only the unflipped plane meets every window.

    Iterates the canonical flip subsets, those of at most (n+3)/2 slots
    from 1..n+2; returns True when the empty set is the sole survivor.
    """
    check_dimension(n)
    wins = [window(i, n) for i in range(n + 3)]
    survivors = []
    universe = list(range(1, n + 3))
    for r in range((n + 3) // 2 + 1):
        for tail in itertools.combinations(universe, r):
            subset = frozenset(tail)
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
    check_dimension(n)
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
    hit = window(start, n)
    if not 0 <= start <= n + 2:
        raise ValueError("window start out of range")
    sgn = (-1) ** (n // 2)
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


@functools.cache
def plucker_relations():
    """Quadratic exchange relations cutting the plane Grassmannian in P^6.

    Each relation is a tuple of (sign, pos1, pos2) with positions into
    TRIPLES; a coordinate vector v is decomposable only if
    sum sign * v[pos1] * v[pos2] vanishes for every relation.  Built once
    per process: the tuples are shared by every caller.  For a pair i < j,
    the term of the l at position t of a quad, l not in the pair, has sign
    (-1)^(t + (i > l) + (j > l)): sorting (i, j, l) is that many swaps,
    so the sign is (-1)^t, negated when i < l < j.
    """
    # each quad's (l, (-1)^t, position of the quad without l)
    faces = [
        tuple(zip(quad, (1, -1, 1, -1), [TRIPLE_POS[quad[:t] + quad[t + 1 :]] for t in range(4)]))
        for quad in itertools.combinations(range(7), 4)
    ]
    return tuple(
        tuple(
            (-s, TRIPLE_POS[i, l, j], pos) if i < l < j else (s, TRIPLE_POS[(l, i, j) if l < i else (i, j, l)], pos)
            for l, s, pos in quad
            if l != i and l != j
        )
        for i, j in itertools.combinations(range(7), 2)
        for quad in faces
    )


def evaluate_relation(rel, v):
    return sum(sign * v[p1] * v[p2] for sign, p1, p2 in rel)


# ---------------------------------------------------------------------------
# the linear system forcing a plane to meet the seven flipped planes

def _check_lams(lams):
    lams = [as_fraction(v, "parameter") for v in lams]
    if len(lams) != 7:
        raise ValueError("need seven parameters")
    if len(set(lams)) != 7:
        raise ValueError("parameters must be pairwise distinct")
    return lams


def _vandermonde(values):
    """prod_{p<q} (v_q - v_p) over the values in the given order."""
    return math.prod(v - u for u, v in itertools.combinations(values, 2))


def flipped_cut_matrix(lams, j):
    """Power-sum equations (exponents 0..3) with signs flipped on j, j+1 (mod 7)."""
    lams = _check_lams(lams)
    flip = {j % 7, (j + 1) % 7}
    return [[(-(v**p) if c in flip else v**p) for c, v in enumerate(lams)] for p in range(4)]


def _integer_base_plane(lams):
    """Plucker vector of the unflipped plane, cutting convention, at mu = D
    lam, and D: D^6 times the vector at lam.

    The coordinate at triple S is the 4x4 minor of the power-sum equations
    (exponents 0..3) on the four columns not in S: the Vandermonde product
    prod_{p<q} (mu_q - mu_p) over those columns.
    """
    mu, d = scaled_ints(_check_lams(lams))
    return [_vandermonde([v for c, v in enumerate(mu) if c not in tri]) for tri in TRIPLES], d


def _integer_meeting_system(lams):
    """28 x 35 system (a plane meets all seven flipped planes) at mu = D lam, and D.

    Block j (rows 4j..4j+3) demands rank <= 6 of the flipped cut equations
    stacked over the unknown plane's own cut equations.  Row k drops power
    3-k, and the Laplace sign (-1)^{s1+s2+s3+1} at S = (s1, s2, s3) times the
    3x3 minor of the other powers on S gives the entry.  With (a, b, c) the
    parameters on S that minor is a Vandermonde product times e_k:
    (-1)^{|S & {j, j+1 mod 7}|} (b-a)(c-a)(c-b) e_k(a, b, c).  Row 4j+k is
    D^(3+k) times the row at lam.
    """
    mu, d = scaled_ints(_check_lams(lams))
    rows = [[] for _ in range(28)]
    for tri in TRIPLES:
        a, b, c = (mu[i] for i in tri)
        elem = (1, a + b + c, a * b + a * c + b * c, a * b * c)
        vdm = (-1) ** (sum(tri) + 1) * _vandermonde((a, b, c))
        for j in range(7):
            flips = len({j, (j + 1) % 7}.intersection(tri))
            for k in range(4):
                rows[4 * j + k].append((-1) ** flips * vdm * elem[k])
    return rows, d


# ---------------------------------------------------------------------------
# frozen verification data for lam = (1, 2, 3, 4, 5, 6, 7)

CASE_LAMS = tuple(Fraction(v) for v in range(1, 8))


def _check_case_lams(lams):
    """The checked parameters, which must be (1..7), where the tables hold."""
    lams = _check_lams(lams)
    if tuple(lams) != CASE_LAMS:
        raise ValueError("pipeline verification data exists only for (1,...,7)")
    return lams


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

# degree-2 parametrization of the conic, coefficients (1, t, t^2)
PARAM_WS = (
    (-4214784, 3809960, 5545734),
    (0, -31751328, -18460312),
    (96377904, 77945952, 19410069),
    (-185309376, -94256288, -3596236),
    (156262176, 16828728, 2704496),
    (-64266048, 33837888, -532380),
    (11851728, -12587344, 1063751),
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
    """The seed polynomial ``_H_TERMS`` at seven parameters."""
    lams = _check_lams(lams)
    return sum(sign * math.prod(v**e for v, e in zip(lams, exps)) for sign, exps in _H_TERMS)


def conjectural_quadric_coeffs(lams):
    """Seed polynomial at each rotation of lam, times prod_{j!=i}(lam_i - lam_j)."""
    lams = _check_lams(lams)
    c2, _ = rescaled_quadric_coeffs(lams)
    return [quadric_seed_poly(lams[i:] + lams[:i]) * c for i, c in enumerate(c2)]


# ---------------------------------------------------------------------------
# pipeline helpers

def rescaled_quadric_coeffs(lams):
    """Coefficients of the two quadrics in the rescaled coordinates."""
    lams = _check_lams(lams)
    c2 = [math.prod((v - w for w in lams if w != v), start=Fraction(1)) for v in lams]
    return c2, [v * c for v, c in zip(lams, c2)]


def chart_matrix_from_pluckers(p):
    """Four cutting rows of the plane with Plucker vector p, pivot on p_{012}."""
    p012 = p[TRIPLE_POS[(0, 1, 2)]]
    if not p012:
        raise ValueError("chart requires nonzero leading coordinate")
    return [
        [Fraction((-1) ** r * p[TRIPLE_POS[t]], p012) for t in ((1, 2, 3 + r), (0, 2, 3 + r), (0, 1, 3 + r))]
        + [Fraction(1) if c == r else Fraction(0) for c in range(4)]
        for r in range(4)
    ]


def _conic_monomials(pt):
    w0, w1, w2 = pt[:3]
    return [w0 * w0, w0 * w1, w0 * w2, w1 * w1, w1 * w2, w2 * w2]


def _conic_value(coeffs, pt):
    """The conic at the chart part of a point or of a parametrization."""
    return sum(c * m for c, m in zip(coeffs, _conic_monomials(pt)))


def _proportional(u, v):
    """Whether u = c v for a rational c != 0."""
    pivot = next((k for k, y in enumerate(v) if y), None)
    if pivot is None:
        return False
    c = Fraction(u[pivot]) / v[pivot]
    return c != 0 and all(x == c * y for x, y in zip(u, v))


def _residuals(ec, v):
    """Nonzero values of the meeting system and of the exchange relations at v."""
    system = (sum(c * x for c, x in zip(row, v)) for row in ec)
    relations = (evaluate_relation(rel, v) for rel in plucker_relations())
    return [r for r in system if r], [r for r in relations if r]


def fit_conic(points):
    """The unique conic through five chart points, leading coefficient 1."""
    rows = [_conic_monomials(p) for p in points]
    basis = mat_nullspace(rows)
    if len(basis) != 1:
        raise ArithmeticError("conic through the points is not unique")
    v = basis[0]
    if not v[0]:
        raise ArithmeticError("conic is degenerate in the chart")
    return tuple(c / v[0] for c in v)


# a chart point (x0, 0, z0) of the lam = (1..7) conic
CONIC_SEED = (Fraction(2), Fraction(0), Fraction(7))


def parametrize_conic(coeffs):
    """Quadratic parametrization through the pencil of lines at CONIC_SEED.

    Uses the line family W2 = z0, W1 = t (W0 - x0) and returns the three
    chart components, homogeneous quadratics in t; ``extend_to_plane`` gives
    the other four.
    """
    x0, _, z0 = CONIC_SEED
    if _conic_value(coeffs, CONIC_SEED):
        raise ValueError("seed point does not lie on the conic")
    c = coeffs
    # substituting W0 = w, W1 = t(w - x0), W2 = z0 gives a quadratic in w
    # with leading coefficient a and constant term const; its roots
    # multiply to const/a, one root is x0, and the other gives the curve
    a = UniPoly((c[0], c[1], c[3]))
    const = UniPoly((c[5] * z0 * z0, -c[4] * x0 * z0, c[3] * x0 * x0))
    return const, UniPoly.x() * (const - a * x0 * x0), a * x0 * z0


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

    ws are the seven ``UniPoly`` components, read as quadratics in (t, u).
    Rows pair t- and u-multiples of the four plane forms with the two
    quadric differentials (weights 2 and 2 lam_i); columns list cubic
    coefficients (u^3, t u^2, t^2 u, t^3) for each differential.
    """
    rows = []
    for i in range(3, 7):
        c = (ws[i][0], ws[i][1], ws[i][2])  # (1, t, t^2)
        tmul = (0, *c)  # u^3, t u^2, t^2 u, t^3
        umul = (*c, 0)
        for vec in (tmul, umul):
            row = [2 * v for v in vec] + [2 * lams[i] * v for v in vec]
            rows.append([Fraction(x) for x in row])
    return rows


class Stage(namedtuple("Stage", "name ok expected got", defaults=(None, None))):
    """A report's named check; a failed one's ``as_dict`` adds expected and got."""

    __slots__ = ()

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
        self.stages.append(Stage(name, bool(ok), expected, got))
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
    lams = _check_case_lams(lams)
    rep = VerificationReport()
    ec, _ = _integer_meeting_system(lams)  # D = 1 at (1..7)
    dim = len(TRIPLES) - mat_rank(ec)
    rep.check("meeting system solution space has dimension 7", dim == 7, 7, dim)

    for label, table in (("main", PLANE_SOLUTION_MAIN), ("base", PLANE_SOLUTION_BASE)):
        resid, bad = _residuals(ec, table)
        rep.check("table %s solves the meeting system" % label, not resid, [], resid[:3])
        rep.check("table %s satisfies all exchange relations" % label, not bad, [], bad[:3])

    ok = _proportional(_integer_base_plane(lams)[0], PLANE_SOLUTION_BASE)
    rep.check("base table is the unflipped plane", ok, "proportional", "mismatch")

    chart = chart_matrix_from_pluckers(PLANE_SOLUTION_MAIN)
    rep.check("chart matrix of the main plane", [list(r) for r in CHART_MATRIX] == chart, CHART_MATRIX, chart)

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

    q1, q2 = rescaled_quadric_coeffs(lams)

    def check_quadrics(curve, what):
        for label, qc in (("first", q1), ("second", q2)):
            total = sum(c * w * w for c, w in zip(qc, curve))
            rep.check("%s lies on the %s quadric" % (what, label), total.is_zero(), 0, total.coeffs)

    # frozen parametrization: check it satisfies the conic, the plane and
    # both quadrics identically
    ws = [UniPoly(c) for c in PARAM_WS]
    conic_val = _conic_value(conic, ws)
    rep.check("parametrization lies on the conic", conic_val.is_zero(), 0, conic_val.coeffs)
    on_plane = extend_to_plane(chart, ws[:3])
    for r in range(4):
        resid = ws[3 + r] - on_plane[3 + r]
        rep.check("parametrization satisfies plane form %d" % r, resid.is_zero(), 0, resid.coeffs)
    for label, qc, scaled in (("first", q1, QUADRIC_1_SCALED), ("second", q2, QUADRIC_2_SCALED)):
        ok = _proportional(qc, scaled)
        rep.check("%s quadric matches its scaled form" % label, ok, scaled, qc)
    check_quadrics(ws, "curve")

    coprime = True
    for i in range(7):
        for j in range(i + 1, 7):
            g = poly_gcd(ws[i], ws[j])
            if g.degree > 0:
                coprime = False
                rep.check("components %d,%d coprime" % (i, j), False, 0, g.degree)
    rep.check("components pairwise coprime", coprime)

    # re-derive a parametrization from the seed point and verify by
    # substitution (scaling and reparametrization do not matter)
    own = parametrize_conic(conic)
    own_full = extend_to_plane(chart, own)
    own_conic = _conic_value(conic, own)
    rep.check("derived parametrization lies on the conic", own_conic.is_zero(), 0, own_conic.coeffs)
    nontrivial = any(w.degree == 2 for w in own_full)
    rep.check("derived parametrization is a genuine conic", nontrivial, True, False)
    check_quadrics(own_full, "derived parametrization")

    fm = freeness_matrix(ws, lams)
    rep.check("freeness matrix matches", fm == [list(r) for r in FREENESS_MATRIX], "frozen 8x8", "mismatch")
    det = mat_det(fm)
    rep.check("freeness determinant nonzero", det != 0, "nonzero", det)
    return rep


def _tangent_basis(ec, p):
    """Basis of the kernel of ec stacked over the exchange-relation gradients at p.

    With K an integer basis of ker ec (one vector k per row), that kernel is
    K^T ker M, M = (gradients at p) K^T: sum sign (p_i k_j + p_j k_i) per entry.
    """
    kern = [scaled_ints(k)[0] for k in mat_nullspace(ec)]
    m = [[sum(s * (p[i] * k[j] + p[j] * k[i]) for s, i, j in rel) for k in kern] for rel in plucker_relations()]
    return [[sum(c * k[t] for c, k in zip(v, kern)) for t in range(len(p))] for v in mat_nullspace(m)]


def dual_uniqueness(lams=CASE_LAMS) -> VerificationReport:
    """First-order rigidity of the main plane solution.

    The tangent space at the main solution p, the kernel of the meeting
    system stacked over the exchange-relation gradients at p, must be the
    scaling line: then the only first-order deformations over Q[eps]/(eps^2)
    are unit multiples.  It is exactly K^T ker M (``_tangent_basis``), and p
    lies in it by Euler's identity (gradient . p = 2 q(p) = 0 for each
    relation q), so rank M = 6 means it is the scaling line.
    """
    lams = _check_case_lams(lams)
    rep = VerificationReport()
    p = PLANE_SOLUTION_MAIN
    ec, _ = _integer_meeting_system(lams)
    kern = _tangent_basis(ec, p)
    rep.check("tangent space is one-dimensional", len(kern) == 1, 1, len(kern))
    if len(kern) == 1:
        rep.check("tangent direction is the scaling line", _proportional(kern[0], p), "multiple of solution", "other")
    for c1, t1, c2, t2 in DUAL_IDEAL_GENERATORS:
        lhs = c1 * p[TRIPLE_POS[t1]] + c2 * p[TRIPLE_POS[t2]]
        name = "tangent relation %s x_%s %+d x_%s" % (c1, "".join(map(str, t1)), c2, "".join(map(str, t2)))
        rep.check(name, lhs == 0, 0, lhs)
    # over Q[eps]/(eps^2) a form of degree d takes the value (1+eps)^d v(p)
    # at (1+eps) p, and (1+eps)^d is a unit, so that value vanishes exactly
    # when v(p) = 0: both dual-number checks evaluate at p itself
    resid, bad = _residuals(ec, p)
    rep.check("scaled solution passes the system over dual numbers", not resid, 0, "nonzero")
    rep.check("scaled solution passes the relations over dual numbers", not bad, 0, bad[:2])
    return rep


def no_conic_through_meeting_points(lams) -> bool:
    """No conic on the unflipped plane passes its seven marked points.

    Builds the 7x6 point-conic incidence matrix in the plane's own chart and
    returns True exactly when it has full rank 6.
    """
    lams = _check_lams(lams)
    rows = []
    for a, b in zip(lams, lams[1:] + lams[:1]):
        x, y = a * b, -a - b
        rows.append([x * x, y * y, Fraction(1), x * y, x, y])
    return mat_rank(rows) == 6


def conic_plane_in_conjectural_quadric(lams=CASE_LAMS) -> bool:
    """Whether the plane of the unique conic lies in the conjectural quadric."""
    lams = _check_case_lams(lams)
    mu = conjectural_quadric_coeffs(lams)
    chart = chart_matrix_from_pluckers(PLANE_SOLUTION_MAIN)
    basis = mat_nullspace(chart)
    return not any(sum(m * a * b for m, a, b in zip(mu, u, v)) for u in basis for v in basis)


def window_sum_inequality(n) -> bool:
    """Exact check of sum_{k=2}^{n-2} n(n-1)/(k(k-1)(n-k)(n-k-1)) < 4."""
    check_dimension(n)
    total = Fraction(0)
    for k in range(2, n - 1):
        total += Fraction(n * (n - 1), k * (k - 1) * (n - k) * (n - k - 1))
    return total < 4
