import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from qq22 import polynomials
from qq22.engine import CorrelatorEngine
from qq22.matrices import mat_charpoly, mat_det, mat_nullspace, mat_rank
from qq22.model import eta_inverse, euler_field
from qq22.polynomials import UniPoly, squarefree
from qq22.semisimple import (
    branch_discriminant,
    closed_form_charpoly,
    cutoff_matrix,
    point_is_degenerate,
    sample_point,
    semisimple_scan,
    zn_minus_az_plus_1_squarefree,
)


def test_cutoff_entries_n4():
    n = 4
    taus = [Fraction(k + 1, 2) for k in range(n + 3)]
    m = cutoff_matrix(n, taus)
    s = sum(v * v for v in taus)
    # spot entries from the five block families
    assert m[0][1] == n - 1
    assert m[2][3] == n - 1  # superdiagonal of the middle block
    assert m[n - 1][0] == -2 * (n - 1) * s
    assert m[n][1] == (-2 * n - 6) * s
    assert m[n][2] == 16 * (n - 1)
    assert m[n - 1][n] == n - 1
    j, k = n + 2, n + 4  # two distinct primitive slots
    assert m[j][k] == taus[j - n - 1] * taus[k - n - 1]
    assert m[j][j] == s / 2
    assert m[0][k] == Fraction(2 - n, 2) * taus[k - n - 1]
    assert m[n - 1][k] == -4 * (n - 1) * taus[k - n - 1]
    assert m[j][1] == (n - 3) * taus[j - n - 1]
    assert m[j][n] == Fraction(2 - n, 8) * taus[j - n - 1]


def _even_completions(idx, prim, order):
    """Multisets J of primitive slots, |J| <= order <= 2, making idx + J even.

    A correlator of length <= 5 < n+3 has an empty primitive slot, so by
    monodromy it vanishes unless every primitive exponent is even.
    """
    odd = tuple(p for p in prim if idx[p] % 2)
    out = [odd] if len(odd) <= order else []
    if not odd and order >= 2:
        out += [(p, p) for p in prim]
    return out


def _engine_cutoff(eng, taus):
    """Order-2 cutoff of E * at a primitive point, from engine correlators.

    M_jk = sum_f eta^{fk} [c F_{1jf} + sum_i w_i tau_i F_{ijf}], with c the
    d_1 constant and w_i the diagonal weights of model.euler_field, and
    F_{ajf} = sum_J <a j f J> tau^J / J! over primitive J.
    """
    n = eng.n
    const, diag, _ = euler_field(n)
    size = 2 * n + 4
    prim = range(n + 1, size)
    tau = dict(zip(prim, (Fraction(v) for v in taus)))

    def f_jet(a, j, f, order):
        idx = [0] * size
        for s in (a, j, f):
            idx[s] += 1
        total = Fraction(0)
        for jj in _even_completions(idx, prim, order):
            full = list(idx)
            weight = Fraction(1, 2) if len(jj) == 2 and jj[0] == jj[1] else 1
            for s in jj:
                full[s] += 1
                weight *= tau[s]
            if weight:
                value = eng.correlator_tau(full)
                assert value.degree <= 0  # no unknown below length n+3
                total += weight * value[0]
        return total

    m = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        for f in range(size):
            g = const * f_jet(1, j, f, 2)
            for i in prim:
                if tau[i]:
                    g += diag[i] * tau[i] * f_jet(i, j, f, 1)
            if g:
                for k, v in eta_inverse(n)[f]:
                    m[j][k] += g * v
    return m


def test_cutoff_matrix_from_engine():
    rng = random.Random(17)
    for n in (4, 6, 8):
        eng = CorrelatorEngine(n)
        points = [(0,) * (n + 3)] + [sample_point(n, rng) for _ in range(3)]
        for taus in points:
            assert _engine_cutoff(eng, taus) == cutoff_matrix(n, taus)


def test_closed_form_at_zero():
    for n in (4, 6, 8):
        p = closed_form_charpoly(n, [0] * (n + 3))
        expected = [Fraction(0)] * (n + 5)
        expected.append(Fraction(-16 * (n - 1) ** (n - 1)))
        expected.extend([Fraction(0)] * (n - 2))
        expected.append(Fraction(1))
        assert list(p.coeffs) == expected
        assert mat_charpoly(cutoff_matrix(n, [0] * (n + 3))) == p
        assert not squarefree(p)
    # n = 4: z^9 (z^3 - 432)
    p4 = closed_form_charpoly(4, [0] * 7)
    z = UniPoly.x()
    assert p4 == z**9 * (z**3 - 432)


def division_closed_form(n, taus):
    """The closed form with H = sum tau_i^2 G/f_i from n+3 exact divisions.

    The second route for closed_form_charpoly, which builds H from G' with
    no division; same brackets, assembled as A H + B G.
    """
    taus = [Fraction(v) for v in taus]
    s = sum(v * v for v in taus)
    z = UniPoly.x()
    factors = [z + (v * v - s / 2) for v in taus]
    g = math.prod(factors, start=UniPoly.constant(Fraction(1)))
    h = sum((g.divmod(f)[0] * (v * v) for v, f in zip(taus, factors) if v), UniPoly.zero())
    pw = (z + s / 2) ** (n - 1)
    c = Fraction((n - 1) ** (n - 1))
    abracket = (
        UniPoly.constant(c * Fraction(-(n - 1) * (n - 2) ** 2, 4) * s * s)
        + z * (c * 2 * (n - 1) * (n - 4) * s)
        + z * z * (c * Fraction(-4 * (n - 5)))
        - z * z * pw
    )
    bbracket = (
        z * Fraction(4 * (n - 1) ** n) * s
        - z * z * Fraction(16 * (n - 1) ** (n - 1))
        + z * z * pw
    )
    return abracket * h + bbracket * g


def _closed_form_points(n, rng):
    """The zero point, repeated squares, tau_i = i and seeded draws.

    Up to n = 12 every kind and two sample_points; above that, to stay fast,
    the zero point, one of the other three kinds in turn and one draw wider
    than the sampler's.  At n = 30 one more draw has numerators to +-999 over
    denominators 997..999, whose lcm is about 10^9 (wider denominators make
    the division route take seconds).
    """
    m = n + 3
    pairs = [Fraction(sign * (k // 2 + 1), 3) for k, sign in zip(range(m), [1, -1] * m)]
    special = ([1] * m, pairs, range(1, m + 1))
    if n <= 12:
        return [[0] * m, *special, sample_point(n, rng), sample_point(n, rng)]
    wide = [Fraction(rng.randint(-99, 99), rng.randint(1, 6)) for _ in range(m)]
    points = [[0] * m, special[n // 2 % 3], wide]
    if n == 30:
        points.append(
            [Fraction(rng.randint(-999, 999), rng.randint(997, 999)) for _ in range(m)]
        )
    return points


def test_closed_form_matches_division_route():
    # G' replaces the n+3 divisions; the two routes must give the same
    # coefficient tuple with the same element types
    rng = random.Random(18)
    for n in range(4, 31, 2):
        for taus in _closed_form_points(n, rng):
            got = closed_form_charpoly(n, taus).coeffs
            want = division_closed_form(n, taus).coeffs
            assert got == want, (n, taus)
            assert {type(c) for c in got + want} == {Fraction}


def test_agreement_at_random_points():
    for n, count in ((4, 6), (6, 3), (8, 1)):
        rows = semisimple_scan(n, count, seed=42)
        accepted = [r for r in rows if not r.rejected]
        assert len(accepted) == count
        assert all(r.agrees for r in accepted)
        assert all(r.degree == 2 * n + 4 for r in accepted)


def test_semisimplicity_witness_at_integer_point():
    # a fixed point with distinct |tau_i|, tau_i = i, at every even n up to
    # 12: the direct characteristic polynomial equals the closed form and
    # has simple roots, so the cutoff has 2n+4 distinct eigenvalues there
    for n in range(4, 13, 2):
        taus = range(1, n + 4)
        direct = mat_charpoly(cutoff_matrix(n, taus))
        assert direct == closed_form_charpoly(n, taus)
        assert direct.degree == 2 * n + 4 and squarefree(direct)


def test_branch_structure_at_zero_cluster():
    # the n+5 branches leaving the zero eigenvalue along the symmetric
    # sampling ray have first-order Puiseux coefficients solving
    # a2 t^2 + a1 t + a0 = 0; the half-order coefficient dies because a2 is
    # nonzero, and the discriminant is exactly the closed-form product
    for n in (4, 6, 8):
        a2 = Fraction(-4 * (n * n - 2 * n - 11))
        a1 = Fraction(2 * (n - 1) * (n + 3) * (n * n - n - 10))
        a0 = Fraction(-(n + 3) ** 3 * (n - 1) * (n - 2) ** 2, 4)
        assert a2 != 0
        assert a1 * a1 - 4 * a2 * a0 == branch_discriminant(n)


def test_seed_reproducibility():
    a = semisimple_scan(4, 5, seed=9)
    b = semisimple_scan(4, 5, seed=9)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_degenerate_point_rejected():
    assert point_is_degenerate([Fraction(1), Fraction(-1)] + [Fraction(k + 2) for k in range(5)])
    assert not point_is_degenerate([Fraction(k + 1) for k in range(7)])
    # n + 3 = 57 coordinates cannot have distinct squares among the 56
    # values |v| the sampler draws, so the scan refuses instead of spinning
    with pytest.raises(ValueError):
        semisimple_scan(54, 1, 0)
    # an empty scan would report "all agree" over no rows
    for samples in (0, -1):
        with pytest.raises(ValueError):
            semisimple_scan(4, samples, 0)


def test_branch_discriminant():
    assert branch_discriminant(4) == 64 * 3 * 6 * 49 == 56448
    assert branch_discriminant(6) == 64 * 5 * 8 * 81 == 207360
    for n in range(4, 20, 2):
        assert branch_discriminant(n) > 0


def test_simple_roots_family():
    assert zn_minus_az_plus_1_squarefree(3, 0)
    assert zn_minus_az_plus_1_squarefree(7, Fraction(5, 3))
    # the branch polynomial from the discriminant analysis at n = 6
    a = Fraction(6 * 6 - 12 - 15, 6 * 6 - 12 - 11)
    assert zn_minus_az_plus_1_squarefree(9, a)
    with pytest.raises(ValueError):
        zn_minus_az_plus_1_squarefree(2, 1)


def test_squarefree_scan_runs_no_euclid(monkeypatch):
    # the mod-p certificate proves every squarefree row; Euclid over Q
    # (poly_gcd) is left for rows it cannot prove
    calls = 0
    exact_gcd = polynomials.poly_gcd

    def counted(p, q):
        nonlocal calls
        calls += 1
        return exact_gcd(p, q)

    monkeypatch.setattr(polynomials, "poly_gcd", counted)
    rows = [r for r in semisimple_scan(6, 3, 4) if not r.rejected]
    assert len(rows) == 3
    assert all(r.agrees and r.squarefree for r in rows)
    assert calls == 0


@pytest.mark.parametrize("value", [0.5, "1/2", 1j], ids=["float", "str", "complex"])
@pytest.mark.parametrize(
    "what, call",
    [
        (
            "primitive coordinate",
            lambda v: cutoff_matrix(4, [Fraction(1, 2)] * 6 + [v]),
        ),
        (
            "primitive coordinate",
            lambda v: closed_form_charpoly(4, [Fraction(1, 2)] * 6 + [v]),
        ),
        ("a", lambda v: zn_minus_az_plus_1_squarefree(5, v)),
        ("matrix entry", lambda v: mat_rank([[1, v]])),
        ("matrix entry", lambda v: mat_det([[1, 0], [0, v]])),
        ("matrix entry", lambda v: mat_nullspace([[1, v]])),
        ("matrix entry", lambda v: mat_charpoly([[1, 0], [0, v]])),
        ("coefficient", lambda v: squarefree(UniPoly([1, v]))),
        (
            "class entry",
            lambda v: CorrelatorEngine(4).correlator_classes([[v] + [0] * 11] * 3, 0),
        ),
    ],
    ids=[
        "cutoff_matrix",
        "closed_form_charpoly",
        "zn_minus_az_plus_1_squarefree",
        "mat_rank",
        "mat_det",
        "mat_nullspace",
        "mat_charpoly",
        "squarefree",
        "correlator_classes",
    ],
)
def test_non_rational_input_is_rejected(what, call, value):
    # every entry point goes through the one gate in qq22.scalars; Fraction()
    # would read 0.5 as a binary fraction and parse '1/2'
    with pytest.raises(TypeError, match="^%s must be int or Fraction, got " % what):
        call(value)


@pytest.mark.parametrize(
    "n, digest",
    [
        (4, "dcc6ed8f43a53475a910b376a8e9a9174ea2a8c0490a90c50f8453e59a42fb40"),
        (8, "1fa69febbd609779b973b792081478235ecfa9c0066d0b2bfc1599e93648f593"),
        (10, "edf87d7863fd99b52d6516c8e36b523c159432a54295065feedd9c71d5b1a1ef"),
    ],
)
def test_scan_rows_are_pinned(n, digest):
    rows = [r.as_dict() for seed in (0, 1, 2) for r in semisimple_scan(n, 2, seed)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
