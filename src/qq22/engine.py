"""Genus-0 correlator reconstruction for even intersections of two quadrics.

Every correlator is reduced to the known 3- and 4-point data through four
rewriting moves, applied in a fixed order by ``_compute``:

  1. dimension and monodromy vanishing (degree not a nonnegative integer, or
     primitive exponents of mixed parity), in ``_compute`` itself;
  2. fundamental-class and Euler-field elimination of slot-0 / slot-1
     insertions, the latter in ``_euler_step``;
  3. WDVV coefficient extraction against the pair (slot 1, slot i-1) to
     remove an ambient insertion of index i >= 2, in ``_ambient_step``;
  4. WDVV coefficient extraction among primitive slots to shorten a purely
     primitive correlator, in ``_primitive_step`` with its right side from
     ``_rhs4``.

Moves 3 and 4, and the ``wdvv_extracted_residual`` diagnostic, are signed
combinations (``_signed_extracts``) of one kernel, ``_extract``: the
binomially weighted sum over subindices J of the contraction, through the
inverse pairing, of the correlators at J plus two fixed slots and at the
complement plus two more.  Primitive slots that share an exponent and hold
no fixed slot can be permuted without changing the contraction, so the
kernel sums one J per orbit of those permutations, weighted by the orbit's
total binomial weight.  The inverse pairing, the Euler field and the t -> tau
change are read from ``model.py`` as the sparse tables it builds once per
dimension.

The one value the moves cannot determine, the length-(n+3) correlator with
one insertion on every primitive slot, stays symbolic: results are
polynomials in that unknown x.  All arithmetic is exact, and it runs on
Python ints: a memo coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise, and ``_lookup`` brings each value to that form once,
when it stores it.  The inputs are ints (the base values, the Euler weights
and moves, which are integral for even n, and 4 eta^{ef} in {-16, 1, 4}), and
each division is exact where it divides (``_divide``): the contraction sums
over 4 eta and takes its quarter once per extraction, the Euler step its
1/(n-1), and the primitive step its one scale.  The public queries return
``UniPoly``s with ``Fraction`` coefficients.

Checked, not proved: a nonzero value whose primitive exponents are all even
(ambient-only keys included) has only even powers of x, and one whose are all
odd only odd powers; the tests check every key of the memos after f, the
quadratic identity and ``convergence_witness`` at (n, lmax) = (4, 7), (6, 7),
(8, 6) and (4, 10); the last holds 16 all-odd nonzero keys.  The witness
seeds keys by length, then by ambient part (by weight), then by primitive
part, in the orders of ``_ambient_exponents`` and ``_prim_partitions``.

Checked, not proved: the purely primitive correlators of total exponent
2n + 2, the first nonzero layer above length 4, have a closed form.  Their
exponents are 2 mu for the partitions mu of n + 1, and for mu other than
1^(n+1) the value is -2^(n-5) prod_i a(mu_i), with a(p) = (2p)! [u^p] G(u)
and log G(u) = sum_{p>=1} (-1)^(p-1) (p-1)! u^p / (2p)!; at mu = 1^(n+1) it
is 2^(n-3) x^2 - 2^(n-5), the quadratic identity.  The tests check the whole
layer at n = 4, 6 and 8; a one-off run matched it at n = 10 and 12 too, and
it is spot-checked at n = 14 (mu = (14, 1) and (15)).

Values are memoized per canonical key (ambient exponents verbatim, primitive
exponents sorted descending); primitive-slot permutation invariance makes the
sort harmless.  The memo behaves as a write-once map, so concurrent queries
are safe under CPython and always agree.  A contraction's A side, the
correlators at a + e for every slot e, depends on a only through its
canonical base (ambient part, primitive part sorted), so ``_base_row`` looks
those values up once per base into ``_bases``, a write-once map too, and
``_contract`` reads a's slots off that entry in one loop: the ambient slots,
then each primitive slot with the value stored for its exponent.  The
dimension axiom leaves at most two ambient slots, and either every primitive
slot or none, with an integral curve degree (``_excess``); every other slot's
key is written as zero without a lookup.  The cache adds and drops no memo
key, so the memo is the same with or without it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

from .geometry import window_class_h_eps
from .model import ambient_3pt_tau, check_dimension, eta_inverse, euler_field, t_to_tau
from .polynomials import PZERO, UniPoly, padd, peval, pmul, pscale
from .scalars import as_ints, check_rational

PONE = (1,)
PX = (0, 1)
_GRID = 4  # convergence_witness reports C as a multiple of 1/_GRID


def _excess(n, amb, room):
    """(n - 1) times the curve degree the dimension axiom forces on a flat
    index with ambient part amb and room primitive insertions.

    The degree is an integer exactly when this is 0 mod n - 1.  One more
    insertion on a slot of degree d, which is k for ambient slot k and n/2
    for a primitive slot, adds d - 1, so one residue per index decides every
    slot; a primitive slot has the degree of ambient slot n/2.
    """
    return sum(map(mul, amb, range(-1, n))) + (n // 2 - 1) * room - (n - 3)


def curve_degree(n, index):
    """Curve degree the dimension axiom forces on a flat index, or None.

    None means the degree is not an integer; a negative degree is returned as
    is.  The two coordinate systems give the same degree.
    """
    beta, rem = divmod(_excess(n, index[: n + 1], sum(index[n + 1 :])), n - 1)
    return None if rem else beta


class DivisionGuardError(ArithmeticError):
    """A recursion step hit a zero leading coefficient; this is a bug signal."""


class RecursionCycleError(RuntimeError):
    """A correlator's reduction required itself; this is a bug signal."""


def _bump(t, pos, k=1):
    out = list(t)
    out[pos] += k
    return tuple(out)


def _expand(terms, factors):
    """Multiply terms, a map from flat indices to coefficients, by each factor.

    A factor is a list of (slot, c) pairs, the linear form sum c e_slot.
    """
    for factor in factors:
        nxt = {}
        for idx, cf in terms.items():
            for slot, c in factor:
                key = _bump(idx, slot)
                nxt[key] = nxt.get(key, 0) + cf * c
        terms = nxt
    return terms


def _divide(p, d):
    """p / d for a nonzero int d: an int where d divides it, else a Fraction."""
    if len(p) == 1 and type(p[0]) is int and not p[0] % d:
        return (p[0] // d,)
    return tuple(c // d if type(c) is int and not c % d else Fraction(c, d) for c in p)


def _integral(p):
    """The memo form of p: each integral coefficient as an int."""
    return tuple(
        c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in p
    )


def _public(p):
    """The UniPoly of p with Fraction coefficients, as the public API returns."""
    return UniPoly(map(Fraction, p))


class CorrelatorEngine:
    """Memoized correlator evaluator for a fixed even dimension n >= 4."""

    def __init__(self, n: int):
        self.n = check_dimension(n)
        self.memo = {}
        self._bases = {}
        # 4 eta^{ef} in {-16, 1, 4}: _contract takes the quarter once
        self._eta4_rows = tuple(
            tuple((f, int(4 * c)) for f, c in row) for row in eta_inverse(n)
        )
        const, diag, moves = euler_field(n)  # integral for even n
        self._euler = (
            int(const),
            tuple(map(int, diag)),
            tuple((j, k, int(c)) for j, k, c in moves),
        )
        self._t_moves = t_to_tau(n)
        self._local = threading.local()

    # -- canonical memoized entry ------------------------------------------

    def _T(self, amb, prim):
        return self._lookup((amb, tuple(sorted(prim, reverse=True))))

    def _lookup(self, key):
        """The memoized correlator at a canonical key, computed on a miss."""
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        if key in active:
            raise RecursionCycleError("correlator %r requires itself" % (key,))
        active.add(key)
        try:
            val = self._compute(key[0], key[1])
        finally:
            active.discard(key)
        return self.memo.setdefault(key, _integral(val))

    # -- the reduction ------------------------------------------------------

    def _compute(self, amb, prim):
        n = self.n
        # dimension constraint: the degree axiom forces an integral,
        # nonnegative curve degree
        beta, rem = divmod(_excess(n, amb, sum(prim)), n - 1)
        if rem or beta < 0:
            return PZERO
        # monodromy: all primitive exponents share one parity
        if any(prim):
            par = prim[0] & 1
            if any((v & 1) != par for v in prim):
                return PZERO
        if sum(amb) + sum(prim) == 3:
            return self._three_point(amb, prim)
        if amb[0]:
            return PZERO  # fundamental class axiom
        if amb[1]:
            return self._euler_step(amb, prim)
        if any(amb[k] for k in range(2, n + 1)):
            return self._ambient_step(amb, prim)
        # now purely primitive
        if sum(prim) == 4:
            return PONE  # the two surviving shapes (4) and (2,2) both give 1
        if all(v == 1 for v in prim):
            return PX  # the special correlator
        return self._primitive_step(prim)

    def _three_point(self, amb, prim):
        n = self.n
        nprim = sum(prim)
        if nprim == 0:
            slots = []
            for k, v in enumerate(amb):
                slots.extend([k] * v)
            val = ambient_3pt_tau(n, *slots)
            return (val,) if val else PZERO
        if nprim == 2 and max(prim) == 2:
            # <eps_a, eps_a, gamma_k>: only the pairing against 1 survives
            return PONE if amb[0] == 1 else PZERO
        return PZERO

    def _euler_step(self, amb, prim):
        """Remove one slot-1 insertion via the Euler vector field.

        Differentiates E F = (3-n) F at the index with that insertion removed:
        the field's constant d_1 part gives the target, its diagonal part
        rescales the shorter correlator, and its two off-diagonal terms move
        one insertion.  The tau^{n-1} d_0 move only survives for length-4
        correlators (slot 0 vanishes otherwise by the fundamental class
        axiom) but must be kept there.
        """
        const, diag, moves = self._euler
        iamb = _bump(amb, 1, -1)
        flat = iamb + prim
        c0 = 3 - self.n - sum(w * v for w, v in zip(diag, flat))
        val = pscale(c0, self._T(iamb, prim))
        for s, d, c in moves:
            if flat[s]:
                moved = list(flat)
                moved[s] -= 1
                val = padd(val, pscale(-c * flat[s], self._at(moved, d)))
        return _divide(val, const)

    # -- WDVV machinery ------------------------------------------------------

    def _at(self, idx, slot):
        """The correlator at the flat index list idx plus one slot insertion."""
        na = self.n + 1
        idx[slot] += 1
        prim = idx[na:]
        prim.sort(reverse=True)
        val = self._lookup((tuple(idx[:na]), tuple(prim)))
        idx[slot] -= 1
        return val

    def _base_row(self, amb, prim):
        """The nonzero (e, A_e) over ambient slots e, ascending, and the
        nonzero A by primitive exponent v (the base with the first v of prim
        raised), for the canonical base (amb, prim): its ``_bases`` entry.

        The memo gains the same keys and values as slot-by-slot lookups.  A
        key whose curve degree is not an integer (see ``_excess``) is written
        as zero directly, without a lookup: at most two ambient slots, and
        either every primitive slot or none, survive that test.
        """
        n = self.n
        m = n - 1
        r = _excess(n, amb, sum(prim)) - 1
        memo = self.memo
        pairs = []
        for e in range(n + 1):
            key = (_bump(amb, e), prim)
            if (r + e) % m:
                memo.setdefault(key, PZERO)
            else:
                val = self._lookup(key)
                if val:
                    pairs.append((e, val))
        dead = (r + n // 2) % m
        raised = list(prim)
        by_exp = {}
        for p, v in enumerate(prim):
            if p and v == prim[p - 1]:
                continue  # prim is sorted: the first v is the one to raise
            raised[p] += 1
            key = (amb, tuple(raised))
            raised[p] -= 1
            if dead:
                memo.setdefault(key, PZERO)
            else:
                val = self._lookup(key)
                if val:
                    by_exp[v] = val
        return tuple(pairs), by_exp

    def _contract(self, a, b):
        """Four times the sum A_e eta^{ef} B_f, with A_e, B_f the correlators
        at a + e, b + f.

        A_e is read off the ``_bases`` entry of a's canonical base, filled
        by ``_base_row`` on a miss: one loop runs over the entry's ambient
        pairs followed by a's primitive slots, each with the value stored
        for its exponent.  The sum runs over 4 eta, an int, and
        ``_extract`` divides its total by 4 once; the constant terms, almost
        all of them, skip the polynomial product.
        """
        na = self.n + 1
        prim = a[na:]
        prim.sort(reverse=True)
        base = (tuple(a[:na]), tuple(prim))
        cached = self._bases.get(base)
        if cached is None:
            cached = self._bases.setdefault(base, self._base_row(*base))
        pairs, by_exp = cached
        if by_exp:
            pairs += tuple((s, by_exp[v]) for s, v in enumerate(a[na:], na) if v in by_exp)
        const = 0
        total = PZERO
        for e, av in pairs:
            for f, c in self._eta4_rows[e]:
                bv = self._at(b, f)
                if bv:
                    if len(av) == 1 == len(bv):
                        const += c * av[0] * bv[0]
                    else:
                        total = padd(total, pscale(c, pmul(av, bv)))
        if const:
            total = padd((const,), total)
        return total

    def _extract(self, vec, aslots, bslots, lo=0, hi=0):
        """WDVV coefficient extraction at the flat index vec.

        Sums C(vec, J) * contract(J + aslots, vec - J + bslots) over the
        subindices J <= vec with lo <= |J| <= |vec| + hi; the slots are
        global basis indices, and every WDVV move in the engine is a signed
        combination of such sums.

        The sum runs over orbits of J, not over every J.  Permuting
        primitive slots that carry the same exponent in vec and are not in
        aslots or bslots leaves the contraction unchanged: correlators are
        invariant under primitive permutations (the memo key sorts them),
        and the primitive block of the inverse pairing is the identity.  So
        such a group of g slots with exponent v takes its part of J as a
        multiset of g values in 0..v, weighted by its g! / prod mult!
        arrangements times prod C(v, j).  Every other slot is a group of
        one.  The memo sees the same keys and values as the plain sum.  The
        groups' choices are multiplied out breadth-first, the leaves in
        itertools.product order, and every leaf, the empty product's
        included, counts only when lo <= |J| <= |vec| + hi.
        """
        n = self.n
        fixed = set(aslots) | set(bslots)
        groups = {}
        for s, v in enumerate(vec):
            if v:
                key = v if s > n and s not in fixed else (v, s)
                groups.setdefault(key, []).append(s)
        members = list(groups.values())
        factors = [_orbit_choices(vec[m[0]], len(m)) for m in members]
        a0 = [0] * len(vec)
        for s in aslots:
            a0[s] += 1
        b0 = list(vec)
        for s in bslots:
            b0[s] += 1
        slots = [s for m in members for s in m]
        top = sum(vec) + hi
        leaves = [((), 0, 1)]
        for factor in factors:
            leaves = [
                (js + c, k + size, w * cw)
                for js, k, w in leaves
                for c, cw, size in factor
                if k + size <= top
            ]
        # one-coefficient contractions add up in const, as in _contract
        const = 0
        total = PZERO
        for js, k, w in leaves:
            if not lo <= k <= top:
                continue
            a, b = list(a0), list(b0)
            for s, j in zip(slots, js):
                a[s] += j
                b[s] -= j
            val = self._contract(a, b)
            if len(val) == 1:
                const += w * val[0]
            elif val:
                total = padd(total, pscale(w, val))
        if const:
            total = padd((const,), total)
        return _divide(total, 4)

    def _signed_extracts(self, vec, specs):
        """Sum of coeff * extract(vec, ...) over (coeff, aslots, bslots, lo, hi)."""
        total = PZERO
        for coeff, aslots, bslots, lo, hi in specs:
            part = self._extract(vec, aslots, bslots, lo, hi)
            total = padd(total, pscale(coeff, part))
        return total

    def _ambient_step(self, amb, prim):
        """Remove an ambient insertion i >= 2 by WDVV for (slot 1, slot i-1; a, b).

        Extracts the tau^I coefficient, I the index less one insertion on
        each of the slots i, a and b.  The J = 0 term of the left side is the
        target, because multiplying by the degree-one quantum class raises
        the power index by one, so it is left out; all other terms are
        strictly smaller in the termination order.

        With primitive insertions, i is the largest ambient index and a, b
        the largest primitive slot, twice if its exponent is at least 2, else
        with the next slot.  Without, i is the smallest ambient index and
        a, b the two largest.  That leaf choice is what makes the recursion
        terminate: i largest and a, b smallest make ((0,0,5,1,0), 0) at
        n = 4 require itself.
        """
        n = self.n
        live = [k for k in range(2, n + 1) for _ in range(amb[k])]
        if any(prim):
            i, a = live[-1], n + 1
            b = a if prim[0] >= 2 else a + 1
        else:
            i, (b, a) = live[0], live[-2:]
        vec = list(amb + prim)
        for s in (i, a, b):
            vec[s] -= 1
        specs = [(1, (1, a), (i - 1, b), 0, 0), (-1, (1, i - 1), (a, b), 1, 0)]
        return self._signed_extracts(vec, specs)

    def _primitive_step(self, prim):
        """Shorten a purely primitive correlator by WDVV for (a, b; c, c).

        The target is the correlator at inner + a + b, where inner is prim
        less one insertion on each of the primitive slots a and b.  The
        boundary terms leave the target with the coefficient k - 2 inner[c],
        k = (2|inner| - 4) / (n - 1), which divides the right side out.
        prim is a canonical key, sorted descending, so generically a, b are
        slots 0 and 1, which carry the two largest exponents, and c is the
        first slot from 2 on with the smallest.  With one nonzero slot they
        are a = b = 0, c = 1, and the boundary also holds the partner
        correlator at inner + 2c with the coefficient k - 2 inner[a], moved
        to the right side.  Everything is scaled by 4 (n - 1), which makes
        each coefficient an int, and the scale is divided out once.
        """
        n = self.n
        a, b, c = (0, 1, prim.index(prim[-1], 2)) if prim[1] else (0, 0, 1)
        inner = _bump(_bump(prim, a, -1), b, -1)
        m = 2 * sum(inner) - 4  # (n - 1) k
        coeff = m - 2 * (n - 1) * inner[c]
        if not coeff:
            raise DivisionGuardError("zero coefficient reducing %r" % (prim,))
        val = pscale(n - 1, self._rhs4(inner, a, b, c))
        if a == b:
            partner = self._T((0,) * (n + 1), _bump(inner, c, 2))
            val = padd(val, pscale(4 * (2 * (n - 1) * inner[a] - m), partner))
        return _divide(val, 4 * coeff)

    def _rhs4(self, inner, a, b, c):
        """Four times the right side of the extraction of WDVV for primitive
        slots (a, b; c, c).

        The +-1 terms are that equation at inner without its boundary terms,
        those with a 3- or 4-point factor.  For each side whose two slots
        are equal, the boundary holds the correlator at inner plus the other
        side (u, v) plus one slot-n insertion, with weight eta^{0,n} = 1/4,
        since a degree-0 three-point value <0, p, p> = 1 of a primitive slot
        p pairs only against slot 0.  The WDVV equation for (slot 1, slot n-1; u, v) has exactly
        that correlator as its J = 0 term (<1, n-1, 0> = 4 and
        <1, n-1, n-1> = 64 against eta^{0,1} = -4, eta^{0,n} = eta^{1,n-1} =
        1/4 leave it with weight 1), so the +-1/4 pair is 1/4 times that
        equation, again without boundary, and cancels the slot-n correlator.
        What is left of the boundary holds the multiples of the target that
        the caller divides out.
        """
        n = self.n
        ga, gb, gc = n + 1 + a, n + 1 + b, n + 1 + c
        specs = [(-4, (ga, gb), (gc, gc), 2, -2), (4, (ga, gc), (gb, gc), 2, -2)]
        for (s, t), (u, v) in (((ga, gb), (gc, gc)), ((gc, gc), (ga, gb))):
            if s == t:
                specs.append((1, (1, n - 1), (u, v), 2, 0))
                specs.append((-1, (1, u), (n - 1, v), 1, -1))
        return self._signed_extracts((0,) * (n + 1) + inner, specs)

    # -- public API -----------------------------------------------------------

    def _flat(self, index, min_length=3):
        n = self.n
        index = as_ints(index, "exponents")
        if len(index) != 2 * n + 4:
            raise ValueError(
                "index must have %d entries, got %d" % (2 * n + 4, len(index))
            )
        if any(v < 0 for v in index):
            raise ValueError("exponents must be nonnegative")
        if sum(index) < min_length:
            raise ValueError("correlator length must be at least %d" % min_length)
        return index

    def _split(self, index):
        index = self._flat(index)
        return index[: self.n + 1], index[self.n + 1 :]

    def correlator_tau(self, index) -> UniPoly:
        """Correlator in small-quantum coordinates, as a polynomial in x."""
        amb, prim = self._split(index)
        return _public(self._T(amb, prim))

    def correlator_t(self, index) -> UniPoly:
        """Correlator in cup-product coordinates, via the coordinate change."""
        na = self.n + 1
        index = self._flat(index)
        # empty the slots the change moves, then multiply their forms back in
        base = list(index)
        factors = []
        for j, moves in self._t_moves:
            base[j] = 0
            factors += [moves] * index[j]
        val = PZERO
        for idx, coef in _expand({tuple(base): Fraction(1)}, factors).items():
            val = padd(val, pscale(coef, self._T(idx[:na], idx[na:])))
        return _public(val)

    def beta_of_t_index(self, index):
        """Curve degree forced by the dimension axiom, or None; see curve_degree."""
        return curve_degree(self.n, self._flat(index, min_length=0))

    def correlator_classes(self, classes, beta) -> UniPoly:
        """Multilinear correlator of cohomology classes at fixed degree.

        Classes are coefficient vectors over the cup-coordinate basis
        (1, h_1..h_n, eps_1..eps_{n+3}) with ``int`` or ``Fraction``
        entries; any other entry is a TypeError.
        """
        size = 2 * self.n + 4
        if len(classes) < 3:
            raise ValueError("need at least three insertions")
        for cls in classes:
            if len(cls) != size:
                raise ValueError("class vector must have %d entries" % size)
            check_rational(cls, "class entry")
        supports = [[(slot, c) for slot, c in enumerate(cls) if c] for cls in classes]
        val = PZERO
        for idx, cf in _expand({(0,) * size: 1}, supports).items():
            if self.beta_of_t_index(idx) == beta:
                val = padd(val, pscale(cf, self.correlator_t(idx).coeffs))
        return UniPoly(val)

    def f_value(self) -> UniPoly:
        """Correlator of the n+3 sliding-window plane classes.

        Expressed in the unnormalized middle-degree basis, so the
        coefficients are plain rationals for every even n.

        f is the symmetric multilinear correlator M(L_1..L_N) of the N = n+3
        window classes L_w = c h_{n/2} + i^p sum_j e_{w,j} eps_j, with c and
        e_{w,j} = sigma_{w,j} / 2 (sigma = +-1) from ``window_class_h_eps``
        and the phase i^p of the normalized primitive basis (p = 3 when
        n = 2 mod 4, else 0).  The sign-sum identity behind Glynn's permanent
        formula (D. G. Glynn, "The permanent of a square matrix", Eur. J.
        Combin. 31 (2010)) polarizes it:

            M(L_1..L_N) = (2^N N!)^-1 sum_{delta in {+-1}^N} (prod delta) M(l^N),
            l = sum_w delta_w L_w = c s h_{n/2} + (i^p / 2) sum_j alpha_j eps_j,

        with s = sum delta and the integers alpha_j = sum_w delta_w sigma_{w,j}.
        Expanding the power, M(l^N) = sum_lam C(N, k) (c s)^k (i^p / 2)^|lam|
        T(k, lam) |lam|! m_lam(alpha) / prod lam_i!, where k = N - |lam| and
        T(k, lam) is the correlator with k insertions of h_{n/2} (a slot the
        t -> tau change does not move, and every such term has degree n/2)
        and primitive exponents lam.  Monodromy keeps only lam with all parts
        even, and lam = (1^N), the special correlator.  The integer factor
        |lam|! m_lam(alpha) / prod lam_i! comes from a slot-by-slot DP.  N is
        odd, so -delta has the same summand as delta: the sum runs over the
        2^(N-1) deltas with delta_0 = +1, each counted twice, in Gray-code
        order (step k flips delta_w, w the bit length of k & -k), so each
        step moves alpha by 2 delta_w sigma_w.  The even-lam terms depend on
        delta only through s and the multiset of |alpha_j|, so their signed
        counts are summed by that key and expanded once per key.  The
        phase i^(p |lam|) and the rewrite x = i x' (an i^d on the x^d
        coefficient when n = 2 mod 4) fold into one power of i.
        """
        n = self.n
        size = n + 3
        twist = n % 4 // 2  # 1 when n = 2 mod 4: phase i^3 and x = i x'
        windows = [window_class_h_eps(w, n) for w in range(size)]
        hcoef = windows[0][0]
        # rows[w][j] = sigma_{w,j} = 2 e_{w,j} = +-1
        rows = [[int(2 * e) for e in eps] for _, eps in windows]
        delta = [1] * size
        alpha = [sum(col) for col in zip(*rows)]
        s = size
        sign = 2  # 2 prod(delta): delta and -delta, counted together
        counts = {}  # summed signs by (sorted |alpha_j|, s)
        product = 0  # summed sign * prod(alpha), for lam = (1^N)
        for k in range(1 << (size - 1)):
            if k:
                w = (k & -k).bit_length()
                d = delta[w] = -delta[w]
                alpha = [a + 2 * d * r for a, r in zip(alpha, rows[w])]
                s += 2 * d
                sign = -sign
            key = (tuple(sorted(map(abs, alpha))), s)
            counts[key] = counts.get(key, 0) + sign
            product += sign * prod(alpha)
        moves = _even_partition_moves(size)
        top = factorial(size)
        sums = dict.fromkeys(moves, 0)
        sums[(1,) * size] = top * product
        moments = _even_moments({absolute for absolute, _ in counts}, moves)
        for (absolute, s), count in counts.items():
            for lam, val in moments[absolute].items():
                sums[lam] += count * s ** (size - sum(lam)) * val
        amb = [0] * (n + 1)
        real, imag = {}, {}
        for lam, total in sums.items():
            if not total:
                continue
            used = sum(lam)
            k = size - used
            scale = Fraction(comb(size, k) * total, 2 ** (size + used) * top) * hcoef**k
            amb[n // 2] = k
            value = self._T(tuple(amb), lam + (0,) * (size - len(lam)))
            for d, c in enumerate(value):
                phase = twist * (3 * used + d) % 4
                part = imag if phase & 1 else real
                part[d] = part.get(d, 0) + scale * c * (1 - (phase & 2))
        if any(imag.values()):
            raise ArithmeticError("window correlator has imaginary part")
        return UniPoly(
            [Fraction(real.get(d, 0)) for d in range(max(real, default=-1) + 1)]
        )

    def conjecture_quadratic_lhs(self) -> UniPoly:
        """The squares-on-n+1-slots correlator of length 2n+2."""
        n = self.n
        prim = (2,) * (n + 1) + (0, 0)
        return _public(self._T((0,) * (n + 1), prim))

    def conjecture_quadratic(self) -> UniPoly:
        """Residual of the quadratic identity; zero means the identity holds."""
        n = self.n
        lhs = self.conjecture_quadratic_lhs()
        rhs = UniPoly((Fraction(-1, 4), Fraction(0), Fraction(1))) * (
            Fraction(2) ** (n - 3)
        )
        return lhs - rhs

    # -- diagnostics -----------------------------------------------------------

    def wdvv_extracted_residual(self, a, b, c, d, index) -> UniPoly:
        """Coefficient extraction of WDVV for components (a,b;c,d) at index.

        Returns left minus right; must be identically zero.  Each component
        is a basis slot, an int in range(2n+4); anything else is a ValueError.
        """
        size = 2 * self.n + 4
        a, b, c, d = as_ints((a, b, c, d), "slots")
        for s in (a, b, c, d):
            if not 0 <= s < size:
                raise ValueError("slot %r is not in range(%d)" % (s, size))
        vec = self._flat(index, min_length=0)
        specs = [(1, (a, b), (c, d), 0, 0), (-1, (a, c), (b, d), 0, 0)]
        return _public(self._signed_extracts(vec, specs))

    def cached_items(self):
        return sorted(self.memo.items())


def convergence_witness(n, lmax, engine=None):
    """Smallest multiple C of 1/4 with |v_I| <= (|I|-5)! C^{|I|-5} on the cache.

    Seeds the cache with every canonical index of length 5..lmax built from
    ambient slots 2..n and parity-uniform primitive exponents, specializes
    the unknown to the conjectural value (-1)^{n/2} / 2, then scans lengths
    6..lmax (length-5 entries give a C-independent constraint and are
    excluded).  Returns (C, number of indices inspected).  A given ``engine``
    must be for dimension n.
    """
    (lmax,) = as_ints((lmax,), "correlator lengths")
    if lmax < 5:
        raise ValueError("lmax must be at least 5")
    if engine is not None and engine.n != check_dimension(n):
        raise ValueError("engine is for n=%d, requested n=%d" % (engine.n, n))
    eng = engine if engine is not None else CorrelatorEngine(n)
    # each total's ambient parts are a prefix; the degree sees only |prim|
    ambs = [(amb, sum(amb), _excess(n, amb, 0)) for amb in _ambient_exponents(n, lmax)]
    prims = [list(_prim_partitions(n, room)) for room in range(lmax + 1)]
    for total in range(5, lmax + 1):
        for amb, weight, excess in ambs:
            if weight > total:
                break
            room = total - weight
            if (excess + (n // 2 - 1) * room) % (n - 1):
                continue
            for prim in prims[room]:
                eng._T(amb, prim)
    xval = Fraction((-1) ** (n // 2), 2)
    best = Fraction(1)
    bounds = {}  # best^k k! by k, for the current best
    count = 0
    # a snapshot, unsorted: neither the count nor the max depends on order
    for (amb, prim), poly in list(eng.memo.items()):
        length = sum(amb) + sum(prim)
        if not 6 <= length <= lmax:
            continue
        count += 1
        if not poly:
            continue
        k = length - 5
        if k not in bounds:
            bounds[k] = best**k * factorial(k)
        v = abs(peval(poly, xval))
        # at v <= best^k k! the grid step is at most best: skipping is exact
        if v > bounds[k]:
            best = Fraction(_grid_steps(v, k), _GRID)
            bounds = {}
    return best, count


def _grid_steps(v, k):
    """Smallest integer m >= 1 with (m/_GRID)^k >= v / k!, for a Fraction v >= 0.

    The search compares m^k k! den(v) with _GRID^k num(v): the same
    inequality, in ints.
    """
    scale = factorial(k) * v.denominator
    target = _GRID**k * v.numerator
    lo, hi = 1, 2
    while hi**k * scale < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k * scale >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@functools.lru_cache(maxsize=None)
def _orbit_choices(v, g):
    """The multisets of g values in 0..v, as (values, weight, sum).

    The weight is the number of arrangements of the multiset over g slots
    times prod C(v, j): the total binomial weight of its orbit of J.
    """
    out = []
    for js in itertools.combinations_with_replacement(range(v + 1), g):
        w = factorial(g)
        for j in set(js):
            w //= factorial(js.count(j))
        for j in js:
            w *= comb(v, j)
        out.append((js, w, sum(js)))
    return tuple(out)


def _even_partition_moves(size):
    """Moves of the slot DP over partitions with even parts, weight <= size.

    Maps each descending partition lam to [(lam + (m,) sorted, C(|lam|+m, m))
    for m = 2, 4, ...]: the partitions one more slot with exponent m reaches.
    """
    moves = {}
    todo = [()]
    while todo:
        lam = todo.pop()
        if lam in moves:
            continue
        used = sum(lam)
        moves[lam] = [
            (tuple(sorted(lam + (m,), reverse=True)), comb(used + m, m))
            for m in range(2, size - used + 1, 2)
        ]
        todo.extend(key for key, _ in moves[lam])
    return moves


def _even_moments(alphas, moves):
    """|lam|! m_lam(alpha) / prod lam_i! for every alpha in alphas (sorted
    tuples of one length) and every partition lam in moves, by alpha.

    m_lam is the monomial symmetric polynomial: the sum of prod alpha_j^m_j
    over the exponent vectors m that sort to lam.  Each slot adds an exponent
    m with weight C(|lam|+m, m) alpha_j^m, so every value stays an integer.
    The alphas are taken in lexicographic order with the DP state after each
    slot kept, so a prefix that consecutive alphas share is run once.
    """
    start = dict.fromkeys(moves, 0)
    start[()] = 1
    states = [start]  # states[k]: the DP state after the first k slots of prev
    prev = ()
    out = {}
    for alpha in sorted(alphas):
        shared = next((k for k, (a, b) in enumerate(zip(prev, alpha)) if a != b), len(prev))
        del states[shared + 1 :]
        for a in alpha[shared:]:
            sq = a * a
            nxt = dict(states[-1])
            for lam, val in states[-1].items():
                if val:
                    for key, c in moves[lam]:
                        val *= sq
                        nxt[key] += c * val
            states.append(nxt)
        out[alpha] = states[-1]
        prev = alpha
    return out


def _ambient_exponents(n, total):
    """Exponent vectors over ambient slots 2..n with weight <= total."""
    for k in range(total + 1):
        for combo in itertools.combinations_with_replacement(range(2, n + 1), k):
            vec = [0] * (n + 1)
            for slot in combo:
                vec[slot] += 1
            yield tuple(vec)


def _prim_partitions(n, total):
    """Parity-uniform descending exponent tuples over n+3 primitive slots."""
    slots = n + 3

    def parts(left, maxv, room):
        if left == 0:
            yield ()
            return
        if room == 0:
            return
        for v in range(min(left, maxv), 0, -1):
            for rest in parts(left - v, v, room - 1):
                yield (v,) + rest

    for p in parts(total, total, slots):
        if len({v & 1 for v in p} | ({0} if len(p) < slots else set())) > 1:
            continue
        yield p + (0,) * (slots - len(p))
