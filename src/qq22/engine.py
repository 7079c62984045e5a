"""Genus-0 correlator reconstruction for even intersections of two quadrics.

Every correlator is reduced to the known 3- and 4-point data through four
rewriting moves, applied in a fixed order:

  1. dimension and monodromy vanishing (degree not a nonnegative integer, or
     primitive exponents of mixed parity);
  2. fundamental-class and Euler-field elimination of slot-0 / slot-1
     insertions;
  3. WDVV coefficient extraction against the pair (slot 1, slot i-1) to
     remove an ambient insertion of index i >= 2;
  4. WDVV coefficient extraction among primitive slots to shorten a purely
     primitive correlator.

Moves 3 and 4, and the ``wdvv_extracted_residual`` diagnostic, are signed
combinations of one kernel, ``_extract``: the binomially weighted sum over
subindices J of the contraction, through the inverse pairing, of the
correlators at J plus two fixed slots and at the complement plus two more.
Primitive slots that share an exponent and hold no fixed slot can be
permuted without changing the contraction, so the kernel sums one J per
orbit of those permutations, weighted by the orbit's total binomial weight.
The inverse pairing, the Euler field and the t -> tau change are read from
``model.py`` as the sparse tables it builds once per dimension.

The one value the moves cannot determine, the length-(n+3) correlator with
one insertion on every primitive slot, stays symbolic: results are
polynomials in that unknown x.  All arithmetic is exact.

Values are memoized per canonical key (ambient exponents verbatim, primitive
exponents sorted descending); primitive-slot permutation invariance makes the
sort harmless.  The memo behaves as a write-once map, so concurrent queries
are safe under CPython and always agree.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from fractions import Fraction
from math import comb, factorial

from .model import ModelParams, ambient_3pt_tau, eta_inverse, euler_field, t_to_tau
from .polynomials import PZERO, UniPoly, padd, peval, pmul, pscale

PONE = (Fraction(1),)
PX = (Fraction(0), Fraction(1))
_GRID = Fraction(1, 4)  # convergence_witness reports C on this grid


def _int_exponents(index):
    """The entries of an index as a tuple of ints; a non-integer is a ValueError."""
    index = tuple(index)
    try:
        return tuple(map(operator.index, index))
    except TypeError:
        raise ValueError("exponents must be integers") from None


def curve_degree(n, index):
    """Curve degree the dimension axiom forces on a flat index, or None.

    None means the degree is not an integer; a negative degree is returned as
    is.  The two coordinate systems give the same degree.
    """
    weighted = sum(k * v for k, v in enumerate(index[: n + 1])) + (n // 2) * sum(
        index[n + 1 :]
    )
    beta, rem = divmod(weighted - (n - 3 + sum(index)), n - 1)
    return None if rem else beta


class DivisionGuardError(ArithmeticError):
    """A recursion step hit a zero leading coefficient; this is a bug signal."""


class RecursionCycleError(RuntimeError):
    """A correlator's reduction required itself; this is a bug signal."""


def _bump(t, pos, k=1):
    out = list(t)
    out[pos] += k
    return tuple(out)


def index_triple(exponents):
    """Slots used by the generic primitive reduction step.

    Returns (a, b, c): a, b carry the two largest components, c the smallest
    component among the remaining slots; ties break to the lowest slot.
    Requires at least two nonzero components and not the all-ones vector.
    """
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


class CorrelatorEngine:
    """Memoized correlator evaluator for a fixed even dimension n >= 4."""

    def __init__(self, n: int):
        self.params = ModelParams(n)
        self.n = n
        self.memo = {}
        self._eta_rows = eta_inverse(n)
        self._euler = euler_field(n)
        self._t_moves = t_to_tau(n)
        self._local = threading.local()

    # -- canonical memoized entry ------------------------------------------

    def _T(self, amb, prim):
        key = (amb, tuple(sorted(prim, reverse=True)))
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
        return self.memo.setdefault(key, val)

    # -- the reduction ------------------------------------------------------

    def _compute(self, amb, prim):
        n = self.n
        # dimension constraint: the degree axiom forces an integral,
        # nonnegative curve degree
        beta = curve_degree(n, amb + prim)
        if beta is None or beta < 0:
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
        nprim = sum(prim)
        if any(amb[k] for k in range(2, n + 1)):
            if nprim:
                return self._ambient_elim_mixed(amb, prim)
            return self._ambient_elim_leaf(amb, prim)
        # now purely primitive
        if nprim == 4:
            return PONE  # the two surviving shapes (4) and (2,2) both give 1
        if all(v == 1 for v in prim):
            return PX  # the special correlator
        if sum(1 for v in prim if v) == 1:
            return self._single_slot_step(prim)
        return self._generic_primitive_step(prim)

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
        return pscale(1 / const, val)

    # -- WDVV machinery ------------------------------------------------------

    def _at(self, idx, slot):
        """The correlator at the flat index list idx plus one slot insertion."""
        na = self.n + 1
        idx[slot] += 1
        val = self._T(tuple(idx[:na]), tuple(idx[na:]))
        idx[slot] -= 1
        return val

    def _contract(self, a, b):
        """Sum A_e eta^{ef} B_f, with A_e, B_f the correlators at a + e, b + f."""
        avals = [self._at(a, e) for e in range(len(a))]
        total = PZERO
        for av, row in zip(avals, self._eta_rows):
            if av:
                for f, c in row:
                    bv = self._at(b, f)
                    if bv:
                        total = padd(total, pscale(c, pmul(av, bv)))
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
        one.  The memo sees the same keys and values as the plain sum.
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
        abase = [0] * len(vec)
        for s in aslots:
            abase[s] += 1
        bbase = list(vec)
        for s in bslots:
            bbase[s] += 1
        top = sum(vec) + hi
        total = PZERO
        for combo in itertools.product(*factors):
            if not lo <= sum(choice[2] for choice in combo) <= top:
                continue
            w = 1
            a = abase[:]
            b = bbase[:]
            for slots, (js, cw, _) in zip(members, combo):
                w *= cw
                for s, j in zip(slots, js):
                    a[s] += j
                    b[s] -= j
            total = padd(total, pscale(w, self._contract(a, b)))
        return total

    def _ambient_elim_mixed(self, amb, prim):
        n = self.n
        i = max(k for k in range(2, n + 1) if amb[k])
        if prim[0] >= 2:
            a = b = n + 1  # global slot of the largest primitive exponent
            prim2 = _bump(prim, 0, -2)
        else:
            a, b = n + 1, n + 2
            prim2 = _bump(_bump(prim, 0, -1), 1, -1)
        return self._wdvv_ambient_step(_bump(amb, i, -1), prim2, i, a, b)

    def _ambient_elim_leaf(self, amb, prim):
        n = self.n
        i = min(k for k in range(2, n + 1) if amb[k])
        rest = _bump(amb, i, -1)
        a = max(k for k in range(2, n + 1) if rest[k])
        rest = _bump(rest, a, -1)
        b = max(k for k in range(2, n + 1) if rest[k])
        rest = _bump(rest, b, -1)
        return self._wdvv_ambient_step(rest, prim, i, a, b)

    def _wdvv_ambient_step(self, amb, prim, i, a, b):
        """Extract the tau^I coefficient of WDVV for (slot1, slot i-1; a, b).

        The leading term of the left side is the target correlator because
        multiplying by the degree-one quantum class raises the power index by
        one; all other terms are strictly smaller in the termination order.
        The J = 0 term of the left side is that target, so it is left out.
        """
        vec = amb + prim
        right = self._extract(vec, (1, a), (i - 1, b))
        left = self._extract(vec, (1, i - 1), (a, b), lo=1)
        return padd(right, pscale(-1, left))

    def _single_slot_step(self, prim):
        """Purely primitive with one active slot: split two insertions off."""
        n = self.n
        m = prim[0]
        inner = _bump(prim, 0, -2)
        size = sum(inner)
        coeff_a = Fraction(2 * size - 4, n - 1)  # partner slot exponent is 0
        if not coeff_a:
            raise DivisionGuardError(
                "single-slot reduction hit zero coefficient at exponent %d" % m
            )
        coeff_b = Fraction(2 * size - 4, n - 1) - 2 * inner[0]
        rhs = self._rhs_two_equal(inner, 0, 1)
        partner = self._T((0,) * (n + 1), _bump(inner, 1, 2))
        val = padd(rhs, pscale(-coeff_b, partner))
        return pscale(1 / coeff_a, val)

    def _generic_primitive_step(self, prim):
        n = self.n
        a, b, c = index_triple(prim)
        inner = _bump(_bump(prim, a, -1), b, -1)
        size = sum(inner)
        coeff = Fraction(2 * size - 4, n - 1) - 2 * inner[c]
        if not coeff:
            raise DivisionGuardError(
                "generic primitive reduction hit zero coefficient for %r" % (prim,)
            )
        rhs = self._rhs_distinct(inner, a, b, c)
        return pscale(1 / coeff, rhs)

    def _prim_sum(self, inner, specs):
        """Sum of coeff * extract(...) over (coeff, aslots, bslots, lo, hi) specs."""
        vec = (0,) * (self.n + 1) + inner
        total = PZERO
        for coeff, aslots, bslots, lo, hi in specs:
            part = self._extract(vec, aslots, bslots, lo, hi)
            total = padd(total, pscale(coeff, part))
        return total

    def _rhs_two_equal(self, inner, a, b):
        """Right side of the double-insertion extraction (slots a, a; b, b).

        The +-1 terms are WDVV for (a, a; b, b) at inner without its boundary
        terms, those with a 3- or 4-point factor.  The boundary holds the
        correlators at inner + 2a and inner + 2b plus one slot-n insertion,
        each with weight eta^{0,n} = 1/4, since a degree-0 three-point value
        <0, c, c> = 1 pairs only against slot 0.  The WDVV equation for
        (slot 1, slot n-1; c, c) has exactly that correlator as its J = 0
        term (<1, n-1, 0> = 4 and <1, n-1, n-1> = 64 against eta^{0,1} = -4,
        eta^{0,n} = eta^{1,n-1} = 1/4 leave it with weight 1), so the +-1/4
        terms are 1/4 times that equation for c = a and c = b, again without
        boundary, and cancel the slot-n correlators.  What is left of the
        boundary holds the multiples of the target that the caller divides
        out.
        """
        n = self.n
        ga, gb = n + 1 + a, n + 1 + b
        q = Fraction(1, 4)
        return self._prim_sum(
            inner,
            [
                (q, (1, n - 1), (ga, ga), 2, 0),
                (q, (1, n - 1), (gb, gb), 2, 0),
                (-q, (1, ga), (n - 1, ga), 1, -1),
                (-q, (1, gb), (n - 1, gb), 1, -1),
                (-1, (ga, ga), (gb, gb), 2, -2),
                (1, (ga, gb), (ga, gb), 2, -2),
            ],
        )

    def _rhs_distinct(self, inner, a, b, c):
        """Right side of the distinct-slot extraction (slots a, b; c, c).

        As in ``_rhs_two_equal``: the +-1 terms are WDVV for (a, b; c, c)
        without boundary, and the +-1/4 terms, 1/4 = eta^{0,n} times WDVV for
        (slot 1, slot n-1; a, b) without boundary, cancel the boundary's
        correlator at inner + a + b plus a slot-n insertion.
        """
        n = self.n
        ga, gb, gc = n + 1 + a, n + 1 + b, n + 1 + c
        q = Fraction(1, 4)
        return self._prim_sum(
            inner,
            [
                (q, (1, n - 1), (ga, gb), 2, 0),
                (-q, (1, ga), (n - 1, gb), 1, -1),
                (-1, (ga, gb), (gc, gc), 2, -2),
                (1, (ga, gc), (gb, gc), 2, -2),
            ],
        )

    # -- public API -----------------------------------------------------------

    def _flat(self, index, min_length=3):
        n = self.n
        index = _int_exponents(index)
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
        return UniPoly(self._T(amb, prim))

    def correlator_t(self, index) -> UniPoly:
        """Correlator in cup-product coordinates, via the coordinate change."""
        na = self.n + 1
        index = self._flat(index)
        terms = {index: Fraction(1)}
        for j, moves in self._t_moves:
            for _ in range(index[j]):
                nxt = {}
                for idx, coef in terms.items():
                    for k, c in moves:
                        key = _bump(_bump(idx, j, -1), k)
                        nxt[key] = nxt.get(key, 0) + coef * c
                terms = nxt
        val = PZERO
        for idx, coef in terms.items():
            val = padd(val, pscale(coef, self._T(idx[:na], idx[na:])))
        return UniPoly(val)

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
        acc = {(0,) * size: 1}
        for cls in classes:
            if len(cls) != size:
                raise ValueError("class vector must have %d entries" % size)
            for c in cls:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(
                        "class entry must be int or Fraction, got %r" % (c,)
                    )
            support = [(slot, c) for slot, c in enumerate(cls) if c]
            nxt = {}
            for idx, cf in acc.items():
                for slot, c in support:
                    key = _bump(idx, slot)
                    nxt[key] = nxt.get(key, 0) + cf * c
            acc = nxt
        val = PZERO
        for idx, cf in acc.items():
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
        |lam|! m_lam(alpha) / prod lam_i! comes from a slot-by-slot DP.  The
        windows are circulant, so rotating delta permutes alpha cyclically,
        and N is odd, so flipping every sign leaves the summand unchanged:
        one delta per orbit, weighted by the orbit size, covers the sum.  The
        phase i^(p |lam|) and the rewrite x = i x' (an i^d on the x^d
        coefficient when n = 2 mod 4) fold into one power of i.
        """
        from .geometry import window_class_h_eps

        n = self.n
        size = n + 3
        twist = n % 4 // 2  # 1 when n = 2 mod 4: phase i^3 and x = i x'
        windows = [window_class_h_eps(w, n) for w in range(size)]
        hcoef = windows[0][0]
        # columns[j][w] = sigma_{w,j} = 2 e_{w,j} = +-1
        columns = list(zip(*([int(2 * e) for e in eps] for _, eps in windows)))
        moves = _even_partition_moves(size)
        ones = (1,) * size
        sums = dict.fromkeys(list(moves) + [ones], 0)
        top = factorial(size)
        for delta, orbit in _sign_orbits(size):
            alpha = [sum(d * c for d, c in zip(delta, col)) for col in columns]
            sign = orbit
            for d in delta:
                sign *= d
            s = sum(delta)
            for lam, val in _even_moments(alpha, moves).items():
                sums[lam] += sign * s ** (size - sum(lam)) * val
            val = top
            for a in alpha:
                val *= a
            sums[ones] += sign * val
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
        return UniPoly(self._T((0,) * (n + 1), prim))

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
        for s in (a, b, c, d):
            if not isinstance(s, int) or not 0 <= s < size:
                raise ValueError("slot %r is not in range(%d)" % (s, size))
        vec = self._flat(index, min_length=0)
        left = self._extract(vec, (a, b), (c, d))
        right = self._extract(vec, (a, c), (b, d))
        return UniPoly(padd(left, pscale(-1, right)))

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
    if lmax < 5:
        raise ValueError("lmax must be at least 5")
    if engine is not None and engine.n != n:
        raise ValueError("engine is for n=%d, requested n=%d" % (engine.n, n))
    eng = engine if engine is not None else CorrelatorEngine(n)
    for total in range(5, lmax + 1):
        for amb in _ambient_exponents(n, total):
            room = total - sum(amb)
            for prim in _prim_partitions(n, room):
                full = amb + prim
                if eng.beta_of_t_index(full) is None:
                    continue
                eng._T(amb, prim)
    xval = Fraction((-1) ** (n // 2), 2)
    best = Fraction(1)
    count = 0
    for (amb, prim), poly in eng.cached_items():
        length = sum(amb) + sum(prim)
        if not 6 <= length <= lmax:
            continue
        count += 1
        v = abs(peval(poly, xval))
        if not v:
            continue
        k = length - 5
        # smallest multiple m*_GRID with (m*_GRID)^k >= v / k!
        target = v / factorial(k)
        lo, hi = 1, 2
        while (hi * _GRID) ** k < target:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if (mid * _GRID) ** k >= target:
                hi = mid
            else:
                lo = mid + 1
        best = max(best, lo * _GRID)
    return best, count


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


def _sign_orbits(size):
    """One sign vector per orbit of cyclic rotation and global sign flip.

    Yields (delta, orbit size) with delta a list of +-1 of the given length.
    """
    full = (1 << size) - 1
    for mask in range(1 << size):
        images = set()
        m = mask
        for _ in range(size):
            m = ((m << 1) | (m >> (size - 1))) & full
            images.update((m, m ^ full))
        if mask == min(images):
            yield [1 - 2 * (mask >> w & 1) for w in range(size)], len(images)


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


def _even_moments(alpha, moves):
    """|lam|! m_lam(alpha) / prod lam_i! for every partition lam in moves.

    m_lam is the monomial symmetric polynomial: the sum of prod alpha_j^m_j
    over the exponent vectors m that sort to lam.  Each slot adds an exponent
    m with weight C(|lam|+m, m) alpha_j^m, so every value stays an integer.
    """
    states = dict.fromkeys(moves, 0)
    states[()] = 1
    for a in alpha:
        sq = a * a
        nxt = dict(states)
        for lam, val in states.items():
            if val:
                for key, c in moves[lam]:
                    val *= sq
                    nxt[key] += c * val
        states = nxt
    return states


def _ambient_exponents(n, total):
    """Exponent vectors over ambient slots 2..n with weight <= total."""
    slots = list(range(2, n + 1))

    def rec(pos, left):
        if pos == len(slots):
            yield ()
            return
        for v in range(left + 1):
            for rest in rec(pos + 1, left - v):
                yield (v,) + rest

    for combo in rec(0, total):
        vec = [0, 0] + list(combo)
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
