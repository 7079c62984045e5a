"""Dense univariate polynomials over Q.

Coefficients are ``int`` or ``Fraction`` (``squarefree`` checks them through
the shared gate in ``scalars``); division reads an ``int`` leading
coefficient as a ``Fraction``, so no float appears.  Trailing zeros are
stripped, so ``degree`` is the index of the last nonzero coefficient and the
zero polynomial has degree -1.

The arithmetic itself is done by ``padd``, ``pscale``, ``pmul`` and ``peval``
on plain coefficient tuples; ``UniPoly`` wraps them.  The correlator engine
uses them directly on its memo values, which are mostly ``int``s: ``padd``
and ``pscale`` keep ints as ints, while ``pmul`` and ``peval`` start from a
``Fraction`` zero, so their results are ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import RATIONAL, check_rational, scaled_ints

PZERO = ()


def padd(p, q):
    if not p:
        return q
    if not q:
        return p
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def pscale(c, p):
    if not c or not p:
        return PZERO
    if len(p) == 1:
        return (c * p[0],)
    return tuple(c * a for a in p)


def pmul(p, q):
    if not p or not q:
        return PZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def peval(p, v):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * v + c
    return acc


def _divisor(c):
    """A leading coefficient to divide by: int / int would be a float."""
    return Fraction(c) if isinstance(c, int) else c


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, RATIONAL):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its coefficient, and the zero polynomial 0
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0]) if cs else 0

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return UniPoly(padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return UniPoly.constant(other) - self

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        return UniPoly(pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c):
        return UniPoly(pscale(c, self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    def __call__(self, v):
        return peval(self.coeffs, v)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = _divisor(self.coeffs[-1])
        return UniPoly(tuple(c / lead for c in self.coeffs))

    def divmod(self, other):
        """Euclidean division over Q; an ``int`` is read as ``Fraction``."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = _divisor(other.coeffs[-1])
        if len(rem) - 1 < d:
            return UniPoly.zero(), UniPoly(rem)
        quot = [0] * (len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c / lead
            quot[k - d] = q
            for j in range(d + 1):
                rem[k - d + j] = rem[k - d + j] - q * other.coeffs[j]
        return UniPoly(quot), UniPoly(rem)

    def __repr__(self):
        return "UniPoly(%r)" % (self.coeffs,)


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over a field."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.monic()


_PRIME = (1 << 61) - 1


def _gcd_mod_is_constant(a, b, p):
    """True iff gcd(a, b) over F_p is a nonzero constant.

    ``a`` and ``b`` are coefficient lists over F_p, highest degree first,
    with nonzero leading coefficients and len(a) >= len(b) >= 1; the lists
    are overwritten.
    """
    while b:
        inv = pow(b[0], -1, p)
        db = len(b)
        cut = len(a) - db + 1
        for i in range(cut):
            q = a[i] * inv % p
            if q:
                for j in range(1, db):
                    a[i + j] = (a[i + j] - q * b[j]) % p
        r = a[cut:]
        k = 0
        while k < len(r) and not r[k]:
            k += 1
        a, b = b, r[k:]
    return len(a) == 1


def _certified_squarefree(coeffs) -> bool:
    """The mod-p certificate of ``squarefree``; False means "not proved"."""
    f = [c % _PRIME for c in reversed(scaled_ints(coeffs)[0])]
    if not f[0]:
        return False
    deg = len(f) - 1
    df = [(deg - k) * c % _PRIME for k, c in enumerate(f[:-1])]
    return _gcd_mod_is_constant(f, df, _PRIME)


def squarefree(p: UniPoly) -> bool:
    """True iff gcd(p, p') is constant, i.e. p has only simple roots.

    Coefficients must be ``int`` or ``Fraction``; any other is a TypeError.
    A modular certificate comes first: ``scalars.scaled_ints`` makes p an
    integer polynomial f.  If the prime P = 2^61 - 1 does not divide
    lead(f) and gcd(f mod P, f' mod P) over F_P is a constant, p is
    squarefree over Q (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 14).  Proof: suppose f = g^2 h with g primitive in Z[x] and
    deg g >= 1.  By Gauss's lemma h lies in Z[x], so lead(g) divides
    lead(f); then P does not divide lead(g), and g mod P keeps its degree.
    Now (g mod P)^2 divides f mod P, so g mod P divides
    f' mod P = 2gg'h + g^2h' mod P in any characteristic, and the gcd mod P
    is not a constant.

    Every other case -- a nonconstant gcd mod P, or P dividing lead(f) --
    runs Euclid over Q, ``poly_gcd(p, p')``.  So every False is proved over
    Q, and every True by the certificate or by Euclid.
    """
    if p.is_zero():
        raise ValueError("squarefree test of the zero polynomial")
    check_rational(p.coeffs, "coefficient")
    if p.degree == 0:
        return True
    if _certified_squarefree(p.coeffs):
        return True
    g = poly_gcd(p, p.derivative())
    return g.degree == 0
