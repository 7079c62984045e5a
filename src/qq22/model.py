"""Fixed data of an even-dimensional intersection of two quadrics.

Cohomology basis layout used everywhere: slots 0..n are the ambient classes
(1 and the n hyperplane powers, either cup powers h_i or small-quantum powers
ht_i depending on the coordinate system), slots n+1..2n+3 the orthonormal
middle-dimensional primitive classes.  All basis-dependent constants live in
this module and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import ExactMatrix

TAU = "tau"
T = "t"


@dataclass(frozen=True)
class ModelParams:
    """Dimension n plus the derived index bookkeeping."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("dimension must be even and >= 4, got %r" % (self.n,))

    @property
    def basis_size(self) -> int:
        return 2 * self.n + 4

    @property
    def num_primitive(self) -> int:
        return self.n + 3

    @property
    def fano_index(self) -> int:
        return self.n - 1

    def is_primitive_slot(self, k: int) -> bool:
        return self.n + 1 <= k <= 2 * self.n + 3


def eta_inverse(n: int) -> ExactMatrix:
    """Inverse Poincare pairing in the small-quantum basis.

    Entries: -4 when e+f = 1, 1/4 on the ambient antidiagonal e+f = n,
    identity on the primitive block, zero elsewhere.
    """
    p = ModelParams(n)
    size = p.basis_size
    m = ExactMatrix.zeros(size, size, Fraction(0))
    for e in range(size):
        for f in range(size):
            if e + f == 1:
                m[e, f] = Fraction(-4)
            elif e <= n and f <= n and e + f == n:
                m[e, f] = Fraction(1, 4)
            elif p.is_primitive_slot(e) and e == f:
                m[e, f] = Fraction(1)
    return m


def eta_pairing(n: int) -> ExactMatrix:
    """The pairing matrix itself: explicit inverse of eta_inverse.

    Ambient block: eta_{ab} = 4 * 16^((a+b-n)/(n-1)) when that exponent is a
    nonnegative integer, else 0; primitive block is the identity.
    """
    p = ModelParams(n)
    size = p.basis_size
    m = ExactMatrix.zeros(size, size, Fraction(0))
    for e in range(size):
        for f in range(size):
            if e <= n and f <= n:
                q, r = divmod(e + f - n, n - 1)
                if r == 0 and q >= 0:
                    m[e, f] = Fraction(4) * Fraction(16) ** q
            elif p.is_primitive_slot(e) and e == f:
                m[e, f] = Fraction(1)
    return m


def t_tau_transition(n: int, direction: str):
    """Derivative substitution for switching coordinates.

    Returns a dict  slot -> list of (slot, coefficient)  expressing a partial
    derivative in the source coordinates as a combination of partials in the
    target coordinates.  direction "t_to_tau" expands d/dt^j, "tau_to_t"
    expands d/dtau^j; composing the two is the identity.
    """
    p = ModelParams(n)
    table = {j: [(j, Fraction(1))] for j in range(p.basis_size)}
    if direction == "t_to_tau":
        table[n - 1] = [(n - 1, Fraction(1)), (0, Fraction(-4))]
        table[n] = [(n, Fraction(1)), (1, Fraction(-12))]
    elif direction == "tau_to_t":
        table[n - 1] = [(n - 1, Fraction(1)), (0, Fraction(4))]
        table[n] = [(n, Fraction(1)), (1, Fraction(12))]
    else:
        raise ValueError("direction must be 't_to_tau' or 'tau_to_t'")
    return table


def ambient_3pt_tau(n: int, a: int, b: int, c: int) -> Fraction:
    """Three ambient insertions in small-quantum coordinates.

    4 * 16^((a+b+c-n)/(n-1)) when the exponent is a nonnegative integer,
    zero otherwise.  Totally symmetric in (a, b, c).
    """
    ModelParams(n)
    for v in (a, b, c):
        if not 0 <= v <= n:
            raise ValueError("ambient index out of range: %r" % (v,))
    q, r = divmod(a + b + c - n, n - 1)
    if r or q < 0:
        return Fraction(0)
    return Fraction(4) * Fraction(16) ** q


@dataclass(frozen=True)
class EulerFieldTau:
    """Euler vector field in small-quantum coordinates.

    E = sum_{i<=n} (1-i) tau^i d_i + (4n-4) tau^{n-1} d_0
      + (12n-12) tau^n d_1 + sum_{prim} (1-n/2) tau^i d_i + (n-1) d_1.
    """

    n: int

    def constant_part(self):
        return {1: Fraction(self.n - 1)}

    def linear_coefficient(self, tau_slot: int, d_slot: int) -> Fraction:
        """Coefficient of tau^{tau_slot} in the d_{d_slot} component."""
        n = self.n
        c = Fraction(0)
        if tau_slot == d_slot:
            if tau_slot <= n:
                c += 1 - tau_slot
            else:
                c += Fraction(2 - n, 2)
        if tau_slot == n - 1 and d_slot == 0:
            c += 4 * n - 4
        if tau_slot == n and d_slot == 1:
            c += 12 * n - 12
        return c


def euler_coeffs_tau(n: int) -> EulerFieldTau:
    ModelParams(n)
    return EulerFieldTau(n)
