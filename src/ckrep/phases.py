"""Exact phases and rational combinations of roots of unity.

A :class:`Phase` is a point on the unit circle.  Phases produced by the
library itself are always *exact* roots of unity, stored as a reduced
integer pair ``(num, den)`` with ``0 <= num < den`` (meaning
``exp(2*pi*i*num/den)``); user supplied phases may instead be approximate
unit complex numbers, compared within ``APPROX_TOL``.  Exact phases
multiply, invert, take roots and compare in integers alone, so neither
`fractions` nor `cmath` is imported until a caller asks for a `Fraction`
(``Phase.turns``) or a complex value.

:class:`RootSum` is the ring of finite rational linear combinations of
roots of unity, stored as a sparse map from integer exponents to
coefficients at one order n.  Zero testing reduces the element modulo the
n-th cyclotomic polynomial, so equality of inner products computed from
exact phases is decided exactly.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .words import CkError, _Key

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

APPROX_TOL = 1e-12


class PhaseError(CkError):
    """A value does not describe a usable unit phase."""


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, reduced modulo 1 to 0 <= num < den."""
    g = gcd(num, den)  # a TypeError unless both are integers
    if den == 0:
        raise PhaseError(f"phase {num}/{den} has a zero denominator")
    if den < 0:
        g = -g
    den //= g
    return num // g % den, den


class Phase(_Key, namedtuple("Phase", "pair approx")):
    """A unit complex number, exact (a root of unity) or approximate.

    Exactly one of ``pair`` / ``approx`` is set.  ``pair`` is the reduced
    ``(num, den)``, ``0 <= num < den``, of exp(2*pi*i*num/den), so
    structural equality of exact phases is semantic equality.
    """

    __slots__ = ()

    def __new__(cls, turns: "int | Fraction | None" = None, approx: complex | None = None):
        if (turns is None) == (approx is None):
            raise PhaseError("phase needs exactly one of turns/approx")
        if turns is not None:
            try:
                num, den = turns.numerator, turns.denominator
            except AttributeError:
                raise PhaseError(f"turns {turns!r} is not a rational number") from None
            return tuple.__new__(cls, (_reduced(num, den), None))
        if not abs(abs(approx) - 1.0) <= APPROX_TOL:  # NaN too
            raise PhaseError(f"|z| = {abs(approx)} is not 1 within {APPROX_TOL}")
        return tuple.__new__(cls, (None, approx))

    def __reduce__(self):
        # pickle and copy: namedtuple's __getnewargs__ would hand the stored
        # fields to __new__, which takes turns
        return type(self)._make, (tuple(self),)

    @staticmethod
    def exact(num: int, den: int = 1) -> "Phase":
        """The root of unity exp(2*pi*i*num/den)."""
        return tuple.__new__(Phase, (_reduced(num, den), None))

    @staticmethod
    def from_complex(z: complex) -> "Phase":
        return Phase(approx=complex(z))

    @property
    def is_exact(self) -> bool:
        return self.pair is not None

    @property
    def turns(self) -> "Fraction | None":
        """The rotation num/den of an exact phase as a `Fraction` in
        [0, 1); None for an approximate phase."""
        if self.pair is None:
            return None
        from fractions import Fraction

        return Fraction(*self.pair)

    def as_complex(self) -> complex:
        if self.pair is not None:
            import cmath

            num, den = self.pair
            return cmath.exp(2j * cmath.pi * (num / den))
        return self.approx

    def is_one(self) -> bool:
        if self.pair is not None:
            return self.pair[0] == 0
        return abs(self.approx - 1.0) <= APPROX_TOL

    def __mul__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        if self.pair is not None and other.pair is not None:
            (a, b), (c, d) = self.pair, other.pair
            return Phase.exact(a * d + c * b, b * d)
        return Phase(approx=self.as_complex() * other.as_complex())

    def conjugate(self) -> "Phase":
        if self.pair is not None:
            num, den = self.pair
            return Phase.exact(-num, den)
        return Phase(approx=self.approx.conjugate())

    def root(self, p: int) -> "Phase":
        """Principal p-th root: rotation k/q becomes k/(p*q)."""
        if p < 1:
            raise PhaseError("root order must be >= 1")
        if self.pair is not None:
            num, den = self.pair
            return Phase.exact(num, den * p)
        import cmath

        r, phi = cmath.polar(self.approx)
        return Phase(approx=cmath.rect(1.0, (phi % (2 * cmath.pi)) / p))


ONE = Phase.exact(0)


def phases_equal(a: Phase, b: Phase, tol: float = APPROX_TOL) -> bool:
    """Semantic equality: exact vs exact compares rotations, else within tol."""
    if a.is_exact and b.is_exact:
        return a.pair == b.pair
    return abs(a.as_complex() - b.as_complex()) <= tol


def _poly_divmod(num: list, den: tuple[int, ...]) -> tuple[list, list]:
    # Long division; `den` monic with integer coefficients, ascending order.
    # The remainder keeps the length of `num`, zero above the degree of `den`.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for k, d in enumerate(den):
                num[i + k] -= c * d
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(poly)


class RootSum:
    """A finite sum ``sum_k  c_k * zeta_n^k`` with rational c_k, where
    ``zeta_n = exp(2*pi*i/n)`` and ``n`` is the element's ``order``.

    Immutable by convention.  Operands of different orders are lifted to
    the lcm order (``k -> k*m/n``).  Equality and zero tests are exact, via
    reduction modulo the n-th cyclotomic polynomial.
    """

    __slots__ = ("order", "_terms")

    def __init__(self, order: int = 1, terms: "dict[int, int | Fraction] | None" = None):
        self.order = order
        # zeta_n^k depends on k mod n only, so keys equal mod n add up
        merged: dict[int, int | Fraction] = {}
        for k, c in (terms or {}).items():
            merged[k % order] = merged.get(k % order, 0) + c
        self._terms = {k: c for k, c in merged.items() if c}

    def _lifted(self, order: int) -> "dict[int, int | Fraction]":
        step = order // self.order
        return {k * step: c for k, c in self._terms.items()}

    def __add__(self, other: "RootSum") -> "RootSum":
        order = lcm(self.order, other.order)
        merged = self._lifted(order)
        for k, c in other._lifted(order).items():
            merged[k] = merged.get(k, 0) + c
        return RootSum(order, merged)

    def __neg__(self) -> "RootSum":
        return RootSum(self.order, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "RootSum") -> "RootSum":
        return self + (-other)

    def __mul__(self, other: "RootSum") -> "RootSum":
        order = lcm(self.order, other.order)
        out: dict[int, int | Fraction] = {}
        right = other._lifted(order).items()
        for k1, c1 in self._lifted(order).items():
            for k2, c2 in right:
                key = (k1 + k2) % order
                out[key] = out.get(key, 0) + c1 * c2
        return RootSum(order, out)

    def scaled(self, q) -> "RootSum":
        from fractions import Fraction

        q = Fraction(q)
        return RootSum(self.order, {k: c * q for k, c in self._terms.items()})

    def conjugate(self) -> "RootSum":
        return RootSum(self.order, {-k % self.order: c for k, c in self._terms.items()})

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        coeffs = [0] * self.order
        for k, c in self._terms.items():
            coeffs[k] = c
        _, rem = _poly_divmod(coeffs, cyclotomic_polynomial(self.order))
        return not any(rem)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootSum):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def as_complex(self) -> complex:
        import cmath

        n, terms = self.order, self._terms.items()
        return sum((float(c) * cmath.exp(2j * cmath.pi * (k / n)) for k, c in terms), 0j)

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*e({k}/{self.order})" for k, c in sorted(self._terms.items()))
        return f"RootSum({body or '0'})"
