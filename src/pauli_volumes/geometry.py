"""Hilbert-Schmidt geometry of the eigenvalue simplex.

The flat Hilbert-Schmidt metric, restricted to the eigenvalue coordinates of
a generalized Pauli channel, is diagonal:

    g = ((d-1)/d^2) * diag(1, ..., 1, d+1-N)        (N ones, N <= d)

and for N = d+1 (all bases used, lambda_{N+1} pinned to zero) it is
((d-1)/d^2) times the identity on the d+1 remaining coordinates. Volumes in
lambda-space therefore pick up the constant factor sqrt(det g), which is an
exact quadratic surd. :class:`SurdValue` keeps such numbers exact end to end.

:class:`Frozen` is the one home of the value protocol (immutability,
equality, hash, repr and pickling) that the package's value classes share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .rationals import rational_str


def _square_free_split(n: int) -> tuple[int, int]:
    """Write n = s^2 * r with r square-free; returns (s, r)."""
    if n < 0:
        raise ValueError("radicand must be non-negative")
    s, r, f = 1, 1, 2
    while f * f <= n:
        count = 0
        while n % f == 0:
            n //= f
            count += 1
        s *= f ** (count // 2)
        if count % 2:
            r *= f
        f += 1 if f == 2 else 2
    return s, r * n


class Frozen:
    """Base of the package's immutable value classes: the one home of their
    value protocol.

    A subclass names its fields in ``__slots__``, in ``__init__`` parameter
    order, and sets each one once in ``__init__`` with ``object.__setattr__``.
    Frozen then refuses any later set or delete, compares type-strictly and
    hashes, prints and pickles by those fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SurdValue(Frozen):
    """An exact number coeff * sqrt(radicand), kept canonical.

    Canonical means the radicand is a square-free positive integer (so a
    rational value always has radicand 1) and zero is (0, 1). Multiplication
    stays inside the representation; mixed-radicand addition does not and is
    deliberately unsupported.
    """

    __slots__ = ("coeff", "radicand")
    coeff: Fraction
    radicand: int

    def __init__(self, coeff: Fraction, radicand: int = 1) -> None:
        if isinstance(coeff, float) or not isinstance(radicand, int):
            raise TypeError("floating-point coefficient or non-integer radicand rejected")
        coeff = Fraction(coeff)
        s, r = _square_free_split(radicand)
        coeff *= s
        if r == 0 or coeff == 0:
            coeff, r = Fraction(0), 1
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", r)

    @classmethod
    def sqrt(cls, q: Fraction | int) -> "SurdValue":
        """Exact square root of a non-negative rational: sqrt(p/q) = sqrt(pq)/q."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("cannot take a real square root of a negative rational")
        return cls(Fraction(1, q.denominator), q.numerator * q.denominator)

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"value {self} is irrational")
        return self.coeff

    def __mul__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        if isinstance(other, SurdValue):
            g = gcd(self.radicand, other.radicand)
            return SurdValue(
                self.coeff * other.coeff * g,
                (self.radicand // g) * (other.radicand // g),
            )
        return SurdValue(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.coeff) * float(self.radicand) ** 0.5

    def __str__(self) -> str:
        if self.is_rational:
            return rational_str(self.coeff)
        return f"{rational_str(self.coeff)}*sqrt({self.radicand})"


def is_int(x) -> bool:
    """An int proper: a bool is an int to Python, but never a count here."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_dims(d: int, N: int) -> None:
    """The one rule on (d, N): d an integer >= 2, N an integer in [3, d+1].

    O(1) at any d, so callers that take any d can check before they build."""
    if not is_int(d) or d < 2:
        raise ValueError(f"d must be an integer >= 2 (got {d})")
    if not is_int(N) or not 3 <= N <= d + 1:
        raise ValueError(f"N must be an integer with 3 <= N <= d+1 (got N={N}, d={d})")


def weights(d: int, N: int) -> tuple[int, ...]:
    """Per-coordinate weights of eigenvalue space, which total d+1: with
    m = min(N, d), 1 for each of the first m eigenvalues and d+1-m for the
    last, the left-out one. N = d+1 drops its pinned zero and takes the
    weights of N = d, whose left-out basis has weight 1."""
    check_dims(d, N)
    m = min(N, d)
    return (1,) * m + (d + 1 - m,)


def metric(d: int, N: int) -> tuple[Fraction, ...]:
    """Induced metric diagonal: (d-1)/d^2 times the coordinate weights."""
    return tuple(Fraction((d - 1) * w, d * d) for w in weights(d, N))


def volume_prefactor(d: int, N: int) -> SurdValue:
    """sqrt(det g): the constant converting lambda-volume to metric volume."""
    return SurdValue.sqrt(prod(metric(d, N)))


def vp_volume(d: int, N: int) -> SurdValue:
    """Closed-form metric volume of the necessary-positivity box.

    sqrt((d+1-N)/(d-1)^(N+1)) for N <= d, and 1/sqrt((d-1)^(d+1)) when
    N = d+1; both are the box side d/(d-1) per coordinate times the metric
    prefactor, reduced.
    """
    check_dims(d, N)
    if N == d + 1:
        return SurdValue.sqrt(Fraction(1, (d - 1) ** (d + 1)))
    return SurdValue.sqrt(Fraction(d + 1 - N, (d - 1) ** (N + 1)))
