"""Hilbert-Schmidt geometry of the eigenvalue simplex.

The flat Hilbert-Schmidt metric, restricted to the eigenvalue coordinates of
a generalized Pauli channel, is diagonal:

    g = ((d-1)/d^2) * diag(1, ..., 1, d+1-N)        (N ones, N <= d)

and for N = d+1 (all bases used, lambda_{N+1} pinned to zero) it is
((d-1)/d^2) times the identity on the d+1 remaining coordinates. Volumes in
lambda-space therefore pick up the constant factor sqrt(det g), which is an
exact quadratic surd. :class:`SurdValue` keeps such numbers exact end to end.
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


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the package's immutable value
    classes, which set their slots once, in ``__init__``."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")


class SurdValue:
    """An exact number coeff * sqrt(radicand), kept canonical.

    Canonical means the radicand is a square-free positive integer (so a
    rational value always has radicand 1) and zero is (0, 1). Multiplication
    and division stay inside the representation; mixed-radicand addition does
    not and is deliberately unsupported.
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

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other) -> bool:
        if type(other) is not SurdValue:
            return NotImplemented
        return self.coeff == other.coeff and self.radicand == other.radicand

    def __hash__(self) -> int:
        return hash((self.coeff, self.radicand))

    def __repr__(self) -> str:
        return f"SurdValue(coeff={self.coeff!r}, radicand={self.radicand!r})"

    def __reduce__(self):
        return SurdValue, (self.coeff, self.radicand)

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

    def __truediv__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        if isinstance(other, SurdValue):
            if other.coeff == 0:
                raise ZeroDivisionError("division by zero surd")
            inverse = SurdValue(Fraction(1, other.coeff * other.radicand), other.radicand)
            return self * inverse
        return SurdValue(self.coeff / Fraction(other), self.radicand)

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
    """Per-coordinate weights of eigenvalue space: 1 for each used-basis
    eigenvalue and d+1-N for the left-out one, which is pinned to zero and
    dropped when N = d+1. The weights total d+1."""
    check_dims(d, N)
    return (1,) * (d + 1) if N == d + 1 else (1,) * N + (d + 1 - N,)


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
