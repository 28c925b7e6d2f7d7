"""Generalized Pauli channels in eigenvalue coordinates.

A channel built from N mutually unbiased bases of C^d mixes the identity,
the completely depolarizing map, and the N basis-dephasing maps:

    Lambda = p_{N+1} id + p_0 Phi_0 + sum_{alpha=1..N} p_alpha Phi_alpha,

with Phi_0[rho] = Tr(rho) I / d and Phi_alpha[rho] = sum_k P_k rho P_k over
the projectors of basis alpha. Its spectrum is fixed by the eigenvalues

    lambda_alpha = p_{N+1} + p_alpha  (alpha = 1..N),
    lambda_{N+1} = p_{N+1},

which are the canonical coordinates and the only input of this package
(:func:`mixing_weights` inverts the map). All class predicates below are
exact: eigenvalues are rationals and every comparison is in rational
arithmetic. The numerical channel action and Choi matrix that cross-check
them live in :mod:`.mub`, which imports this module and never the reverse.

N = d is the complete family: the one left-out basis has lambda_{N+1} as
its own eigenvalue, so these channels are those of N = d+1, written with d
of the bases. Their class regions, chains and volumes are the same.

Class membership, writing S = sum_{alpha<=N} lambda_alpha + (d+1-N) lambda_{N+1}:

* completely positive (CP):
      -1/(d-1) <= S <= 1 + d * min lambda,
  the min over lambda_1..lambda_{N+1} for N <= d and over lambda_1..lambda_N
  when N = d+1 (where lambda_{N+1} is identically zero).
* positivity necessary box (P): every lambda_alpha, alpha = 1..N, lies in
  [-1/(d-1), 1]; equivalent to a non-negative worst output overlap. This
  is what :func:`is_positive_necessary` tests. The volume region ``p``
  (:func:`..regions.p_box`) bounds every eigenvalue coordinate, so for
  N <= d it bounds lambda_{N+1} too.
* generator achievable (G): CP with every eigenvalue >= 0. These are the
  channels a legitimate time-local generator can reach, whose rates may
  turn negative on the way; non-negative rates reach only a smaller set.
  The qubit point lambda = (1/2, 1/2, 1/10) is in G, but its integrated
  rates are about (0.58, 0.58, -0.23).
* entanglement breaking, necessary condition (EB): S <= 1; known sufficient
  when all eigenvalues are non-negative at the (d, N) that
  :func:`eb_criterion_exact` names.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import Frozen, check_dims
from .rationals import parse_rational


class ChannelSpec(Frozen):
    """Exact description of a generalized Pauli channel.

    ``lambdas`` holds (lambda_1, ..., lambda_N, lambda_{N+1}); the last entry
    must be exactly zero when N = d+1 (no basis is left out, so the extra
    eigenvalue carries no freedom). A string entry is read by
    :func:`..rationals.parse_rational`, so it has the command line's limits
    on digits and exponents. A float, a bool or a Decimal is refused with
    ``TypeError``: a bool is no eigenvalue, and a Decimal would be read
    with no such limits.
    """

    __slots__ = ("d", "N", "lambdas")
    d: int
    N: int
    lambdas: tuple[Fraction, ...]

    def __init__(self, d: int, N: int, lambdas: Sequence[Fraction | int | str]) -> None:
        check_dims(d, N)
        for x in lambdas:
            if isinstance(x, (float, bool, Decimal)):
                raise TypeError(
                    f"{type(x).__name__} eigenvalues are rejected; pass Fraction, int, or 'p/q'"
                )
        lambdas = tuple(parse_rational(x) if isinstance(x, str) else Fraction(x) for x in lambdas)
        if len(lambdas) != N + 1:
            raise ValueError(f"need N+1={N + 1} eigenvalues (got {len(lambdas)})")
        if N == d + 1 and lambdas[-1] != 0:
            raise ValueError("lambda_{N+1} must be 0 when N = d+1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "lambdas", lambdas)

    @classmethod
    def make(cls, d: int, N: int, values: Iterable[Fraction | int | str]) -> "ChannelSpec":
        """Lenient constructor: for N = d+1 the trailing zero may be omitted."""
        vals = list(values)
        if N == d + 1 and len(vals) == N:
            vals.append(Fraction(0))
        elif N == d + 1 and len(vals) != N + 1:
            check_dims(d, N)  # a bad (d, N) is reported before the count
            raise ValueError(
                f"need N+1={N + 1} eigenvalues, or N={N} with the trailing 0 left out "
                f"(got {len(vals)})"
            )
        return cls(d, N, tuple(vals))

    @property
    def body(self) -> tuple[Fraction, ...]:
        """lambda_1..lambda_N."""
        return self.lambdas[: self.N]

    @property
    def lam_rest(self) -> Fraction:
        """lambda_{N+1}, the eigenvalue shared by all left-out directions."""
        return self.lambdas[self.N]

    def eigenvalue_sum(self) -> Fraction:
        """S = sum of body eigenvalues + (d+1-N) * lambda_{N+1}."""
        return sum(self.body, Fraction(0)) + (self.d + 1 - self.N) * self.lam_rest


def mixing_weights(c: ChannelSpec) -> tuple[Fraction, ...]:
    """Exact mixing weights (p_0, ..., p_{N+1}), summing to one; negative for non-CP input."""
    rest = c.lam_rest
    body = tuple(lam - rest for lam in c.body)
    p0 = 1 - rest - sum(body, Fraction(0))
    return (p0,) + body + (rest,)


def is_cp(c: ChannelSpec) -> bool:
    """Exact complete-positivity test in eigenvalue coordinates."""
    s = c.eigenvalue_sum()
    if c.N == c.d + 1:
        smallest = min(c.body)
    else:
        smallest = min(c.lambdas)
    return -Fraction(1, c.d - 1) <= s <= 1 + c.d * smallest


def is_positive_necessary(c: ChannelSpec) -> bool:
    """Necessary positivity box: lambda_alpha in [-1/(d-1), 1] for alpha = 1..N.

    Exactly equivalent to ``min_output_overlap(c) >= 0``.
    """
    lo = -Fraction(1, c.d - 1)
    return all(lo <= lam <= 1 for lam in c.body)


def min_output_overlap(c: ChannelSpec) -> Fraction:
    """Worst overlap Tr(Lambda[Q] P) over the channel's basis projector pairs.

    Closed form (1/d) * (1 + min(-lambda_max, (d-1) * lambda_min)) with the
    extrema taken over lambda_1..lambda_N.
    """
    worst = min(-max(c.body), (c.d - 1) * min(c.body))
    return Fraction(1, c.d) * (1 + worst)


def is_generator_achievable(c: ChannelSpec) -> bool:
    """True when every eigenvalue is non-negative: given complete positivity,
    the channel is reachable by a legitimate time-local generator, whose
    rates may turn negative on the way."""
    return all(lam >= 0 for lam in c.lambdas)


def is_eb_necessary(c: ChannelSpec) -> bool:
    """Necessary entanglement-breaking condition: S <= 1."""
    return c.eigenvalue_sum() <= 1


def eb_criterion_exact(d: int, N: int) -> bool:
    """Whether S <= 1 with every eigenvalue non-negative is known to be the
    whole entanglement-breaking condition at (d, N): when at most one basis
    is left out, so N is d or d+1. The one statement of this rule."""
    return N >= d


def eb_known_sufficient(c: ChannelSpec) -> bool:
    """Whether S <= 1 is known to be sufficient too: the criterion is exact
    at (d, N) and every eigenvalue is non-negative."""
    return eb_criterion_exact(c.d, c.N) and is_generator_achievable(c)
