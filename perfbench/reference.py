"""Exact reference answers computed without the pauli_volumes package.

Everything here is rational arithmetic on closed forms, so the benchmark can
check the package's outputs against numbers it did not produce.

Eigenvalue space of a channel built from N bases in dimension d has
n = N+1 coordinates (n = d+1 when N = d+1, where the left-out eigenvalue is
pinned to zero). Every coordinate has weight 1 except the left-out one,
whose weight is d+1-N; W is the product of the weights (1 when N = d+1).
The class volumes in eigenvalue space are

    p        = (d/(d-1))^n                   (the box [-1/(d-1), 1]^n)
    cp / p   = d / (n! W)
    g  / cp  = (d+1) (d-1)^n / d^(n+1)
    eb / g   = 1 / (d+1)

and the Hilbert-Schmidt metric is diagonal with (d-1)/d^2 per coordinate,
times W on the left-out one, so a metric volume is the eigenvalue-space
volume times sqrt(((d-1)/d^2)^n W).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log, sqrt

CLASSES = ("p", "cp", "g", "eb")
RATIOS = (("cp/p", "cp", "p"), ("g/cp", "g", "cp"), ("eb/g", "eb", "g"))
MODES = ("max", "d", "3")


def n_for_mode(d: int, mode: str) -> int:
    return {"max": d + 1, "d": d, "3": 3}[mode]


def supported(d: int) -> tuple[int, ...]:
    """Basis counts with exact volumes: N = d+1 (d >= 2), N = d and N = 3 (d >= 3)."""
    if d < 2:
        return ()
    if d == 2:
        return (3,)
    return tuple(sorted({3, d, d + 1}))


def shape(d: int, N: int) -> tuple[int, int]:
    """(n, W): the coordinate count and the product of the coordinate weights."""
    if N == d + 1:
        return d + 1, 1
    return N + 1, d + 1 - N


def lambda_volume(d: int, N: int, cls: str) -> Fraction:
    """Exact eigenvalue-space volume of one class."""
    n, W = shape(d, N)
    vol = Fraction(d, d - 1) ** n
    if cls == "p":
        return vol
    vol *= Fraction(d, factorial(n) * W)
    if cls == "cp":
        return vol
    vol *= Fraction((d + 1) * (d - 1) ** n, d ** (n + 1))
    if cls == "g":
        return vol
    if cls == "eb":
        return vol / (d + 1)
    raise ValueError(f"unknown class {cls!r}")


def ratio(d: int, N: int, name: str) -> Fraction:
    for rname, num, den in RATIOS:
        if rname == name:
            return lambda_volume(d, N, num) / lambda_volume(d, N, den)
    raise ValueError(f"unknown ratio {name!r}")


def metric_det(d: int, N: int) -> Fraction:
    """Determinant of the metric in eigenvalue coordinates."""
    n, W = shape(d, N)
    return Fraction(d - 1, d * d) ** n * W


def metric_volume_float(d: int, N: int, cls: str) -> float:
    return float(lambda_volume(d, N, cls)) * sqrt(float(metric_det(d, N)))


def is_metric_volume(coeff: Fraction, radicand: int, d: int, N: int, cls: str) -> bool:
    """Whether coeff*sqrt(radicand) is exactly the metric volume of the class."""
    lam = lambda_volume(d, N, cls)
    return coeff > 0 and coeff * coeff * radicand == lam * lam * metric_det(d, N)


def box_hit_probability(d: int, N: int, cls: str) -> Fraction:
    """Share of the necessary-positivity box that the class fills."""
    return lambda_volume(d, N, cls) / lambda_volume(d, N, "p")


def hits_window(samples: int, p: float, tail: float = 5e-7) -> tuple[float, float]:
    """Hit counts outside which a correct uniform sampler lands with
    probability below 2*tail, from the Chernoff bounds on a binomial count:
    P(X >= (1+a)mu) <= exp(-mu a^2/(2+a)) and P(X <= (1-b)mu) <= exp(-mu b^2/2)."""
    mu = samples * p
    L = log(1.0 / tail)
    above = (L + sqrt(L * L + 8.0 * mu * L)) / (2.0 * mu)
    below = sqrt(2.0 * L / mu)
    return mu * (1.0 - below), mu * (1.0 + above)


def classify(d: int, N: int, lams: list[Fraction]) -> dict:
    """The README's region inequalities for one eigenvalue vector.

    ``lams`` is (lambda_1..lambda_N, lambda_{N+1}); S weighs the left-out
    eigenvalue by d+1-N. The returned flags are named as the CLI's
    ``classify`` output names them.
    """
    body, rest = lams[:N], lams[N]
    s = sum(body, Fraction(0)) + (d + 1 - N) * rest
    lo = Fraction(-1, d - 1)
    smallest = min(body) if N == d + 1 else min(lams)
    nonneg = all(x >= 0 for x in lams)
    return {
        "positive_necessary": all(lo <= x <= 1 for x in body),
        "cp": lo <= s <= 1 + d * smallest,
        "generator_achievable": nonneg,
        "eb_necessary": s <= 1,
        "eb_known_sufficient": N in (d, d + 1) and nonneg,
        "eigenvalue_sum": s,
    }


def cp_vertices(d: int, N: int) -> list[list[Fraction]]:
    """Vertices of the cp simplex in the n eigenvalue coordinates: the all-ones
    point and, for each j, lambda_i = -1/(d-1) (i != j) with
    lambda_j = (d - w_j) / (w_j (d-1))."""
    n, W = shape(d, N)
    weights = [1] * n if N == d + 1 else [1] * (n - 1) + [W]
    verts = [[Fraction(1)] * n]
    for j, w in enumerate(weights):
        v = [Fraction(-1, d - 1)] * n
        v[j] = Fraction(d - w, w * (d - 1))
        verts.append(v)
    return verts
