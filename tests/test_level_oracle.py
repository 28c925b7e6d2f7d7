"""The level kernel against a naive integrator that shares nothing with it.

The oracle integrates x_{n-1} down to x_0 as plain polynomials over all n
variables, ``{exponent tuple: Fraction}``. It reads each :class:`LevelBound`
field by field, expands the running sum S_k = sum_{1<=j<=k-2} u_j x_j over
the chain's u, and substitutes an end into the antiderivative by repeated
multiplication. It has no packed keys, buckets, common denominators or
table, so a fault in any of those shows as a mismatch (differential
testing).

The chains are random and seeded: every field a level may hold is
nonzero, numerators lie in [-6, 6] and q in 1..6, and u has zero and
negative entries. The chambers make a narrower family: their stored
constants are -1, 0 or 1, and their u holds positive weights only.
"""

import random
from fractions import Fraction
from operator import add

from pauli_volumes import volume
from pauli_volumes.regions import BoundChain, LevelBound
from pauli_volumes.volume import integrate_chain, integrate_chains

_NONZERO = [v for v in range(-6, 7) if v]


def _mul(p: dict, r: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _end_poly(end: LevelBound, k: int, u: tuple, n: int) -> dict:
    """(const + x0 x_0 + t S_k + last x_{k-1}) / q over x_0..x_{n-1}."""

    def var(j):
        return tuple(int(i == j) for i in range(n))

    terms = [(end.const, (0,) * n), (end.x0, var(0))]
    if end.t:
        terms += [(end.t * u[j - 1], var(j)) for j in range(1, k - 1)]
    if k >= 1:
        terms.append((end.last, var(k - 1)))
    out: dict = {}
    for c, e in terms:
        out[e] = out.get(e, 0) + Fraction(c, end.q)
    return {e: c for e, c in out.items() if c}


def oracle_volume(chain: BoundChain) -> Fraction:
    """The chain's signed iterated integral, innermost variable first."""
    n = len(chain.bounds)
    one = (0,) * n
    poly = {one: Fraction(1)}
    for k in range(n - 1, -1, -1):
        out: dict = {}
        for end, sign in zip(chain.bounds[k][::-1], (1, -1)):
            powers = [{one: Fraction(1)}]
            end_poly = _end_poly(end, k, chain.u, n)
            for e, c in poly.items():
                m = e[k] + 1  # x_k^(m-1) integrates to x_k^m / m
                while len(powers) <= m:
                    powers.append(_mul(powers[-1], end_poly))
                rest = e[:k] + (0,) + e[k + 1 :]
                c = sign * c / m
                for e2, c2 in powers[m].items():
                    key = tuple(map(add, rest, e2))
                    out[key] = out.get(key, 0) + c * c2
        poly = {e: c for e, c in out.items() if c}
    return poly.get(one, Fraction(0))


def _random_u(rng: random.Random, n: int, size: int | None = None) -> tuple:
    if size is None:
        size = rng.randint(0, max(n - 3, 0))
    return tuple(rng.randint(-3, 3) for _ in range(size))


def _random_end(rng: random.Random, k: int, u: tuple) -> LevelBound:
    """An end of level k holding every term that level may hold, nonzero."""
    x0 = rng.choice(_NONZERO) if k >= 1 else 0
    last = rng.choice(_NONZERO) if k >= 2 else 0
    t = rng.choice(_NONZERO) if 3 <= k < len(u) + 3 else 0
    return LevelBound(rng.choice(_NONZERO), x0, t, last, rng.randint(1, 6))


def _random_levels(rng: random.Random, n: int, u: tuple) -> list:
    return [(_random_end(rng, k, u), _random_end(rng, k, u)) for k in range(n)]


def test_random_chains_match_the_oracle(monkeypatch):
    """400 random chains of 1-7 levels, each integrated alone. They reach
    each path of the kernel's two level methods: the closed form for
    integrands of degree <= 2, at a constant integrand, with an x_k^2 term
    (P2 != 0) and without one (P2 = 0), and Horner's rule for degree 3
    and up."""
    paths = dict.fromkeys(("constant", "P2 = 0", "P2 != 0", "horner"), 0)
    closed, horner = volume._closed_level, volume._horner_level

    def counted_closed(den, poly, *ends):
        if list(poly) == [0]:
            paths["constant"] += 1
        else:
            paths["P2 != 0" if 2 * volume._Y in poly else "P2 = 0"] += 1
        return closed(den, poly, *ends)

    def counted_horner(*args):
        paths["horner"] += 1
        return horner(*args)

    monkeypatch.setattr(volume, "_closed_level", counted_closed)
    monkeypatch.setattr(volume, "_horner_level", counted_horner)
    rng = random.Random(1701)
    for i in range(400):
        n = rng.randint(1, 7)
        u = _random_u(rng, n)
        chain = BoundChain(_random_levels(rng, n, u), u, label=f"random-{i}")
        assert integrate_chain(chain) == oracle_volume(chain), (chain.label, n, u)
    assert all(paths.values()), paths


def _chain_set(rng: random.Random, n: int, u: tuple, base: list, label: str) -> list:
    """2-7 chains built from ``base``: each keeps a random prefix of 1..n of
    its levels and redraws each kept level with probability 0.4, so they
    share outer levels and inner stacks (shared through the table); about
    30% take another u of the same length."""
    chains = []
    for j in range(rng.randint(2, 7)):
        cu = _random_u(rng, n, len(u)) if rng.random() < 0.3 else u
        levels = [
            pair if rng.random() < 0.6 else (_random_end(rng, k, cu), _random_end(rng, k, cu))
            for k, pair in enumerate(base[: rng.randint(1, n)])
        ]
        chains.append(BoundChain(levels, cu, label=f"{label}-{j}"))
    return chains


def test_random_chain_sets_through_one_table_match_the_oracle():
    """150 random chain sets, three per base chain over one table, each
    integrated twice: the summed volume is the sum of the oracle's, so no
    state picked up from the table, from this call or another, moves a
    total."""
    rng = random.Random(2718)
    for b in range(50):
        n = rng.randint(2, 7)
        u = _random_u(rng, n)
        base = _random_levels(rng, n, u)
        table: dict = {}
        for s in range(3):
            chains = _chain_set(rng, n, u, base, f"set-{b}-{s}")
            expected = sum(map(oracle_volume, chains), Fraction(0))
            for _ in range(2):
                assert integrate_chains(chains, table) == expected, (b, s)


def test_the_oracle_reads_the_chamber_chains():
    """The oracle agrees with the kernel on the chambers too: every cp, g
    and eb chain at (5, 6) and, with a left-out weight of 3, at (5, 3)."""
    for d, N in ((5, 6), (5, 3)):
        for cls in ("cp", "g", "eb"):
            for chain in volume.region_for(d, N, cls).chains:
                assert integrate_chain(chain) == oracle_volume(chain), chain.label
