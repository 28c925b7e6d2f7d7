"""Integration regions for the channel-class volumes.

Every class volume in this package is an integral over a finite list of
*bound chains*: iterated-integral regions

    lo_0 <= x_0 <= hi_0,  lo_1(x_0) <= x_1 <= hi_1(x_0),  ...

whose bounds are affine in the earlier variables only. Each end of the
bound on x_k is stored in the form the integrator reads, a
:class:`LevelBound` (const + x0 x_0 + t S_k + last x_{k-1}) / q over the
chain's running sum S_k = sum_{1<=j<=k-2} u_j x_j: four integer
numerators over one positive integer denominator q, in lowest terms, so
equal ends have equal fields. It is the one form of a bound: the
integrator reads it as it is, and the region dump renders it. Chains
come in two flavors:

* the necessary-positivity box, a single chain of constant bounds; and
* chamber decompositions of the ordered-eigenvalue wedge
  lambda_(1) <= ... <= lambda_(n), built by :func:`chambers`. Sorting
  splits eigenvalue space into congruent copies of the wedge, so the raw
  chain volumes are multiplied by a symmetry factor.

The chambers work with weighted coordinates. A channel using N bases has
n = N+1 eigenvalue coordinates (n = d+1 when N = d+1, where the left-out
eigenvalue is pinned to zero). Each has weight 1, except the left-out
eigenvalue lambda_{N+1}, whose weight is its multiplicity d+1-N; the
weights total d+1. Complete positivity is the two-sided constraint

    -1/(d-1) <= S <= 1 + d * lambda_(1),    S = sum_j w_j lambda_j.

On the ordered wedge it becomes nested upper bounds, level by level, each
divided by the weight not yet integrated. A cp chamber is indexed by the
level M at which these bounds switch from the "negative branch" (room below
the lower S constraint) to the "positive branch" (room below the upper S
constraint). The generator-reachable region g needs only the positive
branch on non-negative coordinates, and the entanglement-breaking region eb
only the budget S <= 1.

When the left-out weight is 1 (N in {d, d+1}) all n coordinates are
exchangeable, and the symmetry factor is n!. Otherwise the left-out
eigenvalue is distinguished: its sorted slot is enumerated, one chain set
per slot, and only the N used-basis coordinates are exchangeable, so the
factor is N!.

Construction is pure and everything here is exact and immutable.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import NamedTuple, Sequence

from .geometry import Frozen, is_int, weights

CLASS_TAGS = ("p", "cp", "g", "eb")


class LevelBound(Frozen):
    """One end of the bound on x_k, (const + x0 x_0 + t S_k + last x_{k-1}) / q,
    where S_k = sum_{1<=j<=k-2} u_j x_j is the running sum of its chain.

    The four numerators and the denominator q > 0 are ints, divided by
    their gcd, so equal ends have equal fields. Any other field (a
    Fraction, a float or a bool) is refused, and so is q <= 0."""

    __slots__ = ("const", "x0", "t", "last", "q")
    const: int
    x0: int
    t: int
    last: int
    q: int

    def __init__(self, const, x0=0, t=0, last=0, q=1) -> None:
        if not (type(const) is type(x0) is type(t) is type(last) is type(q) is int):
            raise TypeError("an end's fields must be ints: numerators over a denominator q")
        if q <= 0:
            raise ValueError(f"an end's denominator q must be positive (got {q})")
        g = gcd(const, x0, t, last, q)
        if g != 1:
            const, x0, t, last, q = const // g, x0 // g, t // g, last // g, q // g
        # set field by field, unrolled: the chamber builders make hundreds per call
        set_field = object.__setattr__
        set_field(self, "const", const)
        set_field(self, "x0", x0)
        set_field(self, "t", t)
        set_field(self, "last", last)
        set_field(self, "q", q)


class BoundChain(Frozen):
    """An iterated-integral region: ``bounds[k]`` is the (lower, upper) pair
    of ends on x_k, over running sums of the integer weights ``u``. Level 0
    is constant, level 1 reads x_0 alone, and from level 3 on a level may
    hold S_k, which u must cover. The pairs are stored as tuples, whatever
    sequences they are given as."""

    __slots__ = ("bounds", "u", "label", "nplus1_slot")
    bounds: tuple[tuple[LevelBound, LevelBound], ...]
    u: tuple[int, ...]
    label: str
    nplus1_slot: int | None

    def __init__(self, bounds, u: Sequence[int], label: str, nplus1_slot: int | None = None):
        levels = tuple(map(tuple, bounds))
        if not levels:
            raise ValueError(f"{label}: a chain needs at least one variable")
        if not all(map(is_int, u)):
            raise ValueError(f"{label}: the running-sum weights u must be integers")
        no_sum = len(u) + 3
        for k, pair in enumerate(levels):
            if len(pair) != 2:
                raise ValueError(f"{label}: level {k} is not a (lower, upper) pair")
            lo, hi = pair
            if not (isinstance(lo, LevelBound) and isinstance(hi, LevelBound)):
                raise ValueError(f"{label}: level {k} holds an end that is not a LevelBound")
            if k < 3:
                for name in ("x0", "last", "t")[k:]:
                    if getattr(lo, name) or getattr(hi, name):
                        raise ValueError(f"{label}: level {k} cannot hold a {name} term")
            elif k >= no_sum and (lo.t or hi.t):
                raise ValueError(f"{label}: u does not cover S_{k}")
        object.__setattr__(self, "bounds", levels)
        object.__setattr__(self, "u", tuple(u))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "nplus1_slot", nplus1_slot)


class ChamberSet(NamedTuple):
    """A class region: chains, the symmetry factor relating their summed
    volume to the full eigenvalue-space volume, and identifying metadata."""

    chains: tuple[BoundChain, ...]
    symmetry_factor: int
    class_tag: str
    d: int
    N: int

    @property
    def n_vars(self) -> int:
        return len(self.chains[0].bounds)

    @property
    def ordered(self) -> bool:
        """Whether the chains live on the ordered wedge; only the box does not."""
        return self.class_tag != "p"


# --------------------------------------------------------------------------
# region builders
# --------------------------------------------------------------------------


def p_box(d: int, N: int) -> ChamberSet:
    """The necessary-positivity box: every coordinate in [-1/(d-1), 1]."""
    ends = (LevelBound(-1, q=d - 1), LevelBound(1))
    chain = BoundChain((ends,) * len(weights(d, N)), (), label="p-box")
    return ChamberSet((chain,), 1, "p", d, N)


def chambers(d: int, N: int, class_tag: str) -> ChamberSet:
    """Chambers of the cp, g or eb region on the ordered wedge, 3 <= N <= d+1.

    Sorted coordinate j carries weight w_j: 1, or d+1-N on the slot of the
    left-out eigenvalue; the weights total d+1. Level i divides by the weight
    that remains, den_i = sum_{j>=i} w_j, in the three upper bounds

        negative branch  -(1/(d-1) + sum_{j<i} w_j x_j) / den_i,
        positive branch  (1 + (d-w_0) x_0 - sum_{1<=j<i} w_j x_j) / den_i,
        eb budget        (1 - sum_{j<i} w_j x_j) / den_i,

    stored with u = w_1..w_{n-3}, so that from level 3 on the sum reads
    -(w_0 x_0 + S_i + w_{i-1} x_{i-1}). Each end is filled as integers
    straight from the weights, already in lowest terms, since its constant
    is 1 or -1: the budget is (1, -w_0, -1, -w_{i-1}) / den_i, the negative
    branch (-1, -w_0 (d-1), -(d-1), -w_{i-1} (d-1)) / ((d-1) den_i) and the
    positive branch (1, d-w_0, -1, -w_{i-1}) / den_i, less the terms a level
    cannot hold. A class builds only the ends it reads: cp the two branches,
    g the positive one and eb the budget.

    When the left-out weight is 1 (N in {d, d+1}) the coordinates are
    exchangeable: no slot is enumerated and the symmetry factor is n!.
    Otherwise every chain is repeated for each slot, slot-major, and the
    factor is N!.
    """
    if class_tag not in ("cp", "g", "eb"):
        raise ValueError(f"no chambers for class {class_tag!r}")
    coord_weights = weights(d, N)
    n, w_out = len(coord_weights), coord_weights[-1]
    # (branch-switch level M, label) per cp chain, in output order
    if w_out == 1:
        slots: Sequence[int | None] = (None,)
        cp_levels = [(n, "cp:sys1")]
        cp_levels += [(m, f"cp:sys2:M={m}") for m in range(2, n)]
        cp_levels.append((1, "cp:sys3"))
        single_label = class_tag
    else:
        slots = range(n)
        cp_levels = [(m, f"cp-n{N}:sys{k}") for k, m in enumerate((1, *range(n, 1, -1)), 1)]
        single_label = f"{class_tag}-n{N}"
    slot_names = ("min", *(f"mid{k}" for k in range(1, n - 1)), "max")
    floor = LevelBound(-1, q=d - 1) if class_tag == "cp" else LevelBound(0)
    # the ordering bounds x_{k-1} <= x_k, with x_0 read as x0 at level 1
    below = [floor, LevelBound(0, x0=1)] + [LevelBound(0, last=1)] * (n - 2)
    chains: list[BoundChain] = []
    for slot in slots:
        w = [w_out if j == slot else 1 for j in range(n)]
        u = w[1 : n - 2]
        # the negative branch, and the positive branch or for eb the budget
        neg, upper = [], []
        for i in range(n):
            den = sum(w[i:])
            # the budget's numerators: -sum_{j<i} w_j x_j as x0, t and last
            x0 = -w[0] if i else 0
            t = -1 if i >= 3 else 0
            last = -w[i - 1] if i >= 2 else 0
            if class_tag == "eb":
                upper.append(LevelBound(1, x0, t, last, den))
            else:
                upper.append(LevelBound(1, d + x0, t, last, den) if i else LevelBound(1))
            if class_tag == "cp":
                # -(1/(d-1) + sum_{j<i} w_j x_j) / den_i, over (d-1) den_i
                c = d - 1
                neg.append(LevelBound(-1, c * x0, c * t, c * last, c * den))
        at = "" if slot is None else f":slot={slot_names[slot]}"
        if class_tag == "cp":
            for m, label in cp_levels:
                levels = tuple(
                    (below[i], neg[i]) if i + 1 < m
                    else (neg[i], upper[i]) if i + 1 == m
                    else (below[i], upper[i])
                    for i in range(n)
                )
                chains.append(BoundChain(levels, u, label + at, slot))
        else:
            chains.append(BoundChain(tuple(zip(below, upper)), u, single_label + at, slot))
    return ChamberSet(tuple(chains), factorial(n if w_out == 1 else N), class_tag, d, N)
