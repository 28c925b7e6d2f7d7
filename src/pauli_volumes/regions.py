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

:func:`cp_total_chains` gives what the class totals of cp, g and eb read,
from one build of g's per-slot level pairs. Per slot, the sum of cp's
chambers is the all-positive chain less the all-negative one, and eb's
chamber and that all-negative chain are weighted simplices, one a scaled
copy of the other. So it returns the all-positive chains, g's chambers
and the summed volume of eb's simplices. It and :func:`chambers` read the
same per-slot level pairs.

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

from math import factorial, gcd, lcm
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
        # set through each slot's own __set__, unrolled: the chamber builders
        # make hundreds per call
        _set_const(self, const)
        _set_x0(self, x0)
        _set_t(self, t)
        _set_last(self, last)
        _set_q(self, q)


_set_const, _set_x0, _set_t, _set_last, _set_q = (
    getattr(LevelBound, name).__set__ for name in LevelBound.__slots__
)


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
            # level 0 holds no x0, levels 0 and 1 no last, and levels 0-2 no t
            if k < 3 and (
                lo.t or hi.t or k < 2 and (lo.last or hi.last or not k and (lo.x0 or hi.x0))
            ):
                name = next(n for n in ("x0", "last", "t")[k:] if getattr(lo, n) or getattr(hi, n))
                raise ValueError(f"{label}: level {k} cannot hold a {name} term")
            if k >= no_sum and (lo.t or hi.t):
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


def _slot_pairs(d: int, N: int, class_tag: str) -> tuple[int, list[tuple]]:
    """The symmetry factor, and per slot of the left-out eigenvalue
    (slot, label suffix, u, dens, low, switch, high): the chain weights u,
    the product dens of the remaining weights den_i over the levels and, per
    level i, the pairs below, at and above the cp switch, (below, neg),
    (neg, upper) and (below, upper), with the ends :func:`chambers`
    describes. g and eb build no negative branch, so their low and switch
    pairs hold None. When the left-out weight is 1 the one slot is None.
    """
    coord_weights = weights(d, N)
    n, w_out = len(coord_weights), coord_weights[-1]
    slot_names = ("min", *(f"mid{k}" for k in range(1, n - 1)), "max")
    floor = LevelBound(-1, q=d - 1) if class_tag == "cp" else LevelBound(0)
    # the ordering bounds x_{k-1} <= x_k, with x_0 read as x0 at level 1
    below = [floor, LevelBound(0, x0=1)] + [LevelBound(0, last=1)] * (n - 2)
    c = d - 1
    slots = []
    for slot in (None,) if w_out == 1 else range(n):
        w = [w_out if j == slot else 1 for j in range(n)]
        sides = []
        dens = 1
        den = d + 1  # the weight that remains at level i, sum_{j>=i} w_j
        for i in range(n):
            # the budget's numerators: -sum_{j<i} w_j x_j as x0, t and last
            x0 = -w[0] if i else 0
            t = -1 if i >= 3 else 0
            last = -w[i - 1] if i >= 2 else 0
            if class_tag == "eb":
                upper = LevelBound(1, x0, t, last, den)
            else:
                upper = LevelBound(1, d + x0, t, last, den) if i else LevelBound(1)
            neg = None
            if class_tag == "cp":
                # -(1/(d-1) + sum_{j<i} w_j x_j) / den_i, over (d-1) den_i
                neg = LevelBound(-1, c * x0, c * t, c * last, c * den)
            sides.append(((below[i], neg), (neg, upper), (below[i], upper)))
            dens *= den
            den -= w[i]
        at = "" if slot is None else f":slot={slot_names[slot]}"
        slots.append((slot, at, w[1 : n - 2], dens, *zip(*sides)))
    return factorial(n if w_out == 1 else N), slots


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

    The cp chamber of switch level M runs on the negative branch at levels
    0..M-2, from the negative to the positive branch at level M-1, and on
    the positive branch from level M on; g and eb have one chamber per slot.
    When the left-out weight is 1 (N in {d, d+1}) the coordinates are
    exchangeable: no slot is enumerated and the symmetry factor is n!.
    Otherwise every chain is repeated for each slot, slot-major, and the
    factor is N!.
    """
    if class_tag not in ("cp", "g", "eb"):
        raise ValueError(f"no chambers for class {class_tag!r}")
    factor, slots = _slot_pairs(d, N, class_tag)
    if class_tag != "cp":
        return ChamberSet(_one_per_slot(N, class_tag, slots), factor, class_tag, d, N)
    n = len(slots[0][-1])  # levels per chain
    # (branch-switch level M, label) per cp chain, in output order
    if slots[0][0] is None:  # one slot, None: the left-out weight is 1
        cp_levels = [(n, "cp:sys1")]
        cp_levels += [(m, f"cp:sys2:M={m}") for m in range(2, n)]
        cp_levels.append((1, "cp:sys3"))
    else:
        cp_levels = [(m, f"cp-n{N}:sys{k}") for k, m in enumerate((1, *range(n, 1, -1)), 1)]
    chains = [
        BoundChain((*low[: m - 1], switch[m - 1], *high[m:]), u, label + at, slot)
        for slot, at, u, _, low, switch, high in slots
        for m, label in cp_levels
    ]
    return ChamberSet(tuple(chains), factor, class_tag, d, N)


def _one_per_slot(N: int, class_tag: str, slots: list[tuple]) -> tuple[BoundChain, ...]:
    """g's or eb's chains: per slot, its (below, upper) pairs at every level."""
    name = class_tag if slots[0][0] is None else f"{class_tag}-n{N}"
    return tuple(BoundChain(high, u, name + at, slot) for slot, at, u, *_, high in slots)


def cp_total_chains(d: int, N: int) -> tuple[ChamberSet, ChamberSet, tuple[int, int]]:
    """The chains and the closed form behind the class totals of cp, g and
    eb, from one build of g's level pairs: cp's all-positive chains, g's
    chambers, and the summed volume of the slots' weighted simplices
    {x sorted, x_0 >= 0, sum_j w_j x_j <= 1}, as an integer numerator and
    denominator. That number is eb's summed chamber volume, and c^n times
    it, c = d/(d-1), is the volume cp's total subtracts from the summed
    volume of its chains; each total is then taken times the symmetry
    factor of the chambers, which both chain sets carry.

    Per slot, let X_j run on the negative branch, (below, neg), at levels
    0..j-1 and on the positive one, (below, upper), from level j on. The
    chamber of switch level M (see :func:`chambers`) agrees with X_{M-1}
    and X_M everywhere but at level M-1, where it integrates from neg to
    upper. For any integrand, the signed integral from neg to upper is the
    one from below to upper less the one from below to neg, and the outer
    levels are the same, so chamber M is X_{M-1} - X_M as signed iterated
    integrals. Summed over M = 1..n this telescopes to X_0 - X_n: all
    positive branch on cp's floor, less all negative branch. It is a set
    identity too, since the all-negative region lies inside the
    all-positive one. The first chains are the X_0: the g chains with cp's
    floor at level 0, so no negative branch is built, and over one table g
    integrates no level of its own.

    The simplex lemma. Take a slot's chain with floor a and budget
    b + beta x_0, beta in {0, d}: level 0 runs from a to b / (d+1-beta), and
    level i >= 1 bounds x_i below by x_{i-1} and above by
    (b + beta x_0 - sum_{j<i} w_j x_j) / den_i, with den_i = sum_{j>=i} w_j,
    so den_0 = d+1. g's chamber has a = 0, b = 1, beta = d, and X_0 the same
    with a = -1/(d-1): both run the positive branch. eb's chamber has a = 0,
    b = 1, beta = 0, and X_n a = b = -1/(d-1), beta = 0. The innermost bound
    reads sum_j w_j x_j <= b + beta x_0, and on sorted x,
    den_i x_i <= sum_{j>=i} w_j x_j, so every outer bound follows from it:
    the chain is {x sorted, x_0 >= a, sum_j w_j x_j <= b + beta x_0}. No
    level is empty, since den_{i-1} = w_{i-1} + den_i puts x_{i-1} below
    level i's upper end whenever it lies below its own, so the signed
    integral is the volume. The increments z_0 = x_0 - a,
    z_i = x_i - x_{i-1} are a map of determinant 1, with
    x_j = a + z_0 + ... + z_j; as the weights total d+1,
    sum_j w_j x_j = (d+1) a + sum_i den_i z_i, so the chain maps onto

        {z >= 0, (d+1-beta) z_0 + sum_{i>=1} den_i z_i <= r},
        r = b - (d+1-beta) a,

    of volume r^n / (n! (d+1-beta) prod_{i>=1} den_i). With
    E = 1 / (n! prod_{i>=0} den_i) and c = d/(d-1), that is E for eb's
    chamber (r = 1), c^n E for X_n (r = c), (d+1) E for g's chamber (r = 1)
    and (d+1) c^n E for X_0 (r = c). So per slot cp is X_0 - X_n = d c^n E,
    and g/cp = (d+1) / (d c^n) and eb/g = 1/(d+1) hold slot by slot, at
    every (d, N). Summed over the slots and times the symmetry factor F, cp
    is d c^n F sum_slots E, and the box p is c^n. Over the orderings sigma
    of n positive weights, sum_sigma prod_i 1 / (w_sigma(i) + ... +
    w_sigma(n)) = 1 / prod_j w_j: split the integral of e^(-w.z) over
    z >= 0 into the cones of each ordering. The N unit weights are
    exchangeable, so the orderings group into the slots, F of them to a
    slot, and F n! sum_slots E = 1/W for W the product of the weights. So
    cp/p = d / (n! W): every closed form of
    :func:`..volume.closed_form_ratios` holds at every (d, N).
    """
    factor, slots = _slot_pairs(d, N, "g")
    n = len(slots[0][-1])
    added = tuple(
        BoundChain(((LevelBound(-1, q=d - 1), high[0][1]), *high[1:]), u, f"cp:X0{at}", slot)
        for slot, at, u, *_, high in slots
    )
    g = _one_per_slot(N, "g", slots)
    # the slots' 1 / (n! dens), over one common denominator
    dens = [entry[3] for entry in slots]
    common = lcm(*dens)
    simplices = sum(common // p for p in dens), factorial(n) * common
    return (
        ChamberSet(added, factor, "cp", d, N), ChamberSet(g, factor, "g", d, N), simplices
    )
