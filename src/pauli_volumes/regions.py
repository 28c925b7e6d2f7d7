"""Integration regions for the channel-class volumes.

Every class volume in this package is an integral over a finite list of
*bound chains*: iterated-integral regions

    lo_0 <= x_0 <= hi_0,  lo_1(x_0) <= x_1 <= hi_1(x_0),  ...

whose bounds are affine in the earlier variables only. Chains come in two
flavors:

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

from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

from .geometry import read_only, weights

CLASS_TAGS = ("p", "cp", "g", "eb")


def _exact(v) -> Fraction:
    """v as a Fraction: a Fraction is kept as it is, and a float is refused."""
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TypeError("floating-point bound rejected; pass exact values")
    return Fraction(v)


class AffineExpr:
    """const + sum_j coeffs[j] * x_j, referencing variables 0..len(coeffs)-1."""

    __slots__ = ("const", "coeffs")
    const: Fraction
    coeffs: tuple[Fraction, ...]

    def __init__(self, const: Fraction, coeffs: Sequence[Fraction] = ()) -> None:
        object.__setattr__(self, "const", _exact(const))
        object.__setattr__(self, "coeffs", tuple(map(_exact, coeffs)))

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other) -> bool:
        if type(other) is not AffineExpr:
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.const, self.coeffs))

    def __repr__(self) -> str:
        return f"AffineExpr(const={self.const!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return AffineExpr, (self.const, self.coeffs)


class BoundChain:
    """An iterated-integral region; ``bounds[i]`` is the (lower, upper) pair
    for variable i and may reference variables 0..i-1 only."""

    __slots__ = ("bounds", "label", "nplus1_slot")
    bounds: tuple[tuple[AffineExpr, AffineExpr], ...]
    label: str
    nplus1_slot: int | None

    def __init__(
        self,
        bounds: tuple[tuple[AffineExpr, AffineExpr], ...],
        label: str,
        nplus1_slot: int | None = None,
    ) -> None:
        if not bounds:
            raise ValueError(f"{label}: a chain needs at least one variable")
        for i, (lo, hi) in enumerate(bounds):
            if len(lo.coeffs) > i or len(hi.coeffs) > i:
                raise ValueError(f"{label}: bound {i} references later variables")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "nplus1_slot", nplus1_slot)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other) -> bool:
        if type(other) is not BoundChain:
            return NotImplemented
        return (self.bounds, self.label, self.nplus1_slot) == (
            other.bounds, other.label, other.nplus1_slot
        )

    def __hash__(self) -> int:
        return hash((self.bounds, self.label, self.nplus1_slot))

    def __repr__(self) -> str:
        return (
            f"BoundChain(bounds={self.bounds!r}, label={self.label!r}, "
            f"nplus1_slot={self.nplus1_slot!r})"
        )

    def __reduce__(self):
        return BoundChain, (self.bounds, self.label, self.nplus1_slot)


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


def _prev_var(i: int) -> AffineExpr:
    """The ordering bound x_{i-1} <= x_i."""
    return AffineExpr(Fraction(0), (Fraction(0),) * (i - 1) + (Fraction(1),))


def p_box(d: int, N: int) -> ChamberSet:
    """The necessary-positivity box: every coordinate in [-1/(d-1), 1]."""
    n = len(weights(d, N))
    lo, hi = AffineExpr(Fraction(-1, d - 1)), AffineExpr(1)
    chain = BoundChain(((lo, hi),) * n, label="p-box")
    return ChamberSet((chain,), 1, "p", d, N)


def chambers(d: int, N: int, class_tag: str) -> ChamberSet:
    """Chambers of the cp, g or eb region on the ordered wedge, 3 <= N <= d+1.

    Sorted coordinate j carries weight w_j: 1, or d+1-N on the slot of the
    left-out eigenvalue; the weights total d+1. Level i divides by the weight
    that remains, den_i = sum_{j>=i} w_j, in the three upper bounds

        negative branch  -(1/(d-1) + sum_{j<i} w_j x_j) / den_i,
        positive branch  (1 + (d-w_0) x_0 - sum_{1<=j<i} w_j x_j) / den_i,
        eb budget        (1 - sum_{j<i} w_j x_j) / den_i.

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
    floor = AffineExpr(Fraction(-1, d - 1) if class_tag == "cp" else 0)
    below = [floor] + [_prev_var(i) for i in range(1, n)]
    chains: list[BoundChain] = []
    for slot in slots:
        w = [w_out if j == slot else 1 for j in range(n)]
        neg, pos, eb = [], [], []
        for i in range(n):
            den = sum(w[i:])
            tail = tuple(Fraction(-w[j], den) for j in range(i))
            neg.append(AffineExpr(Fraction(-1, (d - 1) * den), tail))
            eb.append(AffineExpr(Fraction(1, den), tail))
            head = (Fraction(d - w[0], den),) + tail[1:]
            pos.append(AffineExpr(Fraction(1, den), head) if i else AffineExpr(1))
        at = "" if slot is None else f":slot={slot_names[slot]}"
        if class_tag == "cp":
            for m, label in cp_levels:
                bounds = tuple(
                    (below[i], neg[i]) if i + 1 < m
                    else (neg[i], pos[i]) if i + 1 == m
                    else (below[i], pos[i])
                    for i in range(n)
                )
                chains.append(BoundChain(bounds, label + at, slot))
        else:
            upper = pos if class_tag == "g" else eb
            chains.append(BoundChain(tuple(zip(below, upper)), single_label + at, slot))
    return ChamberSet(tuple(chains), factorial(n if w_out == 1 else N), class_tag, d, N)
