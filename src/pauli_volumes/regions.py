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

Construction is pure and everything here is immutable. Membership helpers
are provided for Monte Carlo cross-checks; they never feed the exact
integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Sequence

import numpy as np

from .geometry import weights

CLASS_TAGS = ("p", "cp", "g", "eb")


@dataclass(frozen=True)
class AffineExpr:
    """const + sum_j coeffs[j] * x_j, referencing variables 0..len(coeffs)-1."""

    const: Fraction
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "const", Fraction(self.const))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        out = self.const
        for c, v in zip(self.coeffs, values):
            out += c * v
        return out

    @cached_property
    def _float_view(self) -> tuple[float, np.ndarray]:
        return float(self.const), np.array([float(c) for c in self.coeffs])

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation over rows of ``pts``."""
        const, coeffs = self._float_view
        out = np.full(pts.shape[0], const)
        if coeffs.size:
            out = out + pts[:, : coeffs.size] @ coeffs
        return out

    def scaled(self, s: Fraction) -> "AffineExpr":
        """The bound after dilating all variables by s (constant scales, slopes stay)."""
        return AffineExpr(self.const * s, self.coeffs)


@dataclass(frozen=True)
class BoundChain:
    """An iterated-integral region; ``bounds[i]`` is the (lower, upper) pair
    for variable i and may reference variables 0..i-1 only."""

    n_vars: int
    bounds: tuple[tuple[AffineExpr, AffineExpr], ...]
    label: str
    nplus1_slot: int | None = None

    def __post_init__(self) -> None:
        if len(self.bounds) != self.n_vars:
            raise ValueError(f"{self.label}: {len(self.bounds)} bounds for {self.n_vars} vars")
        for i, (lo, hi) in enumerate(self.bounds):
            if len(lo.coeffs) > i or len(hi.coeffs) > i:
                raise ValueError(
                    f"{self.label}: bound {i} references later variables"
                )
        if self.nplus1_slot is not None and not 0 <= self.nplus1_slot < self.n_vars:
            raise ValueError(f"{self.label}: slot {self.nplus1_slot} out of range")

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership of an (ordered) point."""
        for i, (lo, hi) in enumerate(self.bounds):
            if not lo.evaluate(point) <= point[i] <= hi.evaluate(point):
                return False
        return True

    def scaled(self, s: Fraction) -> "BoundChain":
        """The chain for variables dilated by s > 0 (volume scales by s^n)."""
        if s <= 0:
            raise ValueError("scale must be positive")
        return BoundChain(
            self.n_vars,
            tuple((lo.scaled(s), hi.scaled(s)) for lo, hi in self.bounds),
            label=f"{self.label}*{s}",
            nplus1_slot=self.nplus1_slot,
        )


@dataclass(frozen=True)
class ChamberSet:
    """A class region: chains, the symmetry factor relating their summed
    volume to the full eigenvalue-space volume, and identifying metadata."""

    chains: tuple[BoundChain, ...]
    symmetry_factor: int
    class_tag: str
    d: int
    N: int
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        if not self.chains:
            raise ValueError("a chamber set needs at least one chain")
        n = self.chains[0].n_vars
        if any(ch.n_vars != n for ch in self.chains):
            raise ValueError("all chains must share the variable count")
        if self.symmetry_factor < 1:
            raise ValueError("symmetry factor must be >= 1")

    @property
    def n_vars(self) -> int:
        return self.chains[0].n_vars

    def membership_counts(
        self, pts: np.ndarray, margin: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """How many chains contain each raw eigenvalue sample.

        Rows of ``pts`` are unsorted eigenvalue vectors in the chain's
        coordinate count. Ordered sets are sorted per row first; chains that
        pin the lambda_{N+1} slot only see samples whose sorted rank of the
        last coordinate matches. Returns (counts, near) where ``near`` flags
        samples within ``margin`` of any bound surface or sorting tie; their
        counts are unreliable and callers should skip them.
        """
        pts = np.asarray(pts, dtype=float)
        n_samples = pts.shape[0]
        counts = np.zeros(n_samples, dtype=int)
        near = np.zeros(n_samples, dtype=bool)
        if self.ordered:
            mu = np.sort(pts, axis=1)
            if margin:
                near |= np.any(np.diff(mu, axis=1) <= margin, axis=1)
            slot = np.sum(pts[:, :-1] < pts[:, -1:], axis=1)
        else:
            mu = pts
            slot = None
        for chain in self.chains:
            scope = np.ones(n_samples, dtype=bool)
            if slot is not None and chain.nplus1_slot is not None:
                scope = slot == chain.nplus1_slot
            inside = scope.copy()
            for i, (lo, hi) in enumerate(chain.bounds):
                lo_v = lo.evaluate_batch(mu)
                hi_v = hi.evaluate_batch(mu)
                x = mu[:, i]
                inside &= (x >= lo_v) & (x <= hi_v)
                if margin:
                    near |= scope & (
                        (np.abs(x - lo_v) <= margin) | (np.abs(x - hi_v) <= margin)
                    )
            counts += inside
        return counts, near


# --------------------------------------------------------------------------
# region builders
# --------------------------------------------------------------------------


def _const(value: Fraction | int) -> AffineExpr:
    return AffineExpr(Fraction(value))


def _prev_var(i: int) -> AffineExpr:
    """The ordering bound x_{i-1} <= x_i."""
    return AffineExpr(Fraction(0), (Fraction(0),) * (i - 1) + (Fraction(1),))


def p_box(d: int, N: int) -> ChamberSet:
    """The necessary-positivity box: every coordinate in [-1/(d-1), 1]."""
    n = len(weights(d, N))
    lo, hi = _const(Fraction(-1, d - 1)), _const(1)
    chain = BoundChain(n, ((lo, hi),) * n, label="p-box")
    return ChamberSet((chain,), 1, "p", d, N, ordered=False)


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
    floor = _const(Fraction(-1, d - 1) if class_tag == "cp" else 0)
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
            pos.append(AffineExpr(Fraction(1, den), head) if i else _const(1))
        at = "" if slot is None else f":slot={slot_names[slot]}"
        if class_tag == "cp":
            for m, label in cp_levels:
                bounds = tuple(
                    (below[i], neg[i]) if i + 1 < m
                    else (neg[i], pos[i]) if i + 1 == m
                    else (below[i], pos[i])
                    for i in range(n)
                )
                chains.append(BoundChain(n, bounds, label + at, slot))
        else:
            upper = pos if class_tag == "g" else eb
            chains.append(BoundChain(n, tuple(zip(below, upper)), single_label + at, slot))
    return ChamberSet(tuple(chains), factorial(n if w_out == 1 else N), class_tag, d, N)
