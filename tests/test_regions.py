"""Chamber decompositions: construction, well-formedness, membership."""

import ast
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest

import pauli_volumes
from pauli_volumes import cli
from pauli_volumes.channel import (
    ChannelSpec,
    is_cp,
    is_eb_necessary,
    is_generator_achievable,
)
from pauli_volumes.geometry import Frozen, SurdValue, weights
from pauli_volumes.regions import (
    BoundChain,
    LevelBound,
    _slot_pairs,
    chambers,
    cp_total_chains,
    p_box,
)
from pauli_volumes.volume import (
    _class_mask,
    check_conjectures,
    class_volume,
    integrate_chain,
    region_for,
    supported_n_values,
)


def _at_end(end, k, u, x):
    """A stored end read from its definition, (const + x0 x_0 + t S_k +
    last x_{k-1}) / q with S_k = sum_{1<=j<=k-2} u_j x_j, at the point x:
    at least k exact values, or float columns. Level 0 reads no variable."""
    if not k:
        return Fraction(end.const, end.q)
    s = sum(w * v for w, v in zip(u, x[1 : k - 1]))
    return (end.const + end.x0 * x[0] + end.t * s + end.last * x[k - 1]) / end.q


def _chain_counts(chains, pts, margin=1e-9):
    """Float oracle for the ordered chambers: how many chains contain each
    raw eigenvalue sample. Rows are sorted first, and a chain that pins the
    lambda_{N+1} slot only sees rows whose last coordinate has that sorted
    rank. Also returns the rows within margin of a bound surface or a
    sorting tie, whose counts are unreliable."""
    mu = np.sort(pts, axis=1)
    cols = list(mu.T)
    slot = np.sum(pts[:, :-1] < pts[:, -1:], axis=1)
    near = np.any(np.diff(mu, axis=1) <= margin, axis=1)
    counts = np.zeros(len(pts), dtype=int)
    for ch in chains:
        scope = np.ones_like(near) if ch.nplus1_slot is None else slot == ch.nplus1_slot
        inside = scope.copy()
        for i, pair in enumerate(ch.bounds):
            x = cols[i]
            lo, hi = (np.asarray(_at_end(e, i, ch.u, cols), float) for e in pair)
            inside &= (lo <= x) & (x <= hi)
            near |= scope & ((abs(x - lo) <= margin) | (abs(x - hi) <= margin))
        counts += inside
    return counts, near


def test_bound_chain_rejects_terms_a_level_cannot_hold():
    """Level 0 is constant, level 1 reads x_0 alone, a running sum starts at
    level 3, and u must have a weight for every x_j in S_k."""
    box = (LevelBound(0), LevelBound(1))
    bad_levels = [
        ((LevelBound(0), LevelBound(0, x0=1)),),
        (box, (LevelBound(0), LevelBound(0, last=1))),
        (box, box, (LevelBound(0), LevelBound(0, t=1))),
    ]
    for levels, term in zip(bad_levels, ("x0", "last", "t")):
        with pytest.raises(ValueError, match=f"level {len(levels) - 1} cannot hold a {term} term"):
            BoundChain(levels, (1, 1), label="bad")
    deep = (box, box, box, box, (LevelBound(0), LevelBound(1, t=-1)))
    with pytest.raises(ValueError, match="u does not cover S_4"):
        BoundChain(deep, (1,), label="short")
    for u in ((1, Fraction(1, 2)), (1, True)):
        with pytest.raises(ValueError, match="integers"):
            BoundChain(deep, u, label="rational")
    assert BoundChain(deep, (1, 2), label="ok").bounds[4][1] == LevelBound(1, t=-1)
    # the box states no running sum: its levels have none to cover
    assert BoundChain((box,) * 5, (), label="box").u == ()


def test_bound_chain_checks_each_level_of_a_shared_pair():
    """A level's check reads the level, not the pair object: one pair that
    level 2 may hold, and level 1 may not, is refused at level 1 of a chain
    that also holds it at level 2, and of a chain built after one that
    holds it at level 2 only."""
    box = (LevelBound(0), LevelBound(1))
    pair = (LevelBound(0), LevelBound(0, last=1))
    assert BoundChain((box, box, pair), (), label="ok").bounds[2] is pair
    for levels in ((box, pair, pair), (box, pair, box)):
        with pytest.raises(ValueError, match="level 1 cannot hold a last term"):
            BoundChain(levels, (), label="shared")


def test_bound_chain_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="empty"):
        BoundChain((), (), label="empty")


def test_bound_chain_rejects_a_level_that_is_not_a_pair_of_ends():
    """Each level is a (lower, upper) pair of LevelBounds; anything else is
    refused when the chain is built, not later by the integrator."""
    box = (LevelBound(0), LevelBound(1))
    with pytest.raises(ValueError, match="x: level 0 is not a .lower, upper. pair"):
        BoundChain([[LevelBound(0)], [LevelBound(0), LevelBound(1), LevelBound(2)]], (), label="x")
    with pytest.raises(ValueError, match="x: level 4 is not a .lower, upper. pair"):
        BoundChain((box,) * 4 + ((*box, LevelBound(2)),), (1, 1), label="x")
    with pytest.raises(ValueError, match="x: level 3 holds an end that is not a LevelBound"):
        BoundChain((box,) * 3 + ((LevelBound(0), Fraction(1)),), (1,), label="x")


def test_bound_chain_stores_its_pairs_as_tuples():
    """A chain given its levels as lists equals, and hashes as, the same
    chain given them as tuples: it keeps no mutable sequence."""
    ends = [LevelBound(0), LevelBound(1)]
    listed = BoundChain([list(ends), list(ends)], [], label="x")
    tupled = BoundChain((tuple(ends), tuple(ends)), (), label="x")
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.bounds) is tuple and all(type(pair) is tuple for pair in listed.bounds)


def test_level_bound_takes_int_numerators_in_lowest_terms():
    """LevelBound takes ints only, four numerators over q > 0, and divides
    them by their gcd, so equal ends have equal fields. A Fraction, a float
    or a bool is refused in every field, and so is q <= 0."""
    given = LevelBound(3, 6, -2, 12, 6)
    assert (given.const, given.x0, given.t, given.last, given.q) == (3, 6, -2, 12, 6)
    reduced = LevelBound(2, -4, 0, 6, 4)
    assert (reduced.const, reduced.x0, reduced.t, reduced.last, reduced.q) == (1, -2, 0, 3, 2)
    assert reduced == LevelBound(1, -2, 0, 3, 2)
    assert LevelBound(0, q=5) == LevelBound(0)
    for bad in (Fraction(1, 2), Fraction(1), 0.5, True):
        for field in ("x0", "t", "last", "q"):
            with pytest.raises(TypeError, match="must be ints"):
                LevelBound(1, **{field: bad})
        with pytest.raises(TypeError, match="must be ints"):
            LevelBound(bad)
    for q in (0, -2):
        with pytest.raises(ValueError, match="denominator q must be positive"):
            LevelBound(1, q=q)


@pytest.mark.parametrize("d", range(2, 9))
def test_stored_ends_are_integers_in_lowest_terms(d):
    """Every stored end of the cp, g and eb chamber sets and of the box, at
    every 3 <= N <= d+1, holds five ints with q > 0 and no common factor,
    so equal ends have equal fields, which the integrator's table keys rely
    on. regions.py imports no fractions, so no chamber builder makes a
    rational end."""
    assert not _banned_imports(ast.walk(_module_tree("regions")), set(), {"fractions"})
    for N in range(3, d + 2):
        sets = [chambers(d, N, tag) for tag in ("cp", "g", "eb")] + [p_box(d, N)]
        for ch in (ch for cs in sets for ch in cs.chains):
            for end in (end for pair in ch.bounds for end in pair):
                fields = (end.const, end.x0, end.t, end.last, end.q)
                assert all(type(v) is int for v in fields), (ch.label, end)
                assert end.q > 0 and gcd(*fields) == 1, (ch.label, end)


_FROZEN_VALUES = [
    pytest.param(lambda: SurdValue(Fraction(1), 8), "coeff", id="SurdValue"),
    pytest.param(lambda: LevelBound(3, 6, -2, 12, 6), "t", id="LevelBound"),
    pytest.param(lambda: LevelBound(-1, -6, -3, -6, 12), "q", id="LevelBound-over-q"),
    pytest.param(lambda: chambers(3, 4, "cp").chains[1], "label", id="BoundChain"),
    pytest.param(lambda: ChannelSpec.make(3, 4, ["1/2", 0, "-1/4", 0]), "lambdas",
                 id="ChannelSpec"),
]


@pytest.mark.parametrize(
    "make, field",
    [
        *_FROZEN_VALUES,
        pytest.param(lambda: class_volume(3, 4, "g"), "hs_volume", id="VolumeResult"),
        pytest.param(lambda: chambers(3, 4, "eb"), "chains", id="ChamberSet"),
        pytest.param(lambda: check_conjectures([3]).entries[0], "computed",
                     id="ConjectureEntry"),
    ],
)
def test_value_classes_are_immutable_values(make, field):
    """Two separately built equal values compare and hash equal and survive
    a pickle round trip; no field can be assigned or deleted."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize("make, field", _FROZEN_VALUES)
def test_frozen_values_are_type_strict_and_print_their_fields(make, field):
    """A Frozen value equals only a value of its own class, not the tuple of
    its fields nor another Frozen class with the same fields, and its repr
    is Name(field=value, ...) in slot order, which rebuilds an equal value."""
    a = make()
    cls = type(a)
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert a != fields and fields != a
    twin = object.__new__(type("Twin", (Frozen,), {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(twin, name, value)
    assert a != twin and twin != a
    text = repr(a)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, fields))
    assert text == f"{cls.__name__}({body})"
    names = {"Fraction": Fraction, "LevelBound": LevelBound}
    names[cls.__name__] = cls
    assert eval(text, names) == a


def test_p_box_coordinate_counts():
    assert p_box(2, 3).n_vars == 3
    assert p_box(3, 4).n_vars == 4
    assert p_box(5, 3).n_vars == 4  # body plus the shared left-out coordinate
    assert p_box(5, 5).n_vars == 6
    box = p_box(4, 5)
    assert box.chains[0].bounds[2] == (LevelBound(-1, q=3), LevelBound(1))
    assert not box.ordered and box.symmetry_factor == 1


@pytest.mark.parametrize("d", range(2, 9))
def test_full_family_chamber_inventory(d):
    cp = chambers(d, d + 1, "cp")
    assert len(cp.chains) == d + 1
    assert cp.symmetry_factor == factorial(d + 1)
    labels = [ch.label for ch in cp.chains]
    assert labels[0] == "cp:sys1" and labels[-1] == "cp:sys3"
    assert labels[1:-1] == [f"cp:sys2:M={m}" for m in range(2, d + 1)]
    g, eb = chambers(d, d + 1, "g"), chambers(d, d + 1, "eb")
    assert len(g.chains) == 1
    assert len(eb.chains) == 1
    for cs in (cp, g, eb):
        for ch in cs.chains:
            assert len(ch.bounds) == d + 1
            for end in ch.bounds[0]:  # outer bounds constant
                assert not (end.x0 or end.t or end.last)


def _expected_inventory(d, N, tag):
    """(labels, slots, symmetry factor) of one chamber set, from the label
    schemes alone: N in {d, d+1} has no slots, N = 3 < d enumerates four."""
    if N >= d:
        n = d + 1
        if tag == "cp":
            labels = ["cp:sys1", *(f"cp:sys2:M={m}" for m in range(2, n)), "cp:sys3"]
        else:
            labels = [tag]
        return labels, [None] * len(labels), factorial(n)
    per_slot = [f"sys{k}:" for k in range(1, 5)] if tag == "cp" else [""]
    labels, slots = [], []
    for slot, name in enumerate(("min", "mid1", "mid2", "max")):
        labels += [f"{tag}-n3:{sys}slot={name}" for sys in per_slot]
        slots += [slot] * len(per_slot)
    return labels, slots, factorial(3)


@pytest.mark.parametrize("d", range(2, 9))
def test_chamber_inventory_at_every_supported_basis_count(d):
    for N in supported_n_values(d):
        for tag in ("cp", "g", "eb"):
            cs = region_for(d, N, tag)
            labels, slots, factor = _expected_inventory(d, N, tag)
            assert (cs.d, cs.N, cs.class_tag, cs.ordered) == (d, N, tag, True)
            assert len(cs.chains) == len(labels)
            assert [ch.label for ch in cs.chains] == labels
            assert [ch.nplus1_slot for ch in cs.chains] == slots
            assert cs.symmetry_factor == factor


def test_three_basis_chamber_inventory():
    cp = chambers(4, 3, "cp")
    assert len(cp.chains) == 16
    assert cp.symmetry_factor == 6
    slots = {ch.nplus1_slot for ch in cp.chains}
    assert slots == {0, 1, 2, 3}
    assert len(chambers(4, 3, "g").chains) == 4
    assert len(chambers(4, 3, "eb").chains) == 4
    with pytest.raises(ValueError, match="3 <= N <= d[+]1"):
        chambers(2, 2, "cp")
    with pytest.raises(ValueError, match="3 <= N <= d[+]1"):
        chambers(4, 6, "cp")
    with pytest.raises(ValueError, match="class"):
        chambers(4, 3, "p")


@pytest.mark.parametrize("d", range(2, 13))
def test_cp_total_chains_are_the_all_positive_and_all_negative_chambers(d):
    """Per slot, cp's added chain X_0 has the g chain's levels 1..n-1 over
    cp's floor at level 0, with the slot and the symmetry factor of the
    chambers, and the second chain set is g's chambers themselves. c^n times
    the number, c = d/(d-1), is the summed volume of the X_n, each the
    chamber that switches at level n-1 (sys1) with its last level running
    from below to the negative branch, and the number itself is the summed
    volume of eb's chambers, both integrated here. At every 3 <= N <= d+1
    with d <= 12, so at every set of test_volume's _cp_chamber_sets."""
    for N in range(3, d + 2):
        added, g_set, simplices = cp_total_chains(d, N)
        cp, g = chambers(d, N, "cp"), chambers(d, N, "g")
        assert g_set == g
        n = len(g.chains[0].bounds)
        assert (added.class_tag, added.d, added.N) == ("cp", d, N)
        assert added.symmetry_factor == cp.symmetry_factor
        assert len(added.chains) == len(g.chains)
        # the chamber that switches at level n-1 runs level n-2 up to the negative branch
        sys1 = [ch for ch in cp.chains if ch.bounds[n - 2][1].const == -1]
        assert len(sys1) == len(g.chains)
        all_negative = []
        for plus, g_chain, last_switch in zip(added.chains, g.chains, sys1):
            assert plus.u == g_chain.u
            assert plus.nplus1_slot == g_chain.nplus1_slot
            assert plus.bounds[0] == (LevelBound(-1, q=d - 1), LevelBound(1))
            assert plus.bounds[1:] == g_chain.bounds[1:]
            neg = last_switch.bounds[-1][0]
            assert neg.const == -1
            levels = (*last_switch.bounds[:-1], (LevelBound(0, last=1), neg))
            all_negative.append(BoundChain(levels, last_switch.u, "cp:Xn"))
        assert all(type(v) is int and v > 0 for v in simplices)
        eb = Fraction(*simplices)
        assert eb == sum(map(integrate_chain, chambers(d, N, "eb").chains)), (d, N)
        c_n = Fraction(d, d - 1) ** n
        assert c_n * eb == sum(map(integrate_chain, all_negative)), (d, N)


def _slot_weights(d, N):
    """Per slot of _slot_pairs, the sorted coordinates' weights and the
    product of the weights that remain at each level, read off
    weights(d, N) here."""
    coord_weights = weights(d, N)
    n, w_out = len(coord_weights), coord_weights[-1]
    for slot in (None,) if w_out == 1 else range(n):
        w = [w_out if j == slot else 1 for j in range(n)]
        yield w, prod(sum(w[i:]) for i in range(n))


def test_all_negative_chain_volume_is_its_simplex_formula():
    """Each slot's all-negative chain X_n, the low pairs of _slot_pairs,
    integrates to c^n / (n! prod_i den_i), c = d/(d-1) and den_i the weight
    from coordinate i on, with the slot's weights read off weights(d, N)
    here; their sum is c^n times the number cp_total_chains returns. At
    every 3 <= N <= d+1 with d <= 12."""
    chains = 0
    for d in range(2, 13):
        for N in range(3, d + 2):
            _, slots = _slot_pairs(d, N, "cp")
            total = Fraction(0)
            for (slot, _, u, _, low, _, _), (w, dens) in zip(slots, _slot_weights(d, N)):
                n = len(w)
                volume = integrate_chain(BoundChain(low, u, "cp:Xn", slot))
                assert volume == Fraction(d, d - 1) ** n / (factorial(n) * dens), (d, N, slot)
                total += volume
                chains += 1
            c_n = Fraction(d, d - 1) ** len(weights(d, N))
            assert c_n * Fraction(*cp_total_chains(d, N)[2]) == total, (d, N)
    assert chains == 321


def test_eb_chamber_volume_is_its_simplex_formula():
    """Each slot's eb chamber, {x sorted, x_0 >= 0, sum_j w_j x_j <= 1},
    integrates to 1 / (n! prod_i den_i), with den_i the weight from
    coordinate i on and the slot's weights read off weights(d, N) here;
    their sum is the number cp_total_chains returns, which the class totals
    take as eb's. At every 3 <= N <= d+1 with d <= 12: one chain per slot,
    as many as the all-negative chains."""
    chains = 0
    for d in range(2, 13):
        for N in range(3, d + 2):
            total = Fraction(0)
            eb = chambers(d, N, "eb").chains
            slot_weights = list(_slot_weights(d, N))
            assert len(eb) == len(slot_weights), (d, N)
            for chain, (w, dens) in zip(eb, slot_weights):
                assert chain.u == tuple(w[1 : len(w) - 2])
                volume = integrate_chain(chain)
                assert volume == Fraction(1, factorial(len(w)) * dens), (d, N, chain.label)
                total += volume
                chains += 1
            assert Fraction(*cp_total_chains(d, N)[2]) == total, (d, N)
    assert chains == 321


def test_g_chamber_and_all_positive_chain_volumes_are_their_simplex_formulas():
    """The simplex lemma of cp_total_chains on the two chain sets the class
    totals still integrate: at every slot of every 3 <= N <= d+1 with
    d = 3..12, g's chamber integrates to (d+1) E and cp's all-positive
    chain X_0 to (d+1) c^n E, with E = 1 / (n! prod_i den_i) read off
    weights(d, N) here and c = d/(d-1). The N < d that class_volume refuses
    are included."""
    slots = 0
    for d in range(3, 13):
        c = Fraction(d, d - 1)
        for N in range(3, d + 2):
            added, g, _ = cp_total_chains(d, N)
            slot_weights = list(_slot_weights(d, N))
            assert len(added.chains) == len(g.chains) == len(slot_weights), (d, N)
            table = {}
            for x0, g_chain, (w, dens) in zip(added.chains, g.chains, slot_weights):
                n = len(w)
                e = Fraction(1, factorial(n) * dens)
                assert integrate_chain(g_chain, table) == (d + 1) * e, (d, N, g_chain.label)
                assert integrate_chain(x0, table) == (d + 1) * c**n * e, (d, N, x0.label)
                slots += 1
    assert slots == 320


def test_slots_group_the_orderings_of_the_weights():
    """The ordering identity behind cp/p = d / (n! W): F n! sum_slots E = 1/W,
    for F the symmetry factor, E = 1 / (n! prod_i den_i) per slot and W the
    product of the weights, in exact integers at every (d, N) with
    d <= 60, the slots and W read off weights(d, N) here. At d <= 6 the sum
    over the slots is also the sum over all n! orderings of the weights of
    the products of inverse suffix sums, F orderings to a slot."""
    cases = 0
    for d in range(2, 61):
        for N in range(3, d + 2):
            coord_weights = weights(d, N)
            n, w_out = len(coord_weights), coord_weights[-1]
            factor = factorial(n if w_out == 1 else N)
            W = prod(coord_weights)
            dens = [dens for _, dens in _slot_weights(d, N)]
            common = lcm(*dens)
            # F n! sum_slots 1 / (n! dens) = 1/W, times W * common
            assert factor * W * sum(common // p for p in dens) == common, (d, N)
            if d <= 6:
                orderings = sum(
                    Fraction(1, prod(sum(order[i:]) for i in range(n)))
                    for order in itertools.permutations(coord_weights)
                )
                assert orderings == factor * sum(Fraction(1, p) for p in dens), (d, N)
                assert orderings == Fraction(1, W), (d, N)
            cases += 1
    assert cases == sum(range(1, 60))


def test_qubit_outer_bounds():
    cp = chambers(2, 3, "cp")
    outer = [ch.bounds[0] for ch in cp.chains]
    assert outer == [
        (LevelBound(-1), LevelBound(-1, q=3)),  # branch switch at the last level
        (LevelBound(-1), LevelBound(-1, q=3)),
        (LevelBound(-1, q=3), LevelBound(1)),  # all-positive branch
    ]


def test_three_basis_level_bounds_at_d4():
    """Spot-check the weighted bounds when the left-out eigenvalue sits on top:
    at the last level the upper bound must average the remaining weight d-2."""
    eb = {ch.nplus1_slot: ch for ch in chambers(4, 3, "eb").chains}
    # (1 - x_0 - x_1 - x_2) / 2: at level 3 S_3 = u_1 x_1 = x_1
    assert eb[3].u == (1,)
    lo, hi = eb[3].bounds[3]
    assert hi == LevelBound(1, x0=-1, t=-1, last=-1, q=2)
    g = {ch.nplus1_slot: ch for ch in chambers(4, 3, "g").chains}
    lo, hi = g[3].bounds[3]
    assert hi == LevelBound(1, x0=3, t=-1, last=-1, q=2)
    # left-out eigenvalue at the bottom: its weight d-2 both shrinks the
    # remaining-weight denominator and shifts the d*lambda_min coefficient
    lo, hi = g[0].bounds[3]
    assert hi == LevelBound(1, x0=2, t=-1, last=-1)


def test_slot_determines_which_sorted_position_is_special():
    cs = chambers(4, 3, "g")
    # lambda_4 = 0.2 ranks second among (0.05, 0.3, 0.1, 0.2): slot 2
    pts = np.array([[0.05, 0.3, 0.1, 0.2]])
    counts, near = _chain_counts(cs.chains, pts)
    assert not near[0]
    by_slot = {ch.nplus1_slot: int(_chain_counts((ch,), pts)[0][0]) for ch in cs.chains}
    assert by_slot[2] == 1
    assert sum(by_slot.values()) == counts[0] == 1


@pytest.mark.parametrize(
    "d,N",
    [(2, 3), (3, 4), (3, 3), (4, 3), (4, 5), (5, 6), (5, 3), (6, 3), (5, 5)],
)
def test_chambers_agree_with_defining_inequalities(d, N):
    """10^5 box samples: away from boundaries, a point lies in the class
    region iff exactly one chamber (after sorting) contains it."""
    rng = np.random.default_rng(123)
    n = d + 1 if N == d + 1 else N + 1
    lo = -1.0 / (d - 1)
    pts = lo + (1.0 - lo) * rng.random((100_000, n))
    for tag in ("cp", "g", "eb"):
        cs = region_for(d, N, tag)
        counts, near = _chain_counts(cs.chains, pts)
        mask = _class_mask(pts, d, N, tag)
        ok = ~near
        assert np.array_equal(counts[ok] >= 1, mask[ok])
        assert counts[ok].max(initial=0) <= 1  # chambers are disjoint


# --------------------------------------------------------------------------
# exact chamber certificate: every chamber set that `chambers` builds at
# d <= 8, read against the class predicates of `channel` alone
# --------------------------------------------------------------------------

_IN_CLASS = {
    "cp": is_cp,
    "g": lambda c: is_cp(c) and is_generator_achievable(c),
    "eb": lambda c: is_generator_achievable(c) and is_eb_necessary(c),
}


def _weights(d, N):
    """Coordinate weights written out from (d, N): 1 for each used basis and
    d+1-N for the left-out eigenvalue, which is dropped when N = d+1."""
    return (1,) * (d + 1) if N == d + 1 else (1,) * N + (d + 1 - N,)


def _spec(d, N, x, slot):
    """The channel at sorted chamber coordinates x. With a slot, x[slot] is
    lambda_{N+1} and the others are lambda_1..lambda_N in order; without
    one, x is the eigenvalue vector, less the pinned zero at N = d+1."""
    if slot is not None:
        x = x[:slot] + x[slot + 1 :] + x[slot : slot + 1]
    return ChannelSpec.make(d, N, x)


def _corners(chain):
    """Every corner of a chain: lo or hi at each level, walked outward in.
    lo <= hi is checked at every corner of the levels below, so by
    induction each partial chain is the convex hull of its corners."""
    corners = {()}
    for k, (lo, hi) in enumerate(chain.bounds):
        grown = set()
        for x in corners:
            a, b = _at_end(lo, k, chain.u, x), _at_end(hi, k, chain.u, x)
            assert a <= b, f"{chain.label}: lower bound {a} above upper bound {b} at {x}"
            grown |= {x + (a,), x + (b,)}
        corners = grown
    return corners


@pytest.mark.parametrize("d", range(2, 9))
def test_every_chamber_is_the_hull_of_sorted_corners_in_its_class(d):
    """For every N in 3..d+1 and each of cp, g and eb, each chain is the
    convex hull of its corners, which are sorted and lie in the class. The
    bounds are affine and the classes convex, so no chain has a negatively
    counted part and each lies inside its class and its ordered wedge."""
    for N in range(3, d + 2):
        for tag, in_class in _IN_CLASS.items():
            for ch in chambers(d, N, tag).chains:
                for x in _corners(ch):
                    assert list(x) == sorted(x), f"{ch.label}: unsorted corner {x}"
                    spec = _spec(d, N, list(x), ch.nplus1_slot)
                    assert in_class(spec), f"{ch.label}: corner {x} outside {tag}"


@pytest.mark.parametrize("d", range(2, 13))
def test_stored_levels_agree_with_their_bounds_view(d, capsys):
    """For every supported N and each of p, cp, g and eb, each end that
    dump-regions prints lists 0 or k coefficients at level k and, at three
    exact points, evaluates to the stored end it renders. The dump is the
    one view of the stored ends; the integrator reads them as they are, and
    test_every_chain_matches_its_golden_volume pins what it gets."""
    rng = random.Random(d)
    for N in supported_n_values(d):
        mode = {d + 1: "max", d: "d", 3: "3"}[N]
        for tag in ("p", "cp", "g", "eb"):
            assert cli.main(["dump-regions", "--d", str(d), "--n-mode", mode, "--class", tag]) == 0
            dumped = json.loads(capsys.readouterr().out)["chains"]
            chains = region_for(d, N, tag).chains
            assert [c["label"] for c in dumped] == [ch.label for ch in chains]
            for ch, doc in zip(chains, dumped):
                points = [
                    [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in ch.bounds]
                    for _ in range(3)
                ]
                for k, (pair, view) in enumerate(zip(ch.bounds, doc["bounds"], strict=True)):
                    for end, expr in zip(pair, (view["lower"], view["upper"])):
                        assert len(expr["coeffs"]) in (0, k), (ch.label, k)
                        const = Fraction(expr["const"])
                        coeffs = list(map(Fraction, expr["coeffs"]))
                        for x in points:
                            at = const + sum(c * v for c, v in zip(coeffs, x))
                            assert at == _at_end(end, k, ch.u, x), (ch.label, k, x)


def _simplex_point(rng, vertices, grid=2**62):
    """An exact point of the simplex on ``vertices``, uniform on a fine
    grid: its barycentric weights are the uniform spacings of len-1 draws."""
    cuts = sorted(rng.randrange(grid + 1) for _ in vertices[1:])
    bary = [b - a for a, b in zip([0, *cuts], [*cuts, grid])]
    return [sum(b * v for b, v in zip(bary, coord)) / grid for coord in zip(*vertices)]


def _class_vertices(d, N, tag):
    """The vertices of the cp simplex (all ones, and for each i
    lambda_i = (d-w_i)/(w_i(d-1)) with the others at -1/(d-1)), or, for eb,
    those of the eb simplex (0 and e_i/w_i)."""
    w = _weights(d, N)
    if tag == "eb":
        first = base = [Fraction(0)] * len(w)
        apexes = [Fraction(1, wi) for wi in w]
    else:
        first, base = [Fraction(1)] * len(w), [Fraction(-1, d - 1)] * len(w)
        apexes = [Fraction(d - wi, wi * (d - 1)) for wi in w]
    return [first] + [[*base[:i], t, *base[i + 1 :]] for i, t in enumerate(apexes)]


@pytest.mark.parametrize("d", range(2, 9))
def test_exact_class_points_lie_in_exactly_one_chamber(d):
    """For every N in 3..d+1 and each of cp, g and eb, 20 exact random points
    of the class, sorted with the left-out eigenvalue's rank as the slot,
    each lie in exactly one chain of that slot. cp and eb points are drawn
    uniformly from their simplices, and g points are cp points rejected
    into g."""
    rng = random.Random(d)
    for N in range(3, d + 2):
        for tag, in_class in _IN_CLASS.items():
            chains = chambers(d, N, tag).chains
            vertices = _class_vertices(d, N, "eb" if tag == "eb" else "cp")
            kept = 0
            while kept < 20:
                lam = _simplex_point(rng, vertices)
                if not in_class(ChannelSpec.make(d, N, lam)):
                    assert tag == "g", f"{tag} point {lam} outside its class"
                    continue
                kept += 1
                x = sorted(lam)
                slot = None if chains[0].nplus1_slot is None else sum(v < lam[-1] for v in lam)
                holding = [
                    ch.label
                    for ch in chains
                    if ch.nplus1_slot == slot
                    and all(
                        _at_end(lo, k, ch.u, x) <= v <= _at_end(hi, k, ch.u, x)
                        for k, (v, (lo, hi)) in enumerate(zip(x, ch.bounds))
                    )
                ]
                assert len(holding) == 1, f"d={d}, N={N}, {tag} point {lam} in {holding}"


# Dyadic rows on the facets of each class, and just past them, so that every
# sum below is exact. At d = 3 (lo = -1/2) every coordinate has weight 1.
_FACET_ROWS_D3 = [
    (0.25, 0.25, 0.25, 0.25),  # s = 1
    (0.25, 0.25, 0.25, 0.375),  # s = 9/8
    (0.0, 0.5, 0.25, 0.25),  # low = 0, s = 1
    (-0.125, 0.25, 0.25, 0.25),  # s = 1 + d*low = 5/8
    (-0.125, 0.25, 0.25, 0.375),  # s = 3/4 > 1 + d*low
    (-0.5, 0.0, 0.0, 0.0),  # a coordinate at lo, s = -1/(d-1) = 1 + d*low
    (-0.25, -0.25, 0.0, 0.0),  # s = -1/(d-1)
    (-0.25, -0.25, -0.125, 0.0),  # s = -5/8
    (1.0, 0.0, 0.0, 0.0),  # a coordinate at 1, s = 1, low = 0
    (1.0, -0.5, 1.0, -0.5),  # a corner of the box
    (-0.625, 0.0, 0.0, 0.0),  # past lo
    (1.125, 0.0, 0.0, 0.0),  # past 1
]
# d = 5, N = 3 (lo = -1/4): the last coordinate is the left-out one, weight 3.
_FACET_ROWS_D5_N3 = [
    (0.25, 0.25, 0.5, 0.0),  # s = 1, low = 0
    (0.25, 0.0, 0.0, 0.25),  # s = 1 through the left-out coordinate
    (0.25, 0.0, 0.125, 0.25),  # s = 9/8
    (-0.0625, 0.25, 0.3125, 0.0625),  # s = 1 + d*low = 11/16
    (-0.0625, 0.25, 0.375, 0.0625),  # s = 3/4 > 1 + d*low
    (-0.25, 0.0, 0.0, 0.0),  # a coordinate at lo, s = -1/(d-1) = 1 + d*low
    (-0.125, -0.125, 0.0, 0.0),  # s = -1/(d-1)
    (-0.125, -0.125, -0.125, 0.0),  # s = -3/8
    (0.0, 0.0, 0.0, -0.125),  # s = -3/8 through the left-out coordinate
    (1.0, 0.0, 0.0, 0.0),  # a coordinate at 1
    (1.0, -0.25, 1.0, -0.25),  # a corner of the box
    (0.0, 0.0, 0.0, 1.125),  # past 1
    (-0.3125, 0.0, 0.0, 0.0),  # past lo
]
# d = 9, N = 10 (lo = -1/8): ten coordinates of weight 1, so S adds ten
# columns; every partial sum is exact, whatever the order of addition.
_FACET_ROWS_D9_N10 = [
    (0.0,) * 10,
    (0.125,) * 8 + (0.0, 0.0),  # s = 1, low = 0
    (0.125,) * 8 + (0.0625, 0.0),  # s = 17/16
    (0.0625,) * 9 + (1.0,),  # s = 1 + d*low = 25/16, low > 0
    (0.0625,) * 8 + (0.125, 1.0),  # s = 13/8 > 1 + d*low
    (-0.0625, 0.5) + (0.0,) * 8,  # s = 1 + d*low = 7/16
    (-0.0625, 0.5, 0.0625) + (0.0,) * 7,  # s = 1/2 > 1 + d*low
    (-0.125,) + (0.0,) * 9,  # a coordinate at lo, s = -1/(d-1) = 1 + d*low
    (-0.0625, -0.0625) + (0.0,) * 8,  # s = -1/(d-1)
    (-0.0625,) * 3 + (0.0,) * 7,  # s = -3/16
    (1.0,) + (0.0,) * 9,  # a coordinate at 1, s = 1, low = 0
    (1.0, -0.125) * 5,  # a corner of the box
    (1.125,) + (0.0,) * 9,  # past 1
    (-0.1875,) + (0.0,) * 9,  # past lo
]


def _class_by_rows(row, d, N, tag):
    """The defining inequalities of each class, written out for one row."""
    s = sum(wi * x for wi, x in zip(_weights(d, N), row))
    low = min(row)
    if tag == "cp":
        return -1 / (d - 1) <= s <= 1 + d * low
    if tag == "g":
        return low >= 0 and s <= 1 + d * low
    return low >= 0 and s <= 1


@pytest.mark.parametrize(
    "d,N,rows",
    [
        (3, 4, _FACET_ROWS_D3),
        (3, 3, _FACET_ROWS_D3),
        (5, 3, _FACET_ROWS_D5_N3),
        (9, 10, _FACET_ROWS_D9_N10),
    ],
)
@pytest.mark.parametrize("tag", ["cp", "g", "eb"])
def test_class_mask_on_facets(d, N, rows, tag):
    """Rows exactly on each facet count as inside (the inequalities are
    closed) and rows just past one count as outside."""
    expected = [_class_by_rows(row, d, N, tag) for row in rows]
    assert True in expected and False in expected
    assert _class_mask(np.array(rows), d, N, tag).tolist() == expected


@pytest.mark.parametrize("tag", ["p", "q", "EB"])
def test_class_mask_refuses_a_class_it_has_no_inequalities_for(tag):
    """The mask holds cp, g and eb only: every box draw lies in p, so p has
    no mask, and an unknown tag is refused rather than read as eb."""
    with pytest.raises(ValueError, match="no Monte Carlo mask"):
        _class_mask(np.array(_FACET_ROWS_D3), 3, 4, tag)


def _banned_imports(nodes, package_banned, outside_banned=frozenset({"numpy"})):
    """The names among ``nodes`` that import one of ``outside_banned`` (numpy
    by default), or one of the package's own modules in ``package_banned``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names, banned = [alias.name for alias in node.names], outside_banned
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            banned = package_banned if node.level else outside_banned
        else:
            continue
        found |= banned & {name.split(".")[0] for name in names}
    return found


def _module_tree(module):
    return ast.parse(Path(pauli_volumes.__file__).with_name(f"{module}.py").read_text())


@pytest.mark.parametrize("module", ["regions", "geometry", "rationals", "channel"])
def test_exact_modules_do_not_import_numpy(module):
    """Chains, surds, rationals and channel predicates are exact data: no float
    library in them, and no import of the package modules that load one."""
    found = _banned_imports(ast.walk(_module_tree(module)), {"mub", "volume"})
    assert not found, f"{module}.py imports {sorted(found)}, which loads numpy"


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["volume", "cli"])
def test_float_routes_import_numpy_only_when_called(module):
    """volume.py (for mc_volume) and cli.py (for mub-verify) reach numpy, but
    only from inside the functions that use it."""
    found = _banned_imports(_import_time_nodes(_module_tree(module)), {"mub"})
    assert not found, f"{module}.py imports {sorted(found)} at import time"


def test_no_module_imports_dataclasses():
    """dataclasses loads inspect, ast, dis and tokenize, about 10 ms of every
    process start; the value classes are NamedTuples and slotted classes."""
    for path in sorted(Path(pauli_volumes.__file__).parent.glob("*.py")):
        found = _banned_imports(ast.walk(ast.parse(path.read_text())), set(), {"dataclasses"})
        assert not found, f"{path.name} imports dataclasses"


def test_no_module_reads_the_environment():
    """The package has no settings: no module reads os.environ or os.getenv."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(pauli_volumes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                found = node.attr in env_names and getattr(node.value, "id", None) == "os"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found = bool(env_names & {alias.name for alias in node.names})
            else:
                continue
            assert not found, f"{path.name}:{node.lineno} reads the environment"


def test_package_root_exports_what_callers_import():
    """The README's library example and the benchmark harness import these
    six names from the root; every other name comes from its submodule."""
    assert sorted(pauli_volumes.__all__) == sorted([
        "ChannelSpec", "check_conjectures", "class_volume", "is_cp", "mc_volume",
        "supported_n_values", "__version__",
    ])


_EXACT_ARGVS = [
    ["classify", "--d", "3", "--lambdas=1/2,0,-1/4,0"],
    ["volume", "--d", "3", "--class", "cp"],
    ["ratios", "--d", "2..4"],
    ["check-conjectures", "--d", "2..4"],
    ["dump-regions", "--d", "3", "--class", "g"],
    ["--help"],
]

# prints, after the imports and after each call, its exit code and which of
# the start-up-costly modules are loaded
_PROBE = """
import contextlib, io, json, sys
import pauli_volumes
from pauli_volumes import cli

def loaded():
    watched = ("numpy", "pauli_volumes.mub", "dataclasses", "inspect", "csv")
    return [m for m in watched if m in sys.modules]

print(json.dumps([None, loaded()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, loaded()]))
"""


def test_exact_subcommands_leave_numpy_unloaded():
    """A fresh process that imports the package and runs every exact JSON
    subcommand never loads numpy, mub, dataclasses, inspect or csv. The CSV
    call after them loads csv alone, and the mc call at the end loads numpy,
    which shows the probe can see them. An mc call on the box class p
    before it draws nothing, so it leaves numpy unloaded too."""
    src = Path(pauli_volumes.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    csv_call = ["ratios", "--d", "2", "--format", "csv"]
    box_call = ["mc", "--d", "12", "--class", "p", "--samples", "100000000"]
    eb_call = ["mc", "--d", "3", "--class", "eb", "--samples", "10000"]
    argvs = _EXACT_ARGVS + [box_call, csv_call, eb_call]
    out = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, json.dumps(argvs)], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    steps = [json.loads(line) for line in out.splitlines()]
    assert steps[: len(_EXACT_ARGVS) + 2] == [[None, []]] + [[0, []]] * (len(_EXACT_ARGVS) + 1)
    assert steps[-2] == [0, ["csv"]]
    assert steps[-1][0] == 0 and "numpy" in steps[-1][1]
