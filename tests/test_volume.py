"""Exact integration, class volumes, closed-form checks, Monte Carlo."""

import itertools
import json
import os
import random
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod, sqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_volumes import volume
from pauli_volumes.geometry import SurdValue, vp_volume
from pauli_volumes.regions import BoundChain, LevelBound, chambers, cp_total_chains
from pauli_volumes.volume import (
    N_MODES,
    McEstimate,
    check_conjectures,
    class_volume,
    closed_form_ratios,
    integrate_chain,
    integrate_chains,
    mc_volume,
    ratio_table,
    region_for,
    supported_n_values,
)


def _const(const, q=1):
    """A constant end, const/q."""
    return LevelBound(const, q=q)


def _chain(levels, u=(), label="t"):
    return BoundChain(levels, u, label=label)


# --------------------------------------------------------------------------
# chain integration
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_unit_box_volume(n):
    ch = _chain([(_const(0), _const(1))] * n)
    assert integrate_chain(ch) == 1


def test_triangle_and_simplex_volumes():
    x_below = LevelBound(0, x0=1)
    triangle = _chain([(_const(0), _const(1)), (_const(0), x_below)])
    assert integrate_chain(triangle) == Fraction(1, 2)
    # standard simplex x,y,z >= 0, x+y+z <= 1
    simplex = _chain(
        [
            (_const(0), _const(1)),
            (_const(0), LevelBound(1, x0=-1)),
            (_const(0), LevelBound(1, x0=-1, last=-1)),
        ]
    )
    assert integrate_chain(simplex) == Fraction(1, 6)
    # the 4-simplex: the level-3 bound reaches x1 through the running sum
    simplex4 = _chain(
        [
            (_const(0), _const(1)),
            (_const(0), LevelBound(1, x0=-1)),
            (_const(0), LevelBound(1, x0=-1, last=-1)),
            (_const(0), LevelBound(1, x0=-1, t=-1, last=-1)),
        ],
        u=(1,),
    )
    assert integrate_chain(simplex4) == Fraction(1, 24)
    # a zero-width innermost level leaves nothing to integrate further out
    x1 = LevelBound(0, last=1)
    flat = _chain([(_const(0), _const(1)), (_const(0), _const(1)), (x1, x1)])
    assert integrate_chain(flat) == 0


def test_integrator_against_midpoint_riemann_sum():
    """Independent numeric oracle for a region with sloped bounds on both sides."""
    lo_end = LevelBound(-2, x0=1, q=4)  # -1/2 + x0/4
    hi_end = LevelBound(2, x0=1, q=2)  # 1 + x0/2
    ch = _chain([(_const(0), _const(2)), (lo_end, hi_end)])
    exact = integrate_chain(ch)
    steps = 2000
    total = 0.0
    for i in range(steps):
        x = 2.0 * (i + 0.5) / steps
        lo = -0.5 + 0.25 * x
        hi = 1.0 + 0.5 * x
        total += max(hi - lo, 0.0) * (2.0 / steps)
    assert abs(float(exact) - total) < 1e-9


def test_scaling_law():
    """Dilating every variable by s scales each bound's constant and keeps
    its slopes, so the volume scales by s^n. With s = a/b a dilated end
    (a const + b x0 x_0 + b t S_k + b last x_{k-1}) / (b q) has its
    constant times s and its slopes as they were."""
    ch = chambers(2, 3, "g").chains[0]
    s = Fraction(3, 2)
    a, b = s.numerator, s.denominator
    dilated = _chain(
        [
            tuple(LevelBound(a * e.const, b * e.x0, b * e.t, b * e.last, b * e.q) for e in pair)
            for pair in ch.bounds
        ],
        ch.u,
    )
    assert integrate_chain(dilated) == integrate_chain(ch) * s ** 3


def test_running_sum_with_leading_zero():
    """u = (0, 1), so S_4 = x2: x0, x1, x2 in [0, 1], x3 in [0, 1 + x0] and
    x4 in [x3, 2 + S_4]. Integrating 2 + x2 - x3 gives
    int_0^1 (5/2 (1 + x0) - (1 + x0)^2 / 2) dx0 = 15/4 - 7/6."""
    box = (_const(0), _const(1))
    level3 = (_const(0), LevelBound(1, x0=1))
    level4 = (LevelBound(0, last=1), LevelBound(2, t=1))
    chain = _chain([box, box, box, level3, level4], u=(0, 1))
    assert integrate_chain(chain) == Fraction(31, 12)


def test_outer_integral_over_signed_rational_ends():
    """The x0 integral puts both outer ends over one denominator: coprime
    denominators and a negative lower end must still give the exact value."""
    one = _chain([(_const(-1, 3), _const(1, 2))])
    assert integrate_chain(one) == Fraction(5, 6)
    # x1 in [x0, 1 - x0] over x0 in [-2/5, 3/7]: the integral of 1 - 2 x0 is
    # (3/7 - 9/49) - (-2/5 - 4/25) = 12/49 + 14/25
    x0 = LevelBound(0, x0=1)
    fold = LevelBound(1, x0=-1)
    two = _chain([(_const(-2, 5), _const(3, 7)), (x0, fold)])
    assert integrate_chain(two) == Fraction(986, 1225)


def test_upside_down_chain_integrates_to_its_signed_volume():
    """A hand-built chain whose upper bound lies below its lower one is
    integrated as written: x0 in [1, 0] gives -1, not an error."""
    assert integrate_chain(_chain([(_const(1), _const(0))])) == -1


def _replay_chain_goldens(name, dims):
    """Integrate every chain that ``tests/data/<name>`` pins, as rows
    [d, N, class, label, "p/q"], and check each class sum against its closed
    form: with n coordinates (N+1, or d+1 when N = d+1) and W the left-out
    weight d+1-N (1 when N = d+1), eb = 1/(n! W), g = (d+1) eb and
    cp = d (d/(d-1))^n eb. ``dims`` lists the (d, N) the file must cover.
    Each chain is integrated twice: alone, and with one table of shared
    inner levels for all the cp, g and eb chains of its (d, N)."""
    rows = json.loads((Path(__file__).parent / "data" / name).read_text())
    golden = defaultdict(list)
    for d, N, cls, label, value in rows:
        golden[d, N, cls].append((label, Fraction(value)))
    assert sorted(golden) == sorted((d, N, cls) for d, N in dims for cls in ("cp", "g", "eb"))
    tables = defaultdict(dict)
    for (d, N, cls), expected in golden.items():
        region = chambers(d, N, cls)
        got = [(ch.label, integrate_chain(ch)) for ch in region.chains]
        assert got == expected, (d, N, cls)
        shared = [(ch.label, integrate_chain(ch, tables[d, N])) for ch in region.chains]
        assert shared == expected, (d, N, cls)
        n, W = (d + 1, 1) if N == d + 1 else (N + 1, d + 1 - N)
        eb = Fraction(1, factorial(n) * W)
        closed = {"eb": eb, "g": (d + 1) * eb, "cp": d * Fraction(d, d - 1) ** n * eb}[cls]
        assert sum(v for _, v in got) * region.symmetry_factor == closed, (d, N, cls)


def test_every_chain_matches_its_golden_volume():
    """chain_volumes.json pins every chain of chambers(d, N, class) at
    d = 2..8, 3 <= N <= d+1, as the earlier Fraction-coefficient integrator
    computed them. The labels pin the slot names, mid{k} included at
    4 <= N < d."""
    _replay_chain_goldens(
        "chain_volumes.json", [(d, N) for d in range(2, 9) for N in range(3, d + 2)]
    )


def test_every_chain_at_d_9_to_12_matches_its_golden_volume():
    """chain_volumes_9_12.json pins every chain at d = 9..12 for each
    supported N (3, d and d+1), as the product-table integrator computed them
    before the Horner substitution replaced it."""
    _replay_chain_goldens(
        "chain_volumes_9_12.json", [(d, N) for d in range(9, 13) for N in (3, d, d + 1)]
    )


def _count_level_integrations(monkeypatch, name="_integrate_level"):
    """Count the calls of volume._integrate_level, or of the level method
    ``name``, from now on."""
    calls = []
    true_level = getattr(volume, name)

    def counted(*args):
        calls.append(None)
        return true_level(*args)

    monkeypatch.setattr(volume, name, counted)
    return calls


def test_chains_of_one_table_share_their_inner_levels():
    """The g chain has the levels of cp:sys3 and differs only in its x0
    range, so once the cp chains are in a table, g integrates no level."""
    table = {}
    cp = [integrate_chain(ch, table) for ch in chambers(8, 9, "cp").chains]
    levels = len(table)
    assert levels < sum(len(ch.bounds) - 1 for ch in chambers(8, 9, "cp").chains)
    g = [integrate_chain(ch, table) for ch in chambers(8, 9, "g").chains]
    assert len(table) == levels
    assert cp + g == [
        integrate_chain(ch) for cls in ("cp", "g") for ch in chambers(8, 9, cls).chains
    ]


def test_sharing_stays_inside_one_call(monkeypatch):
    """check_conjectures shares one table across the classes of a (d, N)
    and class_volume one within its class; neither keeps it, so a second
    call integrates as many levels as the first. check_conjectures takes
    cp's total as its all-positive chain less the closed-form volume of the
    all-negative one, so at d = 8 all four classes take 24 levels, 8 inner
    levels each for the box, cp's all-positive chain and eb, and none for g,
    whose inner levels are those of cp's chain: fewer than class_volume
    takes for cp alone (44), chamber by chamber."""
    calls = _count_level_integrations(monkeypatch)
    counts = []
    for call in (lambda: check_conjectures([8]), lambda: class_volume(8, 9, "cp")) * 2:
        before = len(calls)
        call()
        counts.append(len(calls) - before)
    assert counts[:2] == counts[2:] == [24, 44]
    assert counts[1] < sum(len(ch.bounds) - 1 for ch in chambers(8, 9, "cp").chains)


def _cp_chamber_sets():
    """(d, N) at every supported basis count with d <= 12, and at the
    4 <= N < d that chambers builds at d <= 9."""
    for d in range(2, 13):
        extra = range(4, d) if d <= 9 else ()
        yield from ((d, N) for N in sorted({*supported_n_values(d), *extra}))


def test_cp_total_is_the_telescoped_sum_of_its_chambers():
    """cp's chambers M = 1..n of a slot sum to X_0 - X_n, the all-positive
    chain on cp's floor less the all-negative one: the X_0 chains, one per
    slot, less the closed-form volume of the X_n give the summed chamber
    volumes at every set of _cp_chamber_sets, and so does the volume that
    ratio_table and check_conjectures read."""
    for d, N in _cp_chamber_sets():
        added, simplices = cp_total_chains(d, N)
        region = chambers(d, N, "cp")
        slots = len(region.chains) // len(region.chains[0].bounds)
        assert len(added.chains) == slots, (d, N)
        assert added.symmetry_factor == region.symmetry_factor
        total = integrate_chains(added.chains) - Fraction(*simplices)
        if N in supported_n_values(d):
            assert total == sum(class_volume(d, N, "cp").chain_volumes), (d, N)
            assert volume._lambda_volumes(d, N)["cp"] == total * added.symmetry_factor
        else:
            assert total == sum(map(integrate_chain, region.chains)), (d, N)


def test_conjectures_integrate_no_switch_level(monkeypatch):
    """The class totals read cp through its all-positive chain per slot less
    the simplex volume of the all-negative one, so check_conjectures
    integrates no level that reaches the negative branch, neither from it
    to the positive branch nor from below up to it, at any d <= 8 in any
    mode; class_volume, which integrates cp's chambers, integrates both
    kinds, so the spy sees them."""
    seen = []
    true_level = volume._integrate_level

    def spy(den, poly, lo, hi, carry):
        seen.append((lo, hi))
        return true_level(den, poly, lo, hi, carry)

    monkeypatch.setattr(volume, "_integrate_level", spy)
    for mode in N_MODES:
        for d in range(2, 9):
            N = volume.n_for_mode(d, mode)
            if N not in supported_n_values(d):
                continue
            # the negative branch is the one end at levels >= 1 with constant -1
            pairs = {
                (volume._end_fields(lo), volume._end_fields(hi))
                for ch in chambers(d, N, "cp").chains
                for lo, hi in ch.bounds[1:]
            }
            switches = {(lo, hi) for lo, hi in pairs if lo[0] == -1}
            up_to_neg = {(lo, hi) for lo, hi in pairs if hi[0] == -1}
            assert switches and up_to_neg, (d, N)
            del seen[:]
            assert check_conjectures([d], mode).all_match
            assert seen and not (switches | up_to_neg).intersection(seen), (d, mode)
            class_volume(d, N, "cp")
            assert switches.intersection(seen) and up_to_neg.intersection(seen), (d, mode)


# the check_conjectures calls of one perfbench exact-cold round
_EXACT_COLD_QUERIES = (
    [(d, "max") for d in range(2, 9)]
    + [(d, "d") for d in range(3, 9)]
    + [(d, "3") for d in range(4, 9)]
)


def test_exact_cold_queries_integrate_each_level_stack_once(monkeypatch):
    """The 18 check_conjectures calls of one perfbench exact-cold round
    integrate 1,049 levels chain by chain, 694 with the inner levels shared
    within each (d, N), 467 with cp's total integrated as two telescoped
    chains per slot instead of its chambers, and 339 with the all-negative
    chain of each slot taken from its simplex volume: 467 less the 128 inner
    levels of those chains, which share none with another chain."""
    unshared = 0
    for d, mode in _EXACT_COLD_QUERIES:
        N = volume.n_for_mode(d, mode)
        for cls in ("p", "cp", "g", "eb"):
            unshared += sum(len(ch.bounds) - 1 for ch in region_for(d, N, cls).chains)
    assert unshared == 1049
    calls = _count_level_integrations(monkeypatch)
    for d, mode in _EXACT_COLD_QUERIES:
        assert check_conjectures([d], mode).all_match
    assert len(calls) == 339


def test_exact_cold_levels_split_by_integrand_degree(monkeypatch):
    """One exact-cold round's 339 level integrations split 215 / 64 / 60
    across the three level methods: the closed form for degree <= 1 (the
    149 constant levels among them), the one for degree 2, and Horner's
    rule for degree 3 and up. So neither closed form can silently stop
    firing. The N = 3 queries reach no Horner level. The split is
    281 / 96 / 90 less the 66 / 32 / 30 levels of the 33 all-negative
    chains that cp's total no longer integrates; the innermost level of
    each of those chains is constant, so 182 - 33 constant levels are
    left."""
    methods = ("_affine_level", "_quadratic_level", "_horner_level")
    calls = {m: _count_level_integrations(monkeypatch, m) for m in methods}
    for d, mode in _EXACT_COLD_QUERIES:
        horner_before = len(calls["_horner_level"])
        assert check_conjectures([d], mode).all_match
        if mode == "3":
            assert len(calls["_horner_level"]) == horner_before
    assert [len(calls[m]) for m in methods] == [215, 64, 60]


def _supported_regions(classes=("p", "cp", "g", "eb")):
    """(d, N, {class: its ChamberSet}) at every supported (d, N) with d <= 12."""
    for d in range(2, 13):
        for N in supported_n_values(d):
            yield d, N, {cls: region_for(d, N, cls) for cls in classes}


def test_integrate_chains_is_the_sum_of_its_chains():
    """Sharing inner levels through one table moves no total: for every
    supported (d, N, class) with d <= 12 the integral of the chain set is
    the sum of the chain volumes, each taken over a fresh table."""
    for d, N, regions in _supported_regions():
        for cls, region in regions.items():
            chains = region.chains
            assert integrate_chains(chains) == sum(map(integrate_chain, chains)), (d, N, cls)


def test_chain_order_does_not_change_the_total_or_the_level_count(monkeypatch):
    """A table state stands for one stack of inner levels, whichever chain
    reached it first, so the order of a class's chains moves neither its
    total nor the number of levels it integrates: three seeded shuffles of
    every supported (d, N, class) with d <= 8 match the built order."""
    calls = _count_level_integrations(monkeypatch)
    rng = random.Random(32)

    def integrated(chains):
        before = len(calls)
        return integrate_chains(chains), len(calls) - before

    for d, N, regions in _supported_regions():
        if d > 8:
            break
        for cls, region in regions.items():
            built = integrated(region.chains)
            for _ in range(3):
                shuffled = list(region.chains)
                rng.shuffle(shuffled)
                assert integrated(shuffled) == built, (d, N, cls)


def test_one_table_for_several_calls_gives_fresh_table_totals():
    """cp, g and eb through one table give the totals of fresh tables at
    every supported (d, N) with d <= 12, so no two states of one table
    share a node. Two calls whose chains differ only in an inner level, over
    equal outer levels, must not pick up each other's states either."""
    for d, N, regions in _supported_regions(("cp", "g", "eb")):
        table = {}
        for cls, region in regions.items():
            assert integrate_chains(region.chains, table) == integrate_chains(region.chains)
    table = {}
    box = (_const(0), _const(1))
    for tops in ((1, 2), (3, 5)):
        pair = [_chain([box, box, (_const(0), _const(top))]) for top in tops]
        assert integrate_chains(pair, table) == sum(tops)


def test_chains_with_different_running_sums_are_not_summed():
    """Two chains with equal stored ends but different weights u read
    different running sums S_k, so they share no table state: each keeps
    its own volume."""
    chain = chambers(8, 9, "cp").chains[0]
    doubled = _chain(chain.bounds, u=tuple(2 * w for w in chain.u))
    assert integrate_chain(doubled) != integrate_chain(chain)
    assert integrate_chains((chain, doubled)) == integrate_chain(chain) + integrate_chain(doubled)


def test_chains_of_different_lengths_sum_exactly():
    """Chains of 1 to 6 levels, and chains over rational ends of several
    denominators, give the sum of the chains' volumes."""
    chains = [_chain([(_const(0), _const(1, q))] * n) for n in range(1, 7) for q in (1, 2, 3)]
    chains += [_chain([(_const(0), _const(1))] * 3 + [(_const(-1, q), _const(1))]) for q in (2, 3)]
    assert integrate_chains(chains) == sum(map(integrate_chain, chains))
    assert integrate_chains([]) == 0


def _weighted_simplex(weights, c, shift, sign):
    """{sign * (x_i - shift_i) >= 0, sum_i w_i * sign * (x_i - shift_i) <= c}
    as a bound chain: level k runs from shift_k to
    shift_k + (sign * c + sum_{j<k} w_j (shift_j - x_j)) / w_k, in that
    order for sign = 1 and reversed for sign = -1. The running sum has the
    weights as u, and level k has t = -1/w_k. The moving end is stored as
    integer numerators over w_k L, for L the denominator of its constant
    times w_k."""
    bounds = []
    for k, w in enumerate(weights):
        # w_k times the moving end's constant, over its denominator L
        num = w * shift[k] + sign * c + sum(wj * sj for wj, sj in zip(weights, shift[:k]))
        L = num.denominator
        moving = LevelBound(
            num.numerator,
            x0=-weights[0] * L if k >= 1 else 0,
            t=-L if k >= 3 else 0,
            last=-weights[k - 1] * L if k >= 2 else 0,
            q=w * L,
        )
        fixed = LevelBound(shift[k].numerator, q=shift[k].denominator)
        bounds.append((fixed, moving) if sign == 1 else (moving, fixed))
    return _chain(bounds, u=weights[1:-2], label="simplex")


shifts = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(1, 6), min_size=2, max_size=7),
    c=st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
    shift=st.lists(shifts, min_size=7, max_size=7),
    sign=st.sampled_from((1, -1)),
)
def test_weighted_simplex_volume(weights, c, shift, sign):
    """Independent oracle: a weighted simplex of n coordinates has volume
    c^n / (n! prod w), wherever it is shifted to and whichever corner it
    points from. The level bounds divide by w_k and reach x_1..x_{k-2}
    through the running sum, so they test t and the carry."""
    n = len(weights)
    chain = _weighted_simplex(weights, c, shift[:n], sign)
    assert integrate_chain(chain) == c**n / (factorial(n) * prod(weights))


def test_chain_too_long_for_packed_keys_raises():
    box = _chain([(_const(0), _const(1))] * 64, label="long")
    with pytest.raises(ValueError, match="long"):
        integrate_chain(box)


# --------------------------------------------------------------------------
# class volumes and ratios
# --------------------------------------------------------------------------


def test_qubit_class_volume_goldens():
    cp = class_volume(2, 3, "cp")
    assert dict(zip(cp.chain_labels, cp.chain_volumes)) == {
        "cp:sys1": Fraction(4, 27),
        "cp:sys2:M=2": Fraction(8, 81),
        "cp:sys3": Fraction(16, 81),
    }
    assert cp.symmetry_factor == 6
    assert cp.lambda_volume == Fraction(8, 3)
    assert cp.hs_volume == SurdValue(Fraction(1, 3), 1)
    assert class_volume(2, 3, "p").hs_volume == SurdValue(Fraction(1), 1)
    assert class_volume(2, 3, "g").hs_volume == SurdValue(Fraction(1, 16), 1)
    assert class_volume(2, 3, "eb").hs_volume == SurdValue(Fraction(1, 48), 1)


def test_qutrit_class_volume_goldens():
    assert class_volume(3, 4, "p").hs_volume == SurdValue(Fraction(1, 4), 1)
    assert class_volume(3, 4, "cp").hs_volume == SurdValue(Fraction(1, 32), 1)
    assert class_volume(3, 4, "g").hs_volume == SurdValue(Fraction(2, 243), 1)
    assert class_volume(3, 4, "eb").hs_volume == SurdValue(Fraction(1, 486), 1)


def test_slot_weighted_chain_volumes():
    """Chains whose bounds carry the left-out weight in the running sum."""
    cp = class_volume(4, 3, "cp")
    per_slot = {
        "min": ("4096/455625", "64/18225", "256/91125", "1024/455625"),
        "mid1": ("1024/151875", "16/6075", "64/30375", "256/151875"),
        "mid2": ("2048/455625", "32/18225", "128/91125", "512/455625"),
        "max": ("1024/455625", "16/18225", "64/91125", "256/455625"),
    }
    assert dict(zip(cp.chain_labels, cp.chain_volumes)) == {
        f"cp-n3:sys{k}:slot={slot}": Fraction(v)
        for slot, vols in per_slot.items()
        for k, v in enumerate(vols, 1)
    }
    assert (cp.symmetry_factor, cp.lambda_volume) == (6, Fraction(64, 243))


def test_six_variable_chain_volumes():
    cp = class_volume(5, 6, "cp")
    assert dict(zip(cp.chain_labels, cp.chain_volumes)) == {
        "cp:sys1": Fraction(3125, 509607936),
        "cp:sys2:M=2": Fraction(1953125, 660451885056),
        "cp:sys2:M=3": Fraction(390625, 110075314176),
        "cp:sys2:M=4": Fraction(78125, 18345885696),
        "cp:sys2:M=5": Fraction(15625, 3057647616),
        "cp:sys3": Fraction(9765625, 660451885056),
    }
    assert (cp.symmetry_factor, cp.lambda_volume) == (720, Fraction(15625, 589824))


RATIO_GOLDENS = {
    2: (Fraction(1, 3), Fraction(3, 16), Fraction(1, 3)),
    3: (Fraction(1, 8), Fraction(64, 243), Fraction(1, 4)),
    4: (Fraction(1, 30), Fraction(1215, 4096), Fraction(1, 5)),
    5: (Fraction(1, 144), Fraction(24576, 78125), Fraction(1, 6)),
}


@pytest.mark.parametrize("d", sorted(RATIO_GOLDENS))
def test_full_family_ratio_goldens(d):
    table = ratio_table(d, d + 1)
    assert (table["cp/p"], table["g/cp"], table["eb/g"]) == RATIO_GOLDENS[d]


def test_all_bases_and_all_but_one_have_equal_volumes():
    """N = d is the complete family: lambda_{N+1} is the left-out basis's own
    eigenvalue. So at d = 3..12 every class has the same chains, chain
    volumes, symmetry factor, volumes and sufficiency at N = d as at
    N = d+1; only N differs."""
    for d in range(3, 13):
        for tag in ("p", "cp", "g", "eb"):
            a, b = class_volume(d, d, tag), class_volume(d, d + 1, tag)
            assert a._replace(N=b.N) == b, (d, tag)
        assert region_for(d, d, "cp").N == d


def test_sufficiency_flags():
    assert class_volume(3, 4, "p").sufficiency == "upper-bound"
    assert class_volume(3, 4, "cp").sufficiency == "known-exact"
    assert class_volume(3, 4, "g").sufficiency == "known-exact"
    assert class_volume(4, 4, "eb").sufficiency == "known-exact"
    assert class_volume(4, 5, "eb").sufficiency == "known-exact"
    assert class_volume(5, 3, "eb").sufficiency == "upper-bound"


def test_supported_combinations_and_validation():
    assert supported_n_values(2) == (3,)
    assert supported_n_values(3) == (3, 4)
    assert supported_n_values(5) == (3, 5, 6)
    assert supported_n_values(1) == ()
    for d in (4.0, True):
        with pytest.raises(ValueError, match="d must be an integer"):
            supported_n_values(d)
    with pytest.raises(ValueError, match="d must be"):
        class_volume(1, 3, "cp")
    with pytest.raises(ValueError, match="supported N"):
        class_volume(5, 4, "cp")
    with pytest.raises(ValueError, match="class tag"):
        class_volume(3, 4, "x")
    # a float N is refused even where it equals a supported integer
    for d, N in ((3, 4.0), (5, 3.0)):
        with pytest.raises(ValueError, match="N must be an integer"):
            class_volume(d, N, "cp")


def test_dimension_cap_is_fixed():
    with pytest.raises(ValueError, match="d=13 exceeds the exact-volume cap 12"):
        class_volume(13, 14, "cp")
    assert class_volume(12, 13, "eb").lambda_volume > 0


@pytest.mark.parametrize("d, N", [(1, 3), (13, 14), (5, 4), (6, 4)])
def test_class_totals_validate_before_they_divide(d, N):
    """ratio_table refuses an unsupported (d, N) with class_volume's message,
    since p is validated before cp's closed form divides by d-1, and never
    with a ZeroDivisionError; so does check_conjectures in every mode that
    picks that N (none picks N = 4 at d = 5 or 6)."""
    with pytest.raises(ValueError) as refused:
        class_volume(d, N, "cp")
    message = str(refused.value)
    calls = [lambda: ratio_table(d, N)]
    calls += [
        lambda mode=mode: check_conjectures([d], mode)
        for mode in N_MODES
        if volume.n_for_mode(d, mode) == N
    ]
    assert len(calls) == (1 if (d, N) in ((5, 4), (6, 4)) else 2)
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message, (d, N)


def test_volume_ratio_cross_route():
    # the metric prefactor is irrational at (4, 3) and cancels: each ratio is
    # the plain eigenvalue-volume ratio
    table = ratio_table(4, 3)
    assert table["cp/p"] == Fraction(1, 12)
    assert table["eb/g"] == Fraction(1, 5)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def test_conjectures_confirmed_range():
    report = check_conjectures([2, 3, 4, 5], "max")
    assert report.all_match
    assert all(not e.extrapolated for e in report.entries)
    assert len(report.entries) == 12


def test_conjectures_extrapolated_dimension():
    report = check_conjectures([6], "max")
    assert report.all_match
    assert all(e.extrapolated for e in report.entries)
    forms = closed_form_ratios(6, 7)
    assert forms["cp/p"].as_fraction() == Fraction(6, factorial(7))
    assert forms["cp/p"].as_fraction() == Fraction(1, 840)


@pytest.mark.parametrize("n_mode", N_MODES)
def test_conjectures_up_to_the_cap(n_mode):
    report = check_conjectures(range(9, 13), n_mode)
    assert report.all_match
    # the "3" mode also checks the box volume at each d
    assert len(report.entries) == (16 if n_mode == "3" else 12)
    assert all(e.extrapolated == (n_mode != "3") for e in report.entries)


def test_conjectures_beyond_default_cap(monkeypatch):
    monkeypatch.setattr(volume, "_MAX_D", 13)
    report = check_conjectures([13], "max")
    assert report.all_match
    assert len(report.entries) == 3
    monkeypatch.undo()
    # with the cap restored, d = 13 is refused again
    with pytest.raises(ValueError, match="cap 12"):
        class_volume(13, 14, "cp")


def test_conjectures_three_basis_mode():
    """d = 3..8; test_conjectures_up_to_the_cap takes d = 9..12."""
    report = check_conjectures(range(3, 9), "3")
    assert report.all_match
    assert all(not e.extrapolated for e in report.entries)
    p_entries = [e for e in report.entries if e.name == "p"]
    assert len(p_entries) == 6
    assert p_entries[1].computed == SurdValue(Fraction(1, 9), 2)


def test_conjectures_integrate_the_box_once_per_dimension(monkeypatch):
    box_chains = []
    true_integrate = volume.integrate_chains

    def counted(chains, table):
        box_chains.extend(ch for ch in chains if ch.label == "p-box")
        return true_integrate(chains, table)

    monkeypatch.setattr(volume, "integrate_chains", counted)
    assert check_conjectures([4, 5, 6], "3").all_match
    assert len(box_chains) == 3


def test_conjectures_all_but_one_mode():
    assert check_conjectures([3, 4, 5], "d").all_match


def test_conjectures_bad_mode():
    with pytest.raises(ValueError, match="n_mode") as info:
        check_conjectures([2], "all")
    assert all(repr(mode) in str(info.value) for mode in N_MODES)
    with pytest.raises(ValueError, match="d must be"):
        check_conjectures([0], "max")


def test_p_closed_form_matches_engine():
    for d in (3, 4, 5, 6):
        closed_form = SurdValue(Fraction(1, (d - 1) ** 2), d - 2)  # sqrt(d-2)/(d-1)^2
        assert vp_volume(d, 3) == closed_form == class_volume(d, 3, "p").hs_volume


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------


def test_mc_is_deterministic_and_blockwise_stable():
    a = mc_volume(3, 4, "cp", 100_000, seed=7)
    b = mc_volume(3, 4, "cp", 100_000, seed=7)
    assert a == b
    c = mc_volume(3, 4, "cp", 100_000, seed=8)
    assert c != a
    # a longer run reuses the same leading blocks
    extended = mc_volume(3, 4, "cp", 150_000, seed=7)
    assert extended.samples == 150_000
    assert extended.hits >= a.hits
    # a partial last block draws only the rows it uses; the hits are those
    # of the full-block draw it replaced
    assert mc_volume(4, 5, "cp", 100_000, seed=3).hits == 3362


# Hits of mc_volume(d, N, tag, samples, seed=11): the sampler's draws and
# predicates fix them, so a faster sampler must reproduce every one. 70,001
# samples ends mid-block and mid-chunk.
_MC_HITS_SEED_11 = {
    (2, 3, 70_001): {"p": 70_001, "cp": 23_366, "g": 4_457, "eb": 1_449},
    (4, 3, 70_001): {"p": 70_001, "cp": 5_801, "g": 2_205, "eb": 433},
    (3, 4, 300_001): {"cp": 37_271, "g": 9_752, "eb": 2_361},
    (5, 3, 300_001): {"cp": 20_826, "g": 10_176, "eb": 1_761},
    # eight or more columns in the weighted sum
    (7, 8, 1_000_001): {"cp": 175, "g": 65, "eb": 8},
    (8, 8, 1_000_001): {"cp": 18, "g": 7},
}


@pytest.mark.parametrize(
    "d, N, samples, tag, hits",
    [(*key, tag, hits) for key, row in _MC_HITS_SEED_11.items() for tag, hits in row.items()],
)
def test_mc_hits_are_pinned(d, N, samples, tag, hits):
    assert mc_volume(d, N, tag, samples, seed=11).hits == hits


# (5, 3) and (6, 4) weight the left-out column by 3; 10,000 samples is one
# block, 2**18 four, and 8 workers outnumber the blocks at every count. The
# worker cap is lifted, so that pools larger than the measured one keep the
# hits too.
@pytest.mark.parametrize("d, N", [(3, 4), (5, 3), (6, 4), (6, 6)])
@pytest.mark.parametrize("tag", ["cp", "g", "eb"])
def test_mc_hits_do_not_depend_on_the_worker_count(monkeypatch, d, N, tag):
    monkeypatch.setattr(volume, "_MC_MAX_WORKERS", 8)
    # a short switch interval interleaves the workers' Python steps finely,
    # so a lost update to the shared counts would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for samples in (10_000, 65_536, 150_001, 1 << 18):
            counts = []
            for cpus in (1, 2, 3, 8):
                monkeypatch.setattr(volume, "_usable_cpus", lambda: cpus)
                counts.append(volume._mc_hits(d, N, tag, samples, 5))
            assert counts == [counts[0]] * 4, (samples, counts)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, where", [(1, "caller"), (2, "caller"), (2, "thread"), (3, "thread")])
def test_a_failing_mask_reaches_the_caller(monkeypatch, cpus, where):
    """One mask call raises, on the calling thread or on a started one:
    mc_volume raises that error rather than return the other workers'
    count, and no thread leaves it unhandled (pytest's unhandled-thread
    warning is an error under filterwarnings)."""
    real = volume._class_mask
    calls = itertools.count()

    def failing(*args):
        started = threading.current_thread() is not threading.main_thread()
        if started == (where == "thread") and next(calls) == 1:
            raise RuntimeError("mask failed")
        return real(*args)

    monkeypatch.setattr(volume, "_MC_MAX_WORKERS", 8)
    monkeypatch.setattr(volume, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(volume, "_class_mask", failing)
    with pytest.raises(RuntimeError, match="mask failed"):
        mc_volume(3, 4, "cp", 1 << 18, seed=1)


def _record_threads(monkeypatch) -> list:
    """Patch threading.Thread to list every thread made."""
    real, made = threading.Thread, []

    def thread(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(threading, "Thread", thread)
    return made


def test_an_interrupt_does_not_wait_for_the_other_workers(monkeypatch):
    """A KeyboardInterrupt on the calling thread leaves _mc_hits while the
    started thread is still held in its mask call."""
    real = volume._class_mask
    release = threading.Event()
    waited = []

    def mask(*args):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        if not waited:
            waited.append(release.wait(10))
        return real(*args)

    started = _record_threads(monkeypatch)
    monkeypatch.setattr(volume, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(volume, "_class_mask", mask)
    with pytest.raises(KeyboardInterrupt):
        volume._mc_hits(3, 4, "cp", 1 << 18, 1)
    # the started thread has not yet come back from its first wait
    assert waited == []
    release.set()
    started[0].join()


# one usable CPU or one block starts no thread; 8 CPUs and 4 blocks start
# one fewer than the cap, all daemons
@pytest.mark.parametrize(
    "cpus, samples, threads",
    [(1, 1 << 18, 0), (8, 65_536, 0), (8, 1 << 18, volume._MC_MAX_WORKERS - 1)],
)
def test_threads_started(monkeypatch, cpus, samples, threads):
    started = _record_threads(monkeypatch)
    monkeypatch.setattr(volume, "_usable_cpus", lambda: cpus)
    assert mc_volume(3, 4, "cp", samples, seed=7).samples == samples
    assert [t.daemon for t in started] == [True] * threads


@pytest.mark.parametrize("count, usable", [(None, 1), (3, 3)])
def test_usable_cpus_falls_back_to_the_machine_count(monkeypatch, count, usable):
    """Where the platform has no affinity mask, the machine's CPU count is
    used, and 1 when that count is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert volume._usable_cpus() == usable


def test_mc_p_class_reproduces_exact_volume_bitwise(monkeypatch):
    """Every box draw lies in p, so the p class draws nothing: its hits are
    its samples, its stderr 0 and its estimate the exact box volume."""

    def no_draws(*args):
        raise AssertionError("the p class drew samples")

    monkeypatch.setattr(volume, "_mc_hits", no_draws)
    for d, N in [(2, 3), (4, 3), (8, 9), (12, 13)]:
        est = mc_volume(d, N, "p", 50_000, seed=1)
        assert est == (float(vp_volume(d, N)), 0.0, 50_000, 50_000)
        assert est.estimate == float(class_volume(d, N, "p").hs_volume)


def test_mc_tracks_exact_volume():
    for tag in ("cp", "g", "eb"):
        est = mc_volume(2, 3, tag, 400_000, seed=12)
        exact = float(class_volume(2, 3, tag).hs_volume)
        assert abs(est.estimate - exact) <= 4 * est.stderr


def test_mc_stderr_is_the_binomial_sigma_of_the_exact_volume():
    """The reported stderr is the binomial standard deviation of the hit
    count, scaled to the box: within 2% of scale * sqrt(p (1-p) / n) at the
    exact fraction p = cp/p, here 1/8."""
    samples = 1 << 18
    est = mc_volume(3, 4, "cp", samples, seed=11)
    p = class_volume(3, 4, "cp").lambda_volume / class_volume(3, 4, "p").lambda_volume
    assert p == Fraction(1, 8)
    sigma = float(vp_volume(3, 4)) * sqrt(p * (1 - p) / samples)
    assert est.stderr == pytest.approx(sigma, rel=0.02)


def test_mc_input_validation():
    with pytest.raises(ValueError, match="samples"):
        mc_volume(2, 3, "cp", 100)
    with pytest.raises(ValueError, match="class tag"):
        mc_volume(2, 3, "q", 10_000)
    # a bool is an int to Python: seed=True would draw seed 1's stream
    for seed in (-1, 1 << 64, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            mc_volume(2, 3, "cp", 10_000, seed=seed)
    for samples in (10_000.0, True):
        with pytest.raises(ValueError, match="samples"):
            mc_volume(3, 4, "cp", samples)
    for N in (3.0, True):
        with pytest.raises(ValueError, match="N must be an integer"):
            mc_volume(5, N, "cp", 10_000)
    with pytest.raises(ValueError, match="d must be an integer"):
        mc_volume(True, 3, "cp", 10_000)


def test_mc_estimate_type():
    est = mc_volume(2, 3, "eb", 10_000, seed=3)
    assert isinstance(est, McEstimate)
    assert est.samples == 10_000
    assert 0 <= est.hits <= est.samples
