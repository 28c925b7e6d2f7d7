"""Chamber decompositions: construction, well-formedness, membership."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from pauli_volumes.regions import AffineExpr, BoundChain, chambers, p_box
from pauli_volumes.volume import _class_mask, region_for, supported_n_values


def test_affine_expr_evaluation():
    e = AffineExpr(Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))
    assert e.evaluate((Fraction(1, 4), Fraction(3))) == Fraction(5, 4)
    pts = np.array([[0.25, 3.0, 9.9], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(e.evaluate_batch(pts), [1.25, 0.5])


def test_bound_chain_rejects_forward_references():
    future = AffineExpr(Fraction(0), (Fraction(1),))  # mentions x_0
    with pytest.raises(ValueError, match="later"):
        BoundChain(2, ((AffineExpr(Fraction(0)), future),) * 2, label="bad")


def test_p_box_coordinate_counts():
    assert p_box(2, 3).n_vars == 3
    assert p_box(3, 4).n_vars == 4
    assert p_box(5, 3).n_vars == 4  # body plus the shared left-out coordinate
    assert p_box(5, 5).n_vars == 6
    box = p_box(4, 5)
    lo, hi = box.chains[0].bounds[2]
    assert (lo.const, hi.const) == (Fraction(-1, 3), Fraction(1))
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
            assert ch.n_vars == d + 1
            lo0, hi0 = ch.bounds[0]
            assert not lo0.coeffs and not hi0.coeffs  # outer bounds constant


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


def test_qubit_outer_bounds():
    cp = chambers(2, 3, "cp")
    outer = [(ch.bounds[0][0].const, ch.bounds[0][1].const) for ch in cp.chains]
    assert outer == [
        (Fraction(-1), Fraction(-1, 3)),  # branch switch at the last level
        (Fraction(-1), Fraction(-1, 3)),
        (Fraction(-1, 3), Fraction(1)),  # all-positive branch
    ]


def test_three_basis_level_bounds_at_d4():
    """Spot-check the weighted bounds when the left-out eigenvalue sits on top:
    at the last level the upper bound must average the remaining weight d-2."""
    eb = {ch.nplus1_slot: ch for ch in chambers(4, 3, "eb").chains}
    lo, hi = eb[3].bounds[3]
    assert hi == AffineExpr(
        Fraction(1, 2), (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    g = {ch.nplus1_slot: ch for ch in chambers(4, 3, "g").chains}
    lo, hi = g[3].bounds[3]
    assert hi == AffineExpr(
        Fraction(1, 2), (Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    # left-out eigenvalue at the bottom: its weight d-2 both shrinks the
    # remaining-weight denominator and shifts the d*lambda_min coefficient
    lo, hi = g[0].bounds[3]
    assert hi == AffineExpr(Fraction(1), (Fraction(2), Fraction(-1), Fraction(-1)))


def test_slot_determines_which_sorted_position_is_special():
    cs = chambers(4, 3, "g")
    # lambda_4 = 0.2 ranks second among (0.05, 0.3, 0.1, 0.2): slot 2
    pts = np.array([[0.05, 0.3, 0.1, 0.2]])
    counts, near = cs.membership_counts(pts, margin=1e-9)
    assert not near[0]
    by_slot = {}
    for ch in cs.chains:
        sub = cs.__class__(
            (ch,), cs.symmetry_factor, cs.class_tag, cs.d, cs.N, cs.ordered
        )
        by_slot[ch.nplus1_slot] = int(sub.membership_counts(pts)[0][0])
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
        counts, near = cs.membership_counts(pts, margin=1e-9)
        mask = _class_mask(pts, d, N, tag)
        ok = ~near
        assert np.array_equal(counts[ok] >= 1, mask[ok])
        assert counts[ok].max(initial=0) <= 1  # chambers are disjoint


def test_exact_membership_matches_float_membership():
    cs = chambers(3, 4, "cp")
    rng = np.random.default_rng(9)
    for _ in range(200):
        raw = [Fraction(int(rng.integers(-50, 101)), 100) for _ in range(4)]
        mu = sorted(raw)
        exact = sum(ch.contains(mu) for ch in cs.chains)
        counts, near = cs.membership_counts(
            np.array([[float(x) for x in raw]]), margin=1e-12
        )
        if not near[0]:
            assert counts[0] == exact


def test_scaled_chain_keeps_slopes():
    ch = chambers(2, 3, "g").chains[0]
    doubled = ch.scaled(Fraction(2))
    assert doubled.bounds[0][1].const == 2
    assert doubled.bounds[2][1].coeffs == ch.bounds[2][1].coeffs
    with pytest.raises(ValueError):
        ch.scaled(Fraction(-1))
