"""Exact integration, class volumes, closed-form checks, Monte Carlo."""

import json
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_volumes import volume
from pauli_volumes.geometry import SurdValue, vp_volume
from pauli_volumes.regions import AffineExpr, BoundChain, chambers
from pauli_volumes.volume import (
    ChamberInconsistency,
    N_MODES,
    McEstimate,
    check_conjectures,
    class_volume,
    closed_form_ratios,
    integrate_chain,
    mc_volume,
    ratio_table,
    region_for,
    supported_n_values,
)


def _const(v):
    return AffineExpr(Fraction(v))


def _chain(bounds, label="t"):
    return BoundChain(tuple(bounds), label=label)


# --------------------------------------------------------------------------
# chain integration
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_unit_box_volume(n):
    ch = _chain([(_const(0), _const(1))] * n)
    assert integrate_chain(ch) == 1


def test_triangle_and_simplex_volumes():
    x_below = AffineExpr(Fraction(0), (Fraction(1),))
    triangle = _chain([(_const(0), _const(1)), (_const(0), x_below)])
    assert integrate_chain(triangle) == Fraction(1, 2)
    # standard simplex x,y,z >= 0, x+y+z <= 1
    simplex = _chain(
        [
            (_const(0), _const(1)),
            (_const(0), AffineExpr(Fraction(1), (Fraction(-1),))),
            (_const(0), AffineExpr(Fraction(1), (Fraction(-1), Fraction(-1)))),
        ]
    )
    assert integrate_chain(simplex) == Fraction(1, 6)
    # the 4-simplex: the level-3 bound reaches x1 through the running sum
    simplex4 = _chain(
        [
            (_const(0), _const(1)),
            (_const(0), AffineExpr(Fraction(1), (Fraction(-1),))),
            (_const(0), AffineExpr(Fraction(1), (Fraction(-1), Fraction(-1)))),
            (_const(0), AffineExpr(Fraction(1), (Fraction(-1),) * 3)),
        ]
    )
    assert integrate_chain(simplex4) == Fraction(1, 24)
    # a zero-width innermost level leaves nothing to integrate further out
    x1 = AffineExpr(Fraction(0), (Fraction(0), Fraction(1)))
    flat = _chain([(_const(0), _const(1)), (_const(0), _const(1)), (x1, x1)])
    assert integrate_chain(flat) == 0


def test_integrator_against_midpoint_riemann_sum():
    """Independent numeric oracle for a region with sloped bounds on both sides."""
    lo_expr = AffineExpr(Fraction(-1, 2), (Fraction(1, 4),))
    hi_expr = AffineExpr(Fraction(1), (Fraction(1, 2),))
    ch = _chain([(_const(0), _const(2)), (lo_expr, hi_expr)])
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
    its slopes, so the volume scales by s^n."""
    ch = chambers(2, 3, "g").chains[0]
    s = Fraction(3, 2)
    dilated = _chain([[AffineExpr(e.const * s, e.coeffs) for e in pair] for pair in ch.bounds])
    assert integrate_chain(dilated) == integrate_chain(ch) * s ** 3


def test_non_proportional_running_sum_raises():
    """Level-4 bounds whose x1, x2 coefficients are not one multiple of u:
    no three-variable form exists, so no number may come back."""
    box = (_const(0), _const(1))
    upper3 = AffineExpr(Fraction(1), (Fraction(0), Fraction(1), Fraction(0)))
    lower4 = AffineExpr(Fraction(0), (Fraction(0), Fraction(1), Fraction(1), Fraction(0)))
    upper4 = AffineExpr(Fraction(2), (Fraction(0), Fraction(1), Fraction(2), Fraction(0)))
    bad = _chain([box, box, box, (_const(0), upper3), (lower4, upper4)], label="skew")
    with pytest.raises(ValueError, match="skew"):
        integrate_chain(bad)


def test_running_sum_with_leading_zero():
    """The top middle coefficients (of x1, x2 at level 4) are (0, 1), so
    u = (0, 1) and S_4 = x2: a level-3 bound may then not reach x1."""
    box = (_const(0), _const(1))
    x3 = AffineExpr(Fraction(0), (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    upper4 = AffineExpr(Fraction(2), (Fraction(0), Fraction(0), Fraction(1), Fraction(0)))

    def chain(x1_coeff, label):
        upper3 = AffineExpr(Fraction(1), (Fraction(1), x1_coeff, Fraction(0)))
        return _chain([box, box, box, (_const(0), upper3), (x3, upper4)], label=label)

    with pytest.raises(ValueError, match="reaches-x1"):
        integrate_chain(chain(Fraction(1), "reaches-x1"))
    # x0, x1, x2 in [0, 1], x3 in [0, 1 + x0], x4 in [x3, 2 + x2]: integrating
    # 2 + x2 - x3 gives int_0^1 (5/2 (1 + x0) - (1 + x0)^2 / 2) dx0 = 15/4 - 7/6
    assert integrate_chain(chain(Fraction(0), "ok")) == Fraction(31, 12)


def test_running_sum_reads_omitted_coefficients_as_zero():
    """The level-5 bound lists only x0 and x1, so its x2, x3 coefficients are
    zero and u = (1, 0, 0): a level-4 bound on x1 + x2 is not a multiple."""
    box = (_const(0), _const(1))
    upper4 = AffineExpr(Fraction(1), (Fraction(0), Fraction(1), Fraction(1)))
    upper5 = AffineExpr(Fraction(2), (Fraction(0), Fraction(1)))
    bad = _chain([box] * 4 + [(_const(0), upper4), (_const(0), upper5)], label="short")
    with pytest.raises(ValueError, match="short"):
        integrate_chain(bad)


def test_outer_integral_over_signed_rational_ends():
    """The x0 integral puts both outer ends over one denominator: coprime
    denominators and a negative lower end must still give the exact value."""
    one = _chain([(_const(Fraction(-1, 3)), _const(Fraction(1, 2)))])
    assert integrate_chain(one) == Fraction(5, 6)
    # x1 in [x0, 1 - x0] over x0 in [-2/5, 3/7]: the integral of 1 - 2 x0 is
    # (3/7 - 9/49) - (-2/5 - 4/25) = 12/49 + 14/25
    x0 = AffineExpr(Fraction(0), (Fraction(1),))
    fold = AffineExpr(Fraction(1), (Fraction(-1),))
    two = _chain([(_const(Fraction(-2, 5)), _const(Fraction(3, 7))), (x0, fold)])
    assert integrate_chain(two) == Fraction(986, 1225)


def test_inconsistent_chain_raises_with_label():
    bad = _chain([(_const(1), _const(0))], label="upside-down")
    with pytest.raises(ChamberInconsistency, match="upside-down"):
        integrate_chain(bad)


def _replay_chain_goldens(name, dims):
    """Integrate every chain that ``tests/data/<name>`` pins, as rows
    [d, N, class, label, "p/q"], and check each class sum against its closed
    form: with n coordinates (N+1, or d+1 when N = d+1) and W the left-out
    weight d+1-N (1 when N = d+1), eb = 1/(n! W), g = (d+1) eb and
    cp = d (d/(d-1))^n eb. ``dims`` lists the (d, N) the file must cover."""
    rows = json.loads((Path(__file__).parent / "data" / name).read_text())
    golden = defaultdict(list)
    for d, N, cls, label, value in rows:
        golden[d, N, cls].append((label, Fraction(value)))
    assert sorted(golden) == sorted((d, N, cls) for d, N in dims for cls in ("cp", "g", "eb"))
    for (d, N, cls), expected in golden.items():
        region = chambers(d, N, cls)
        got = [(ch.label, integrate_chain(ch)) for ch in region.chains]
        assert got == expected, (d, N, cls)
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


def _weighted_simplex(weights, c, shift, sign):
    """{sign * (x_i - shift_i) >= 0, sum_i w_i * sign * (x_i - shift_i) <= c}
    as a bound chain: level k runs from shift_k to
    shift_k + (sign * c + sum_{j<k} w_j (shift_j - x_j)) / w_k, in that
    order for sign = 1 and reversed for sign = -1."""
    bounds = []
    for k, w in enumerate(weights):
        const = shift[k] + (sign * c + sum(wj * sj for wj, sj in zip(weights, shift[:k]))) / w
        moving = AffineExpr(const, tuple(Fraction(-wj, w) for wj in weights[:k]))
        fixed = AffineExpr(shift[k], (Fraction(0),) * k)
        bounds.append((fixed, moving) if sign == 1 else (moving, fixed))
    return _chain(bounds, label="simplex")


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
    through the running sum, so they test the u scaling and the carry."""
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
    for tag in ("p", "cp", "g", "eb"):
        a, b = class_volume(4, 4, tag), class_volume(4, 5, tag)
        assert a.hs_volume == b.hs_volume
        assert a.lambda_volume == b.lambda_volume
    assert region_for(4, 4, "cp").N == 4


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
    report = check_conjectures([3, 4, 5, 6], "3")
    assert report.all_match
    assert all(not e.extrapolated for e in report.entries)
    p_entries = [e for e in report.entries if e.name == "p"]
    assert len(p_entries) == 4
    assert p_entries[1].computed == SurdValue(Fraction(1, 9), 2)


def test_conjectures_integrate_the_box_once_per_dimension(monkeypatch):
    box_chains = []
    true_integrate = volume.integrate_chain

    def counted(chain):
        if chain.label == "p-box":
            box_chains.append(chain)
        return true_integrate(chain)

    monkeypatch.setattr(volume, "integrate_chain", counted)
    assert check_conjectures([4, 5, 6], "3").all_match
    assert len(box_chains) == 3


def test_conjectures_all_but_one_mode():
    assert check_conjectures([3, 4, 5], "d").all_match


def test_conjectures_bad_mode():
    with pytest.raises(ValueError, match="n_mode"):
        check_conjectures([2], "all")
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
}


@pytest.mark.parametrize(
    "d, N, samples, tag, hits",
    [(*key, tag, hits) for key, row in _MC_HITS_SEED_11.items() for tag, hits in row.items()],
)
def test_mc_hits_are_pinned(d, N, samples, tag, hits):
    assert mc_volume(d, N, tag, samples, seed=11).hits == hits


def test_mc_p_class_reproduces_exact_volume_bitwise():
    est = mc_volume(4, 3, "p", 50_000, seed=1)
    assert est.estimate == float(class_volume(4, 3, "p").hs_volume)
    assert est.stderr == 0.0
    assert est.hits == est.samples


def test_mc_tracks_exact_volume():
    for tag in ("cp", "g", "eb"):
        est = mc_volume(2, 3, tag, 400_000, seed=12)
        exact = float(class_volume(2, 3, tag).hs_volume)
        assert abs(est.estimate - exact) <= 4 * est.stderr


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
