"""Exact integration, class volumes, closed-form checks, Monte Carlo."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from pauli_volumes.geometry import SurdValue, vp_volume
from pauli_volumes.regions import AffineExpr, BoundChain, chambers
from pauli_volumes.volume import (
    ChamberInconsistency,
    McEstimate,
    MultiPoly,
    check_conjectures,
    class_volume,
    closed_form_ratios,
    integrate_chain,
    mc_volume,
    ratio_table,
    region_for,
    supported_n_values,
    volume_ratio,
)


def _const(v):
    return AffineExpr(Fraction(v))


def _chain(bounds, label="t"):
    return BoundChain(len(bounds), tuple(bounds), label=label)


# --------------------------------------------------------------------------
# polynomial engine
# --------------------------------------------------------------------------


def test_multipoly_arithmetic_agrees_with_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 4))

        def rand_poly():
            p = MultiPoly(n)
            for _ in range(int(rng.integers(1, 5))):
                exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
                p = p + MultiPoly(n, {exps: Fraction(int(rng.integers(-5, 6)))})
            return p

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        point = [Fraction(int(x), 7) for x in rng.integers(-10, 11, size=n)]
        lhs = ((a + b) * c).evaluate(point)
        rhs = (a * c).evaluate(point) + (b * c).evaluate(point)
        assert lhs == rhs
        assert (a * 3).evaluate(point) == 3 * a.evaluate(point)
        assert (a - a).evaluate(point) == 0


def test_substitute_is_evaluation_composition():
    rng = np.random.default_rng(1)
    n = 3
    p = MultiPoly(n, {(2, 1, 0): Fraction(3), (0, 0, 2): Fraction(-1, 2), (1, 0, 1): Fraction(5)})
    expr = AffineExpr(Fraction(1, 3), (Fraction(2), Fraction(-1)))  # affine in x0, x1
    q = p.substitute(2, expr)
    for _ in range(20):
        x0, x1 = (Fraction(int(v), 9) for v in rng.integers(-8, 9, size=2))
        x2 = expr.evaluate((x0, x1))
        assert q.evaluate((x0, x1, Fraction(0))) == p.evaluate((x0, x1, x2))
    with pytest.raises(ValueError, match="later"):
        p.substitute(0, AffineExpr(Fraction(0), (Fraction(1),)))


def test_antiderivative_on_monomial():
    p = MultiPoly(2, {(2, 3): Fraction(12)})
    q = p.antiderivative(1)
    assert q.terms == {(2, 4): Fraction(3)}


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
    ch = chambers(2, 3, "g").chains[0]
    base = integrate_chain(ch)
    assert integrate_chain(ch.scaled(Fraction(3, 2))) == base * Fraction(3, 2) ** 3


def test_inconsistent_chain_raises_with_label():
    bad = _chain([(_const(1), _const(0))], label="upside-down")
    with pytest.raises(ChamberInconsistency, match="upside-down"):
        integrate_chain(bad)


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
    with pytest.raises(ValueError, match="d must be"):
        class_volume(1, 3, "cp")
    with pytest.raises(ValueError, match="supported N"):
        class_volume(5, 4, "cp")
    with pytest.raises(ValueError, match="class tag"):
        class_volume(3, 4, "x")


def test_dimension_cap_env(monkeypatch):
    monkeypatch.setenv("PV_MAX_D", "3")
    with pytest.raises(ValueError, match="PV_MAX_D"):
        class_volume(4, 5, "cp")
    monkeypatch.setenv("PV_MAX_D", "abc")
    with pytest.raises(ValueError, match="PV_MAX_D must be an integer"):
        class_volume(4, 5, "cp")
    monkeypatch.setenv("PV_MAX_D", "4")
    assert class_volume(4, 5, "cp").lambda_volume > 0


def test_volume_ratio_cross_route():
    # irrational prefactors cancel: the ratio route through metric volumes
    # must agree with the plain eigenvalue-volume ratio
    assert volume_ratio(4, 3, "cp", "p") == Fraction(1, 12)
    assert volume_ratio(4, 3, "eb", "g") == Fraction(1, 5)


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


def test_conjectures_three_basis_mode():
    report = check_conjectures([3, 4, 5, 6], "3")
    assert report.all_match
    assert all(not e.extrapolated for e in report.entries)
    p_entries = [e for e in report.entries if e.name == "p"]
    assert len(p_entries) == 4
    assert p_entries[1].computed == SurdValue(Fraction(1, 9), 2)


def test_conjectures_all_but_one_mode():
    assert check_conjectures([3, 4, 5], "d").all_match


def test_conjectures_bad_mode():
    with pytest.raises(ValueError, match="n_mode"):
        check_conjectures([2], "all")


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
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            mc_volume(2, 3, "cp", 10_000, seed=seed)


def test_mc_estimate_type():
    est = mc_volume(2, 3, "eb", 10_000, seed=3)
    assert isinstance(est, McEstimate)
    assert est.samples == 10_000
    assert 0 <= est.hits <= est.samples
