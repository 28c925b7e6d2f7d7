"""Acceptance checks.

One test per acceptance criterion, each printing a single
``[criterion NN] PASS/FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing run). Tolerances and budgets are stated
inline; exact quantities are compared exactly.
"""

import functools
import time
from fractions import Fraction

import numpy as np
import pytest

from pauli_volumes.channel import (
    ChannelSpec,
    is_cp,
    is_positive_necessary,
    min_output_overlap,
)
from pauli_volumes.geometry import SurdValue, volume_prefactor, vp_volume
from pauli_volumes.mub import apply, build_weyl_mubs, unitaries_from_bases, verify_unbiased
from pauli_volumes.volume import (
    check_conjectures,
    class_volume,
    mc_volume,
    ratio_table,
    supported_n_values,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {num:02d}] PASS  {desc} ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, "full-family ratio table reproduced exactly for d=2..5, under 10s")
def test_criterion_1_ratio_table():
    expected = {
        2: (Fraction(1, 3), Fraction(3, 16), Fraction(1, 3)),
        3: (Fraction(1, 8), Fraction(64, 243), Fraction(1, 4)),
        4: (Fraction(1, 30), Fraction(1215, 4096), Fraction(1, 5)),
        5: (Fraction(1, 144), Fraction(24576, 78125), Fraction(1, 6)),
    }
    start = time.perf_counter()
    for d, (cp_p, g_cp, eb_g) in expected.items():
        table = ratio_table(d, d + 1)
        assert table["cp/p"] == cp_p
        assert table["g/cp"] == g_cp
        assert table["eb/g"] == eb_g
    assert time.perf_counter() - start < 10.0


@criterion(2, "qubit chamber integrals: per-wedge volume 1/18, total 1/3")
def test_criterion_2_qubit_chambers():
    result = class_volume(2, 3, "cp")
    wedge_lambda = sum(result.chain_volumes, Fraction(0))
    assert wedge_lambda == Fraction(4, 9)
    per_wedge_metric = volume_prefactor(2, 3) * wedge_lambda
    assert per_wedge_metric == SurdValue(Fraction(1, 18), 1)
    assert result.symmetry_factor == 6
    assert result.hs_volume == SurdValue(Fraction(1, 3), 1)


@criterion(3, "three-basis closed forms hold exactly for d=3..6, under 30s")
def test_criterion_3_three_basis_closed_forms():
    start = time.perf_counter()
    for d in (3, 4, 5, 6):
        assert class_volume(d, 3, "p").hs_volume == vp_volume(d, 3)
        table = ratio_table(d, 3)
        assert table["cp/p"] == Fraction(d, 24 * (d - 2))
        assert table["g/cp"] == Fraction((d * d - 1) * (d - 1) ** 3, d**5)
        assert table["eb/g"] == Fraction(1, d + 1)
    # at d=3 counting the fourth basis as used or left out is the same thing
    for tag in ("p", "cp", "g", "eb"):
        assert class_volume(3, 3, tag).hs_volume == class_volume(3, 4, tag).hs_volume
    assert time.perf_counter() - start < 30.0


@criterion(4, "full-family closed forms: exact for d=2..5, extrapolated d=6, "
             "g/cp increasing and below 0.36788 through d=8")
def test_criterion_4_full_family_conjectures():
    confirmed = check_conjectures([2, 3, 4, 5], "max")
    assert confirmed.all_match
    assert all(not e.extrapolated for e in confirmed.entries)
    beyond = check_conjectures([6], "max")
    assert beyond.all_match
    assert all(e.extrapolated for e in beyond.entries)
    ratios = [ratio_table(d, d + 1)["g/cp"] for d in range(2, 9)]
    for a, b in zip(ratios, ratios[1:]):
        assert a < b
    assert all(r < Fraction(36788, 100000) for r in ratios)


@criterion(5, "box volume from the integrator equals its closed form, d<=6")
def test_criterion_5_box_volume_closed_form():
    checked = 0
    for d in range(2, 7):
        for N in supported_n_values(d):
            assert class_volume(d, N, "p").hs_volume == vp_volume(d, N)
            checked += 1
    assert checked == 12


@criterion(6, "Monte Carlo within 3 stderr of exact for every class, d<=5, "
             "1e6 samples each, deterministic, under 60s")
def test_criterion_6_monte_carlo():
    start = time.perf_counter()
    combos = [(d, N) for d in range(2, 6) for N in supported_n_values(d)]
    assert len(combos) == 9
    for d, N in combos:
        for tag in ("p", "cp", "g", "eb"):
            est = mc_volume(d, N, tag, 1_000_000, seed=42)
            exact = float(class_volume(d, N, tag).hs_volume)
            assert abs(est.estimate - exact) <= 3.0 * est.stderr, (
                f"d={d} N={N} {tag}: {est.estimate} vs {exact} "
                f"(stderr {est.stderr})"
            )
    assert mc_volume(3, 4, "eb", 1_000_000, seed=42) == mc_volume(
        3, 4, "eb", 1_000_000, seed=42
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


@criterion(7, "Choi spectrum sign agrees with the exact CP test on 1e4 "
             "rational samples per d in {2,3,5}")
def test_criterion_7_choi_cross_check(choi_stack):
    n_samples = 10_000
    den = 1000
    rng = np.random.default_rng(2024)
    for d in (2, 3, 5):
        N = d + 1
        stack = choi_stack(d, N)  # N = d+1: no identity block, its weight is 0
        lo_num = -den // (d - 1)
        # half the samples sweep the whole box (mostly non-CP at large d),
        # half stay in a sub-box that always satisfies the CP constraints,
        # so both spectrum signs get exercised at every dimension
        nums = np.vstack(
            [
                rng.integers(lo_num, den + 1, size=(n_samples // 2, N)),
                rng.integers(0, den // (d + 1) + 1, size=(n_samples // 2, N)),
            ]
        )
        # exact CP slacks in integer arithmetic over the common denominator:
        # s1 = S + 1/(d-1), s2 = 1 + d*min - S, margin 1e-3 = 1/den
        s_num = nums.sum(axis=1, dtype=np.int64)
        s1_num = s_num * (d - 1) + den  # times den*(d-1)
        s2_num = den + d * nums.min(axis=1) - s_num  # times den
        surely_cp = (s1_num >= (d - 1)) & (s2_num >= 1)
        surely_not = (s1_num <= -(d - 1)) | (s2_num <= -1)
        # Choi spectra for all samples at once via the building-block stack
        lam = nums / den
        p0 = 1.0 - lam.sum(axis=1)
        probs = np.concatenate([p0[:, None], lam], axis=1)
        min_eig = np.empty(n_samples)
        for i in range(0, n_samples, 2000):
            chunk = np.tensordot(probs[i : i + 2000], stack, axes=1)
            min_eig[i : i + 2000] = np.linalg.eigvalsh(chunk).min(axis=1)
        assert np.all(min_eig[surely_cp] > -1e-9)
        assert np.all(min_eig[surely_not] < -1e-9)
        assert surely_cp.sum() > 100 and surely_not.sum() > 100
        # spot-check the integer slack filter against the exact predicate
        for idx in rng.integers(0, n_samples, size=50):
            spec = ChannelSpec.make(
                d, N, [Fraction(int(k), den) for k in nums[idx]]
            )
            if surely_cp[idx]:
                assert is_cp(spec)
            if surely_not[idx]:
                assert not is_cp(spec)


@criterion(8, "overlap criterion is exactly the necessary-positivity box on "
             "1e5 exact samples")
def test_criterion_8_overlap_identity():
    rng = np.random.default_rng(77)
    den = 1000
    cases = [(2, 3), (3, 3), (3, 4), (5, 3), (5, 6)]
    per_case = 20_000
    for d, N in cases:
        n = N if N == d + 1 else N + 1
        lo = -2 * den // (d - 1)
        nums = rng.integers(lo, 2 * den + 1, size=(per_case, n))
        for row in nums:
            spec = ChannelSpec.make(d, N, [Fraction(int(k), den) for k in row])
            assert (min_output_overlap(spec) >= 0) == is_positive_necessary(spec)


@criterion(9, "basis family verifies at 1e-10 for d in {2,3,5,7}; channel "
             "eigen-equations hold at 1e-9")
def test_criterion_9_basis_construction():
    for d in (2, 3, 5, 7):
        report = verify_unbiased(build_weyl_mubs(d), tol=1e-10)
        assert report.passed
        assert report.max_orthonormality_deviation < 1e-10
    rng = np.random.default_rng(31)
    for d, N in ((3, 4), (5, 3)):
        m = build_weyl_mubs(d)
        n_coords = N if N == d + 1 else N + 1
        vals = [
            Fraction(-1, d - 1)
            + Fraction(d, d - 1) * Fraction(int(rng.integers(0, 101)), 100)
            for _ in range(n_coords)
        ]
        spec = ChannelSpec.make(d, N, vals)
        groups = unitaries_from_bases(m)
        for alpha, group in enumerate(groups[:N]):
            for op in group[1:]:
                out = apply(spec, m, op)
                assert np.max(np.abs(out - float(spec.lambdas[alpha]) * op)) < 1e-9
        for group in groups[N:]:
            for op in group[1:]:
                out = apply(spec, m, op)
                assert np.max(np.abs(out - float(spec.lam_rest) * op)) < 1e-9
