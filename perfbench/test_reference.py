"""The benchmark's reference agrees with the package it checks.

    python3 -m pytest perfbench/test_reference.py -q

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402

pv = pytest.importorskip("pauli_volumes")

CASES = [(d, N, cls) for d in range(2, 9) for N in ref.supported(d) for cls in ref.CLASSES]


def test_supported_counts_match_the_package():
    for d in range(2, 9):
        assert ref.supported(d) == tuple(sorted(pv.supported_n_values(d)))


@pytest.mark.parametrize("d,N,cls", CASES)
def test_closed_forms_match_class_volume(d, N, cls):
    got = pv.class_volume(d, N, cls)
    assert got.lambda_volume == ref.lambda_volume(d, N, cls)
    assert ref.is_metric_volume(got.hs_volume.coeff, got.hs_volume.radicand, d, N, cls)


@pytest.mark.parametrize("d", range(3, 9))
def test_cp_vertices_satisfy_the_cp_inequalities(d):
    for N in ref.supported(d):
        for vertex in ref.cp_vertices(d, N):
            lams = vertex + ([Fraction(0)] if N == d + 1 else [])
            assert ref.classify(d, N, lams)["cp"]
            assert pv.is_cp(pv.ChannelSpec.make(d, N, lams))


def test_hits_window_contains_the_mean_and_narrows_with_samples():
    lo, hi = ref.hits_window(10**6, 0.01)
    assert lo < 10**4 < hi
    lo2, hi2 = ref.hits_window(10**8, 0.01)
    assert (hi2 - lo2) / 10**6 < (hi - lo) / 10**4
