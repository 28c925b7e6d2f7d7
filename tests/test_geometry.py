"""Surd arithmetic and the flat metric on eigenvalue space."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_volumes.channel import ChannelSpec
from pauli_volumes.geometry import (
    SurdValue,
    metric,
    volume_prefactor,
    vp_volume,
    weights,
)
from pauli_volumes.mub import build_weyl_mubs, choi_state
from pauli_volumes.rationals import decimal_str, parse_rational, surd_decimal_str

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)
surds = st.builds(
    SurdValue, coeff=rationals, radicand=st.integers(min_value=0, max_value=200)
)


def test_square_factors_move_into_the_coefficient():
    v = SurdValue(Fraction(1), 8)
    assert (v.coeff, v.radicand) == (Fraction(2), 2)
    assert str(v) == "2/1*sqrt(2)"
    assert SurdValue(Fraction(3), 1).is_rational
    assert SurdValue(Fraction(0), 7) == SurdValue(Fraction(0), 1)
    assert SurdValue(Fraction(5), 0) == SurdValue(Fraction(0), 1)
    # a radicand is never truncated: 2.5 is not sqrt(2), and 8.9 is not 2*sqrt(2)
    for radicand in (2.5, 8.9):
        with pytest.raises(TypeError, match="radicand"):
            SurdValue(Fraction(1), radicand)
    with pytest.raises(TypeError, match="floating-point"):
        SurdValue(0.5, 2)
    with pytest.raises(ValueError, match="non-negative"):
        SurdValue(Fraction(1), -2)


def test_sqrt_constructor():
    v = SurdValue.sqrt(Fraction(2, 9))
    assert (v.coeff, v.radicand) == (Fraction(1, 3), 2)
    assert SurdValue.sqrt(Fraction(1, 4)) == SurdValue(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        SurdValue.sqrt(Fraction(-1))
    # sqrt(q)^2 == q with a non-square-free denominator too
    q = Fraction(7, 12)
    r = SurdValue.sqrt(q)
    assert (r * r).as_fraction() == q


def test_rational_interop_and_division():
    v = SurdValue(Fraction(3, 4), 5)
    assert v * Fraction(2) == SurdValue(Fraction(3, 2), 5)
    assert 2 * v == v * 2
    assert float(v) == pytest.approx(0.75 * 5**0.5)


def test_as_fraction_refuses_irrational():
    with pytest.raises(ValueError):
        SurdValue(Fraction(1), 2).as_fraction()


def test_rational_decimal_is_rounded_once():
    # rounding to 30 digits first would carry the ...9149999... tail up to ...92
    q = Fraction(1234567890123456789149999999999, 10**31)
    assert surd_decimal_str(q, 1) == decimal_str(q) == "0.12345678901234567891"
    with pytest.raises(ValueError, match="non-negative"):
        surd_decimal_str(q, -1)


def test_parse_rational_rejects_a_float():
    assert parse_rational(" 3/6 ") == Fraction(1, 2)
    with pytest.raises(TypeError, match="floating-point"):
        parse_rational(0.5)


@given(a=surds, b=surds)
def test_product_is_canonical_and_consistent(a, b):
    p = a * b
    # canonical form: square-free radicand, zero represented one way
    assert p == SurdValue(p.coeff, p.radicand)
    if p.coeff:
        assert p.radicand >= 1
    else:
        assert p.radicand == 1
    assert float(p) == pytest.approx(float(a) * float(b), rel=1e-9, abs=1e-12)


@given(a=surds)
def test_square_matches_rational_square(a):
    sq = a * a
    assert sq.is_rational
    assert sq.as_fraction() == a.coeff**2 * a.radicand


def test_coordinate_weights():
    assert weights(2, 3) == (1, 1, 1)
    assert weights(4, 5) == (1,) * 5
    assert weights(4, 4) == (1,) * 5
    assert weights(5, 3) == (1, 1, 1, 3)
    for d in range(2, 9):
        for N in range(3, d + 2):
            assert sum(weights(d, N)) == d + 1
    for d in (1, True):
        with pytest.raises(ValueError, match="d must be an integer >= 2"):
            weights(d, 3)
    with pytest.raises(ValueError, match="3 <= N <= d[+]1"):
        weights(4, 6)
    for N in (3.5, True):
        with pytest.raises(ValueError, match="N must be an integer"):
            weights(4, N)


def test_metric_diagonals():
    assert metric(2, 3) == (Fraction(1, 4),) * 3
    assert metric(3, 4) == (Fraction(2, 9),) * 4
    assert metric(4, 3) == (Fraction(3, 16), Fraction(3, 16), Fraction(3, 16), Fraction(3, 8))
    # one basis left out: the shared direction carries weight d+1-N = 2
    assert metric(5, 4)[-1] == Fraction(4, 25) * 2


def test_prefactor_goldens():
    assert volume_prefactor(2, 3) == SurdValue(Fraction(1, 8), 1)
    assert volume_prefactor(3, 4) == SurdValue(Fraction(4, 81), 1)
    assert volume_prefactor(4, 3) == SurdValue(Fraction(9, 256), 2)


@pytest.mark.parametrize("d", range(2, 9))
def test_prefactor_squared_is_metric_determinant(d):
    for N in {3, d, d + 1}:
        if N < 3 or N > d + 1 or (d == 2 and N != 3):
            continue
        sq = volume_prefactor(d, N) * volume_prefactor(d, N)
        assert sq.is_rational
        assert sq.as_fraction() == prod(metric(d, N))


@pytest.mark.parametrize(
    "d, N", [(d, N) for d in (2, 3, 5) for N in range(3, d + 2)]
)
def test_metric_is_the_frobenius_gram_matrix_of_choi_directions(d, N):
    """The Hilbert-Schmidt metric is read off the channels themselves: the
    Choi directions C(e_i) - C(0), one per eigenvalue coordinate, are
    orthogonal under the Frobenius product with squared lengths metric(d, N).
    For N = d+1 the coordinates are lambda_1..lambda_N and lambda_{N+1}
    stays 0; for N <= d they include lambda_{N+1}."""
    m = build_weyl_mubs(d)
    g = metric(d, N)

    def choi(i):
        lambdas = [0] * (N + 1)
        if i is not None:
            lambdas[i] = 1
        return choi_state(ChannelSpec(d, N, lambdas), m)

    origin = choi(None)
    directions = [choi(i) - origin for i in range(len(g))]
    gram = np.array([[np.vdot(a, b) for b in directions] for a in directions])
    assert np.abs(gram - np.diag([float(x) for x in g])).max() < 1e-12


def test_box_volume_closed_form():
    assert vp_volume(2, 3) == SurdValue(Fraction(1), 1)
    assert vp_volume(3, 4) == SurdValue(Fraction(1, 4), 1)
    assert vp_volume(6, 3) == SurdValue(Fraction(2, 25), 1)
    assert vp_volume(4, 3) == SurdValue(Fraction(1, 9), 2)


def test_dimension_validation():
    for fn in (metric, volume_prefactor, vp_volume):
        with pytest.raises(ValueError):
            fn(1, 3)
        with pytest.raises(ValueError):
            fn(4, 6)
        with pytest.raises(ValueError):
            fn(4, 2)
