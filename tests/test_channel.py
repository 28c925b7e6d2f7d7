"""Channel coordinates, class predicates, and the numerical channel action."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_volumes.channel import (
    ChannelSpec,
    eb_known_sufficient,
    is_cp,
    is_eb_necessary,
    is_generator_achievable,
    is_positive_necessary,
    min_output_overlap,
    mixing_weights,
)
from pauli_volumes.mub import MubSet, apply, choi_state, unitaries_from_bases


def _spec(d, N, vals):
    return ChannelSpec.make(d, N, [Fraction(v) for v in vals])


def _rng_rational_spec(rng, d, N, den=1000, lo=None, hi=None):
    """Random exact eigenvalues with denominator ``den`` in the box."""
    lo = Fraction(-1, d - 1) if lo is None else lo
    hi = Fraction(1) if hi is None else hi
    n = N if N == d + 1 else N + 1
    span = hi - lo
    vals = [lo + span * Fraction(int(rng.integers(0, den + 1)), den) for _ in range(n)]
    return ChannelSpec.make(d, N, vals)


# --------------------------------------------------------------------------
# coordinates
# --------------------------------------------------------------------------


@given(
    dn=st.sampled_from([(2, 3), (3, 3), (3, 4), (5, 3), (5, 6)]),
    data=st.data(),
)
def test_probability_eigenvalue_round_trip_is_exact(dn, data):
    d, N = dn
    weights = data.draw(
        st.lists(st.integers(0, 50), min_size=N + 2, max_size=N + 2).filter(
            lambda w: sum(w) > 0
        )
    )
    if N == d + 1:
        weights[N + 1] = 0
        if sum(weights) == 0:
            weights[0] = 1
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    # lambda_alpha = p_{N+1} + p_alpha, lambda_{N+1} = p_{N+1}
    rest = probs[N + 1]
    spec = ChannelSpec(d, N, tuple(rest + p for p in probs[1 : N + 1]) + (rest,))
    assert mixing_weights(spec) == probs
    assert sum(mixing_weights(spec)) == 1


def test_float_input_rejected():
    with pytest.raises(TypeError, match="[Ff]loat"):
        ChannelSpec.make(2, 3, [0.5, 0, 0])


def test_bool_eigenvalue_rejected():
    """A bool is an int to Python, but no eigenvalue: True would read as 1."""
    for flag in (True, False):
        with pytest.raises(TypeError, match="bool"):
            ChannelSpec(2, 3, [flag, 0, 0, 0])


def test_decimal_eigenvalue_rejected():
    """A Decimal would bypass the parser's limits: 1e5000 would build a
    5001-digit numerator whose repr then fails. A Decimal of any size is
    refused; the same digits as a string are read."""
    for value in (Decimal("1e5000"), Decimal("0.25")):
        with pytest.raises(TypeError, match="Decimal"):
            ChannelSpec(3, 4, [value, 0, 0, 0, 0])
    assert ChannelSpec(3, 4, ["0.25", 0, 0, 0, 0]).lambdas[0] == Fraction(1, 4)


def test_string_eigenvalues_have_the_parser_limits():
    # an exponent past the digit limit is refused before it is expanded
    with pytest.raises(ValueError, match="exponent"):
        ChannelSpec(3, 4, ["1e5000", 0, 0, 0, 0])
    with pytest.raises(ValueError, match="not a rational"):
        ChannelSpec(2, 3, ["1/0", 0, 0, 0])
    spec = ChannelSpec(3, 4, ["1/3", 1, Fraction(-1, 2), " 0.25 ", 0])
    assert spec.lambdas == (Fraction(1, 3), 1, Fraction(-1, 2), Fraction(1, 4), 0)


def test_spec_validation():
    with pytest.raises(ValueError, match="d must be"):
        _spec(1, 3, [0, 0, 0, 0])
    with pytest.raises(ValueError, match="N must"):
        _spec(3, 2, [0, 0, 0])
    with pytest.raises(ValueError, match="N must be an integer"):
        ChannelSpec(4, 4.0, [0] * 5)
    with pytest.raises(ValueError, match="lambda"):
        ChannelSpec(2, 3, (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    # trailing zero optional only when every basis is used
    assert _spec(2, 3, [1, 1, 1]).lambdas == _spec(2, 3, [1, 1, 1, 0]).lambdas
    with pytest.raises(ValueError, match="eigenvalues"):
        _spec(3, 3, [0, 0, 0])


# --------------------------------------------------------------------------
# class predicates
# --------------------------------------------------------------------------


def test_is_cp_examples():
    assert is_cp(_spec(2, 3, [1, 1, 1]))  # identity channel
    assert not is_cp(_spec(2, 3, [1, 1, -1]))
    assert is_cp(_spec(2, 3, [0, 0, 0]))  # full depolarizing
    assert is_cp(_spec(2, 3, [Fraction(-1, 3)] * 3))  # S at its lower edge
    assert not is_cp(_spec(2, 3, [Fraction(-1, 3) - Fraction(1, 100)] * 3))
    # with a basis left out the shared eigenvalue participates in the minimum
    assert is_cp(_spec(3, 3, [0, 0, 0, 0]))
    assert not is_cp(_spec(3, 3, [1, 1, 1, -1]))


def test_positive_necessary_watches_used_bases_only():
    assert is_positive_necessary(_spec(2, 3, [1, 1, 1]))
    assert is_positive_necessary(_spec(2, 3, [-1, 1, 1]))  # -1/(d-1) boundary
    assert not is_positive_necessary(_spec(2, 3, [Fraction(-101, 100), 1, 1]))
    assert not is_positive_necessary(_spec(2, 3, [1, Fraction(101, 100), 1]))
    # the left-out direction's eigenvalue is not part of the output-overlap test
    assert is_positive_necessary(_spec(3, 3, [0, 0, 0, -5]))


def test_overlap_sign_matches_positivity_box():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        N = int(rng.integers(3, d + 2))
        spec = _rng_rational_spec(
            rng, d, N, den=40, lo=Fraction(-2, d - 1), hi=Fraction(2)
        )
        assert (min_output_overlap(spec) >= 0) == is_positive_necessary(spec)


def test_cp_implies_positive_necessary():
    rng = np.random.default_rng(5)
    found_cp = 0
    for _ in range(4000):
        spec = _rng_rational_spec(
            rng, 3, 4, den=60, lo=Fraction(-3, 4), hi=Fraction(3, 2)
        )
        if is_cp(spec):
            found_cp += 1
            assert is_positive_necessary(spec)
    assert found_cp > 50  # the sample actually exercised the implication


def test_min_output_overlap_against_brute_force(mub_cache):
    """The closed form equals the worst overlap over actual projector pairs."""
    rng = np.random.default_rng(3)
    for d, N in ((3, 4), (3, 3), (2, 3)):
        m = mub_cache(d)
        for _ in range(8):
            spec = _rng_rational_spec(rng, d, N, den=30)
            worst = np.inf
            for beta in range(N):
                for q in m.projectors(beta):
                    out = apply(spec, m, q)
                    for alpha in range(N):
                        for p in m.projectors(alpha):
                            worst = min(worst, float(np.trace(out @ p).real))
            assert abs(worst - float(min_output_overlap(spec))) < 1e-8


def test_generator_achievable_and_eb():
    assert is_generator_achievable(_spec(2, 3, [Fraction(1, 2), 0, 1]))
    assert not is_generator_achievable(_spec(2, 3, [Fraction(-1, 100), 1, 1]))
    # the left-out eigenvalue counts
    assert not is_generator_achievable(_spec(3, 3, [0, 0, 0, Fraction(-1, 10)]))

    c = _spec(2, 3, [Fraction(1, 4)] * 3)
    assert is_eb_necessary(c) and eb_known_sufficient(c)
    assert not is_eb_necessary(_spec(2, 3, [1, 1, 1]))
    # sum test alone is not known to decide it with several bases left out
    c = _spec(5, 3, [Fraction(1, 10)] * 4)
    assert is_eb_necessary(c) and not eb_known_sufficient(c)
    # negative eigenvalues also void the sufficiency guarantee
    c = _spec(2, 3, [Fraction(-1, 10), 0, 0])
    assert is_eb_necessary(c) and not eb_known_sufficient(c)


def test_eigenvalue_sum_weights_left_out_directions():
    assert _spec(5, 3, [1, 1, 1, Fraction(1, 3)]).eigenvalue_sum() == 4
    assert _spec(2, 3, [1, 1, 1]).eigenvalue_sum() == 3


# --------------------------------------------------------------------------
# channel action
# --------------------------------------------------------------------------


def _random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_apply_identity_channel_is_identity_map(mub_cache):
    rng = np.random.default_rng(0)
    for d, N in ((2, 3), (3, 4), (5, 3)):
        spec = _spec(d, N, [1] * (N if N == d + 1 else N + 1))
        rho = _random_state(rng, d)
        np.testing.assert_allclose(apply(spec, mub_cache(d), rho), rho, atol=1e-12)


def test_apply_zero_eigenvalues_is_depolarizing(mub_cache):
    rng = np.random.default_rng(1)
    for d, N in ((2, 3), (3, 3)):
        spec = _spec(d, N, [0] * (N if N == d + 1 else N + 1))
        rho = _random_state(rng, d)
        np.testing.assert_allclose(
            apply(spec, mub_cache(d), rho), np.eye(d) / d, atol=1e-12
        )


def test_apply_eigen_equation_on_operator_basis(mub_cache):
    """The basis unitaries are eigenoperators: the group of used basis alpha
    gets eigenvalue lambda_alpha, the groups of the left-out bases share
    lambda_{N+1}."""
    rng = np.random.default_rng(2)
    for d, N in ((3, 4), (5, 3)):
        m = mub_cache(d)
        spec = _rng_rational_spec(rng, d, N, den=20)
        groups = unitaries_from_bases(m)
        for alpha, group in enumerate(groups[:N]):
            lam = float(spec.lambdas[alpha])
            for op in group[1:]:
                np.testing.assert_allclose(apply(spec, m, op), lam * op, atol=1e-9)
        lam_rest = float(spec.lam_rest)
        for group in groups[N:]:
            for op in group[1:]:
                np.testing.assert_allclose(apply(spec, m, op), lam_rest * op, atol=1e-9)


def test_apply_matches_mixed_unitary_average(mub_cache):
    """A channel that keeps only basis alpha acts as the average over that
    basis group's unitary conjugations."""
    d, N, alpha = 3, 4, 2
    m = mub_cache(d)
    lams = [Fraction(1) if b == alpha else Fraction(0) for b in range(N)]
    spec = _spec(d, N, lams)
    group = unitaries_from_bases(m)[alpha]
    rho = _random_state(np.random.default_rng(4), d)
    avg = sum(u @ rho @ u.conj().T for u in group) / d
    np.testing.assert_allclose(apply(spec, m, rho), avg, atol=1e-12)


def test_apply_validates_dimensions(mub_cache):
    spec = _spec(3, 4, [1, 1, 1, 1])
    with pytest.raises(ValueError, match="dimension"):
        apply(spec, mub_cache(2), np.eye(3) / 3)
    with pytest.raises(ValueError, match="shape"):
        apply(spec, mub_cache(3), np.eye(2) / 2)
    with pytest.raises(ValueError, match="bases"):
        apply(_spec(5, 6, [1] * 6), MubSet(5, mub_cache(5).bases[:4]), np.eye(5) / 5)


# --------------------------------------------------------------------------
# Choi matrices
# --------------------------------------------------------------------------


def test_choi_of_depolarizing_is_maximally_mixed(mub_cache):
    spec = _spec(3, 4, [0, 0, 0, 0])
    np.testing.assert_allclose(
        choi_state(spec, mub_cache(3)), np.eye(9) / 9, atol=1e-12
    )


def test_choi_of_identity_is_pure(mub_cache):
    spec = _spec(2, 3, [1, 1, 1])
    choi = choi_state(spec, mub_cache(2))
    eigs = np.linalg.eigvalsh(choi)
    np.testing.assert_allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_choi_basis_contraction_matches_direct_choi(mub_cache, choi_stack):
    """The Choi matrix is linear in the mixing weights: contracting them with
    the building-block stack gives the direct Choi matrix."""
    rng = np.random.default_rng(6)
    for d, N in ((2, 3), (3, 3), (3, 4)):
        m = mub_cache(d)
        stack = choi_stack(d, N)
        assert stack.shape == (N + 1 if N == d + 1 else N + 2, d * d, d * d)
        for _ in range(5):
            spec = _rng_rational_spec(rng, d, N, den=25)
            probs = np.array([float(p) for p in mixing_weights(spec)])
            via_stack = np.tensordot(probs[: len(stack)], stack, axes=1)
            np.testing.assert_allclose(
                via_stack, choi_state(spec, m), atol=1e-10
            )


def test_is_cp_matches_choi_spectrum(mub_cache):
    rng = np.random.default_rng(7)
    for d, N in ((2, 3), (3, 4)):
        m = mub_cache(d)
        for _ in range(40):
            spec = _rng_rational_spec(rng, d, N, den=15)
            min_eig = float(np.linalg.eigvalsh(choi_state(spec, m)).min())
            if is_cp(spec):
                assert min_eig > -1e-10
            else:
                assert min_eig < 1e-10


def test_all_bases_vs_all_but_one_parameterize_the_same_map(mub_cache):
    """At d = 3 the same eigenvalue vector describes one map whether the
    fourth basis is counted as used or left out."""
    m = mub_cache(3)
    vals = [Fraction(1, 2), Fraction(-1, 5), Fraction(3, 10), Fraction(1, 10)]
    as_n3 = ChannelSpec.make(3, 3, vals)
    as_n4 = ChannelSpec.make(3, 4, vals)
    rho = _random_state(np.random.default_rng(8), 3)
    np.testing.assert_allclose(apply(as_n3, m, rho), apply(as_n4, m, rho), atol=1e-12)
    np.testing.assert_allclose(
        choi_state(as_n3, m), choi_state(as_n4, m), atol=1e-12
    )
    assert is_cp(as_n3) == is_cp(as_n4)
    assert as_n3.eigenvalue_sum() == as_n4.eigenvalue_sum()
