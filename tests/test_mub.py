"""Basis construction: unbiasedness, operator groups, channel building blocks."""

import pickle

import numpy as np
import pytest

from pauli_volumes.mub import (
    MubSet,
    build_weyl_mubs,
    unitaries_from_bases,
    verify_unbiased,
)

PRIMES = (2, 3, 5, 7)


def test_qubit_bases_are_the_standard_three():
    m = build_weyl_mubs(2)
    assert m.n_bases == 3
    np.testing.assert_allclose(m.bases[0], np.eye(2), atol=1e-15)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(m.bases[1], [[s, 1j * s], [s, -1j * s]], atol=1e-15)
    np.testing.assert_allclose(m.bases[2], [[s, s], [s, -s]], atol=1e-15)


@pytest.mark.parametrize("d", (2, 3))
def test_cross_basis_overlap_is_one_over_d(d, mub_cache):
    m = mub_cache(d)
    for a in range(m.n_bases):
        for b in range(a + 1, m.n_bases):
            gram = np.abs(m.bases[a].conj() @ m.bases[b].T) ** 2
            np.testing.assert_allclose(gram, 1.0 / d, atol=1e-12)


@pytest.mark.parametrize("d", (1, 4, 6, 9, 5.0, True))
def test_non_prime_dimension_rejected(d):
    with pytest.raises(ValueError, match="prime"):
        build_weyl_mubs(d)


@pytest.mark.parametrize("d", PRIMES)
def test_complete_family_verifies_tightly(d, mub_cache):
    report = verify_unbiased(mub_cache(d), tol=1e-10)
    assert report.passed
    assert report.n_bases == d + 1
    assert report.max_cross_deviation < 1e-12
    assert report.max_orthonormality_deviation < 1e-12
    assert len(report.pair_deviations) == (d + 1) * d // 2


def test_duplicate_basis_fails_verification():
    m = build_weyl_mubs(3)
    broken = MubSet(3, (m.bases[0], m.bases[0], m.bases[1]))
    report = verify_unbiased(broken)
    assert not report.passed
    # the duplicated pair has |<e_i|e_j>|^2 = delta_ij, nowhere near 1/d
    assert report.pair_deviations[(0, 1)] > 0.5


def test_unbiased_family_of_non_bases_fails_verification():
    """A "basis" made of one vector three times is unbiased to the other
    two bases, but it is not orthonormal, so the family is not a MUB set."""
    b0, b1, b2 = build_weyl_mubs(3).bases[:3]
    broken = MubSet(3, (b0, np.repeat(b1[:1], 3, axis=0), b2))
    report = verify_unbiased(broken)
    assert report.max_cross_deviation < 1e-12
    assert report.max_orthonormality_deviation == pytest.approx(1.0)
    assert not report.passed


@pytest.mark.parametrize("tol", (float("nan"), float("inf"), -1.0, 0.0))
def test_tolerance_must_be_finite_and_positive(tol):
    # nan would fail every family and inf would pass any
    with pytest.raises(ValueError, match="tol"):
        verify_unbiased(build_weyl_mubs(2), tol=tol)


def test_first_nonzero_component_is_real_positive():
    for d in PRIMES:
        for basis in build_weyl_mubs(d).bases:
            for row in basis:
                lead = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0


@pytest.mark.parametrize("d", (2, 3, 5))
def test_operator_family_is_unitary_and_trace_orthogonal(d, mub_cache):
    groups = unitaries_from_bases(mub_cache(d))
    ops = [np.eye(d)] + [op for group in groups for op in group[1:]]
    assert len(ops) == d * d
    eye = np.eye(d)
    for op in ops:
        np.testing.assert_allclose(op @ op.conj().T, eye, atol=1e-12)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            inner = np.trace(a.conj().T @ b)
            expected = d if i == j else 0.0
            assert abs(inner - expected) < 1e-10


@pytest.mark.parametrize("d", (2, 3, 5))
def test_unitary_group_powers_close(d, mub_cache):
    """U_alpha^k is the k-th power of U_alpha^1; the group is cyclic."""
    for group in unitaries_from_bases(mub_cache(d)):
        gen = group[1]
        acc = np.eye(d, dtype=complex)
        for k in range(d):
            np.testing.assert_allclose(acc, group[k], atol=1e-10)
            acc = acc @ gen


def test_subset_family_keeps_its_own_groups(mub_cache):
    """A family of bases (0, 2, 3) gets exactly groups 0, 2 and 3 of the
    complete family, whatever bases it skips."""
    m = mub_cache(5)
    full = unitaries_from_bases(m)
    groups = unitaries_from_bases(MubSet(5, (m.bases[0], m.bases[2], m.bases[3])))
    assert len(groups) == 3
    for group, alpha in zip(groups, (0, 2, 3)):
        assert len(group) == 5
        for op, expected in zip(group, full[alpha]):
            assert np.array_equal(op, expected)


def test_family_requires_at_least_three_bases(mub_cache):
    with pytest.raises(ValueError, match="between 3"):
        MubSet(5, mub_cache(5).bases[:2])
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        MubSet(1, (np.eye(1),) * 3)
    with pytest.raises(ValueError, match="shape"):
        MubSet(5, mub_cache(5).bases[:3] + (np.eye(4),))


def test_family_is_an_immutable_value():
    """Families compare by their basis entries, which numpy cannot hash,
    survive a pickle round trip, and no field can be assigned."""
    m = build_weyl_mubs(3)
    assert m == build_weyl_mubs(3)
    assert pickle.loads(pickle.dumps(m)) == m
    assert m != MubSet(3, (m.bases[0], m.bases[0], m.bases[1]))
    with pytest.raises(TypeError):
        hash(m)
    with pytest.raises(AttributeError):
        m.d = 5
