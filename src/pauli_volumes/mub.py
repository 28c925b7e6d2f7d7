"""Mutually unbiased bases, the unitary groups they generate, and the
numerical channel action.

For a prime dimension ``d`` this module constructs the complete family of
``d + 1`` mutually unbiased bases (MUBs): the computational basis together
with the eigenbases of the shift-and-phase unitaries ``X Z^a``. Two
orthonormal bases ``{|psi_j>}`` and ``{|phi_k>}`` are mutually unbiased when
``|<psi_j|phi_k>|^2 = 1/d`` for every cross pair.

Each basis also generates a cyclic group of unitaries

    U_alpha^k = sum_j omega^{j k} P_j^{(alpha)},   omega = exp(2 pi i / d),

and the non-identity members of all d+1 groups, together with the identity,
form a trace-orthogonal basis of d x d operator space. A channel built from
the first N bases has the first N groups as eigenoperators with eigenvalues
lambda_1..lambda_N, and the remaining groups of the complete family share
lambda_{N+1}.

Everything in this module is floating-point verification scaffolding:
:func:`apply` and :func:`choi_state` evaluate a channel on matrices so that
spectra can cross-check the exact predicates of :mod:`.channel`. Channel
classification and volume computation run in exact rational arithmetic and
never depend on these matrices.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, mixing_weights
from .geometry import is_int, read_only

DEFAULT_TOL = 1e-10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class MubSet:
    """A family of orthonormal bases of C^d, stored as row-vector matrices.

    ``bases[alpha][k]`` is the k-th vector of basis ``alpha``. Structural
    shape is validated on construction; unbiasedness itself is a property
    checked by :func:`verify_unbiased`, so deliberately broken sets can be
    represented and reported on.
    """

    __slots__ = ("d", "bases")
    d: int
    bases: tuple[np.ndarray, ...]

    def __init__(self, d: int, bases: tuple[np.ndarray, ...]) -> None:
        if d < 2:
            raise ValueError(f"dimension must be >= 2 (got {d})")
        if not 3 <= len(bases) <= d + 1:
            raise ValueError(f"need between 3 and d+1={d + 1} bases (got {len(bases)})")
        for b in bases:
            if b.shape != (d, d):
                raise ValueError(f"basis matrix shape {b.shape} != ({d}, {d})")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bases", bases)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other) -> bool:
        if type(other) is not MubSet:
            return NotImplemented
        return self.d == other.d and len(self.bases) == len(other.bases) and all(
            np.array_equal(a, b) for a, b in zip(self.bases, other.bases)
        )

    __hash__ = None  # the bases are numpy arrays, which do not hash

    def __repr__(self) -> str:
        return f"MubSet(d={self.d!r}, bases={self.bases!r})"

    def __reduce__(self):
        return MubSet, (self.d, self.bases)

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def projectors(self, alpha: int) -> np.ndarray:
        """Rank-1 projectors of basis ``alpha`` as a (d, d, d) stack."""
        b = self.bases[alpha]
        return np.einsum("ki,kj->kij", b, b.conj())


class MubReport(NamedTuple):
    """Outcome of an unbiasedness check."""

    d: int
    n_bases: int
    tol: float
    max_cross_deviation: float
    max_orthonormality_deviation: float
    pair_deviations: dict[tuple[int, int], float]
    passed: bool


def build_weyl_mubs(d: int) -> MubSet:
    """Construct the complete set of d+1 MUBs for prime d.

    Basis order is fixed for reproducibility: the computational (Z)
    eigenbasis first, then the eigenbases of XZ, XZ^2, ..., XZ^{d-1}, and the
    X eigenbasis last. Every vector is normalized so that its first nonzero
    component is real and positive.

    :raises ValueError: if ``d`` is not a prime >= 2.
    """
    if not is_int(d) or not _is_prime(d):
        raise ValueError(f"d must be a prime >= 2 (got {d})")

    identity = np.eye(d, dtype=complex)
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        xz_basis = np.array([[s, 1j * s], [s, -1j * s]])  # eigenbasis of XZ
        x_basis = np.array([[s, s], [s, -s]])
        return MubSet(2, (identity, xz_basis, x_basis))

    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    inv2 = pow(2, -1, d)

    def quadratic_basis(c: int) -> np.ndarray:
        # rows b = 0..d-1, components omega^{c j^2 + b j} / sqrt(d); this is
        # the eigenbasis of X Z^{2c mod d}
        rows = [omega ** ((c * j * j + b * j) % d) / np.sqrt(d) for b in range(d)]
        return np.array(rows)

    bases = [identity]
    for a in range(1, d):  # eigenbasis of XZ^a
        bases.append(quadratic_basis((a * inv2) % d))
    bases.append(quadratic_basis(0))  # X eigenbasis
    return MubSet(d, tuple(bases))


def unitaries_from_bases(m: MubSet) -> tuple[tuple[np.ndarray, ...], ...]:
    """The cyclic unitary group of each basis of ``m``, in basis order.

    ``groups[alpha][k]`` is U_{alpha+1}^k for k = 0..d-1 (k = 0 is the
    identity). For the complete family the identity and the non-identity
    members of all groups are the d^2-element operator basis.
    """
    d = m.d
    omega = np.exp(2j * np.pi / d)
    phases = omega ** np.outer(np.arange(d), np.arange(d))  # phases[j, k]
    groups = []
    for alpha in range(m.n_bases):
        projs = m.projectors(alpha)
        groups.append(tuple(np.tensordot(phases[:, k], projs, axes=1) for k in range(d)))
    return tuple(groups)


def verify_unbiased(m: MubSet, tol: float = DEFAULT_TOL) -> MubReport:
    """Check that a family is a set of mutually unbiased bases.

    Reports the largest deviation ``| |<psi|phi>|^2 - 1/d |`` over all
    cross-basis vector pairs, per pair of bases and overall, and the worst
    within-basis orthonormality defect ``max |<e_i|e_j> - delta_ij|``.
    ``passed`` requires both below ``tol``: unbiased overlaps alone do not
    make each member a basis. ``tol`` must be finite and > 0: NaN would fail
    every family and infinity would pass any.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and > 0 (got {tol})")
    d = m.d
    target = 1.0 / d
    pair_deviations: dict[tuple[int, int], float] = {}
    max_cross = 0.0
    for a in range(m.n_bases):
        for b in range(a + 1, m.n_bases):
            gram = m.bases[a].conj() @ m.bases[b].T
            dev = float(np.max(np.abs(np.abs(gram) ** 2 - target)))
            pair_deviations[(a, b)] = dev
            max_cross = max(max_cross, dev)
    max_ortho = 0.0
    for basis in m.bases:
        gram = basis.conj() @ basis.T
        max_ortho = max(max_ortho, float(np.max(np.abs(gram - np.eye(d)))))
    return MubReport(
        d=d,
        n_bases=m.n_bases,
        tol=tol,
        max_cross_deviation=max_cross,
        max_orthonormality_deviation=max_ortho,
        pair_deviations=pair_deviations,
        passed=max(max_cross, max_ortho) < tol,
    )


def apply(c: ChannelSpec, m: MubSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to any d x d matrix, using the first N bases of ``m``.

    The map is linear, so operators such as basis unitaries are as legal as
    density matrices.
    """
    d, n = c.d, c.N
    if m.d != d:
        raise ValueError(f"basis family dimension {m.d} != channel dimension {d}")
    if m.n_bases < n:
        raise ValueError(f"need at least N={n} bases (family has {m.n_bases})")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} != ({d}, {d})")

    p = np.array([float(w) for w in mixing_weights(c)])
    out = p[n + 1] * rho + p[0] * np.trace(rho) / d * np.eye(d)
    for alpha in range(n):
        projs = m.projectors(alpha)
        out = out + p[alpha + 1] * np.einsum("kij,jl,klm->im", projs, rho, projs)
    return out


def choi_state(c: ChannelSpec, m: MubSet) -> np.ndarray:
    """Choi matrix (1/d) sum_{kl} |k><l| (x) Lambda(|k><l|), from the definition."""
    d = c.d
    rho = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            rho += np.kron(e, apply(c, m, e))
    return rho / d
