"""Mutually unbiased bases and the unitary operator basis they generate.

For a prime dimension ``d`` this module constructs the complete family of
``d + 1`` mutually unbiased bases (MUBs): the computational basis together
with the eigenbases of the shift-and-phase unitaries ``X Z^a``. Two
orthonormal bases ``{|psi_j>}`` and ``{|phi_k>}`` are mutually unbiased when
``|<psi_j|phi_k>|^2 = 1/d`` for every cross pair.

Each basis also generates a cyclic group of unitaries

    U_alpha^k = sum_j omega^{j k} P_j^{(alpha)},   omega = exp(2 pi i / d),

and the non-identity members of all d+1 groups, together with the identity,
form a trace-orthogonal basis of d x d operator space. Channels built
elsewhere in this package use only the first N of these groups; the leftover
groups supply the complementary operators (the ``A`` family) that complete
the operator basis.

Everything in this module is floating-point verification scaffolding.
Channel classification and volume computation run in exact rational
arithmetic and never depend on these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class MubSet:
    """A family of orthonormal bases of C^d, stored as row-vector matrices.

    ``bases[alpha][k]`` is the k-th vector of basis ``alpha``. Structural
    shape is validated on construction; unbiasedness itself is a property
    checked by :func:`verify_unbiased`, so deliberately broken sets can be
    represented and reported on.
    """

    d: int
    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2 (got {self.d})")
        if not 3 <= len(self.bases) <= self.d + 1:
            raise ValueError(
                f"need between 3 and d+1={self.d + 1} bases (got {len(self.bases)})"
            )
        for b in self.bases:
            if b.shape != (self.d, self.d):
                raise ValueError(f"basis matrix shape {b.shape} != ({self.d}, {self.d})")

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def projectors(self, alpha: int) -> np.ndarray:
        """Rank-1 projectors of basis ``alpha`` as a (d, d, d) stack."""
        b = self.bases[alpha]
        return np.einsum("ki,kj->kij", b, b.conj())


@dataclass(frozen=True)
class UnitaryFamily:
    """The operator basis generated by a MUB family.

    ``u_ops[alpha][k]`` is U_{alpha+1}^k for k = 0..d-1 (k = 0 is the
    identity). ``a_ops[beta][k-1]`` holds the complementary operators
    A_{beta+1,k} for k = 1..d-1 built from the unused bases when the family
    has fewer than d+1 of them.
    """

    d: int
    u_ops: tuple[tuple[np.ndarray, ...], ...]
    a_ops: tuple[tuple[np.ndarray, ...], ...] = field(default=())

    def operator_basis(self) -> list[np.ndarray]:
        """Identity + non-trivial U ops + A ops: d^2 operators in total."""
        ops = [np.eye(self.d, dtype=complex)]
        for group in self.u_ops:
            ops.extend(group[1:])
        for group in self.a_ops:
            ops.extend(group)
        return ops


@dataclass(frozen=True)
class MubReport:
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
    if not _is_prime(d):
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


def unitaries_from_bases(m: MubSet) -> UnitaryFamily:
    """Build the unitary groups U_alpha^k, plus the complementary A family.

    The U operators come directly from the supplied bases. When the family
    holds fewer than d+1 bases the remaining operators of the canonical
    prime-d construction (the eigenbasis groups of the unused XZ^a) are
    returned as the A family, completing the d^2-element trace-orthogonal
    operator basis.
    """
    d = m.d
    omega = np.exp(2j * np.pi / d)
    phases = omega ** np.outer(np.arange(d), np.arange(d))  # phases[j, k]

    def group(basis_index: int, source: MubSet) -> tuple[np.ndarray, ...]:
        projs = source.projectors(basis_index)
        return tuple(np.tensordot(phases[:, k], projs, axes=1) for k in range(d))

    u_ops = tuple(group(a, m) for a in range(m.n_bases))
    a_ops: tuple[tuple[np.ndarray, ...], ...] = ()
    if m.n_bases < d + 1:
        if not _is_prime(d):
            raise ValueError(
                f"completing the operator basis requires a prime dimension (got d={d})"
            )
        full = build_weyl_mubs(d)
        a_ops = tuple(group(b, full)[1:] for b in range(m.n_bases, d + 1))
    return UnitaryFamily(d, u_ops, a_ops)


def verify_unbiased(m: MubSet, tol: float = DEFAULT_TOL) -> MubReport:
    """Check pairwise unbiasedness of a basis family.

    Reports the largest deviation ``| |<psi|phi>|^2 - 1/d |`` over all
    cross-basis vector pairs, per pair of bases and overall, plus the worst
    within-basis orthonormality defect as context. ``passed`` reflects the
    cross-basis deviation against ``tol``, which must be finite and > 0:
    NaN would fail every family and infinity would pass any.
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
        passed=max_cross < tol,
    )
