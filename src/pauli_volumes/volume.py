"""Exact and Monte Carlo volumes of the channel classes.

The exact route integrates each bound chain symbolically: polynomials over
the rationals, innermost variable first, so every chain volume is a
Fraction with no rounding anywhere. The measure is Lebesgue in eigenvalue
coordinates times the constant metric prefactor from
:func:`..geometry.volume_prefactor`, which turns eigenvalue-space volumes
into channel-manifold volumes.

The Monte Carlo route samples the necessary-positivity box uniformly and
counts membership with float predicates. It exists to cross-check the
exact numbers, so it deliberately shares nothing with the chain
integration: the predicates are the defining inequalities of each class,
not the chamber decompositions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt
from typing import Iterable, NamedTuple

import numpy as np

from .geometry import SurdValue, volume_prefactor, vp_volume
from .regions import CLASS_TAGS, AffineExpr, BoundChain, ChamberSet, chambers, p_box

_MC_BLOCK = 1 << 16
_MC_MIN_SAMPLES = 10_000


def _d_cap() -> int:
    """Largest dimension the exact engine will attempt; chamber counts and
    polynomial sizes grow quickly past this. Override with PV_MAX_D."""
    raw = os.environ.get("PV_MAX_D", "8")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PV_MAX_D must be an integer (got {raw!r})") from None


class ChamberInconsistency(Exception):
    """A chamber integrated to a negative value, so its bounds are wrong."""

    def __init__(self, label: str, value: Fraction):
        super().__init__(f"chain {label!r} has negative volume {value}")
        self.label = label
        self.value = value


# --------------------------------------------------------------------------
# exact polynomial integration
# --------------------------------------------------------------------------


class MultiPoly:
    """Multivariate polynomial with Fraction coefficients.

    Terms map exponent tuples (length n_vars) to coefficients; zero
    coefficients are dropped eagerly so the term dict doubles as a
    normal form.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.n_vars = n_vars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    self.terms[exps] = c

    @classmethod
    def constant(cls, n_vars: int, value: Fraction | int) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: Fraction(value)})

    @classmethod
    def from_affine(cls, n_vars: int, expr: AffineExpr) -> "MultiPoly":
        terms = {(0,) * n_vars: expr.const}
        for j, c in enumerate(expr.coeffs):
            exps = tuple(1 if k == j else 0 for k in range(n_vars))
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return cls(n_vars, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self.n_vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) - c
        return MultiPoly(self.n_vars, out)

    def __mul__(self, other: "MultiPoly | Fraction | int") -> "MultiPoly":
        if isinstance(other, (Fraction, int)):
            return MultiPoly(
                self.n_vars, {e: c * other for e, c in self.terms.items()}
            )
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.n_vars, out)

    __rmul__ = __mul__

    def antiderivative(self, i: int) -> "MultiPoly":
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            lifted = exps[:i] + (k + 1,) + exps[i + 1 :]
            out[lifted] = c / (k + 1)
        return MultiPoly(self.n_vars, out)

    def substitute(self, i: int, expr: AffineExpr) -> "MultiPoly":
        """Replace variable i by an affine expression in earlier variables."""
        if len(expr.coeffs) > i:
            raise ValueError("substitution must not reference variable i or later")
        expr_poly = MultiPoly.from_affine(self.n_vars, expr)
        powers = [MultiPoly.constant(self.n_vars, 1)]
        by_degree: dict[int, MultiPoly] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            base = exps[:i] + (0,) + exps[i + 1 :]
            bucket = by_degree.setdefault(k, MultiPoly(self.n_vars))
            bucket.terms[base] = bucket.terms.get(base, Fraction(0)) + c
        result = MultiPoly(self.n_vars)
        for k in sorted(by_degree):
            while len(powers) <= k:
                powers.append(powers[-1] * expr_poly)
            result = result + by_degree[k] * powers[k]
        return result

    def evaluate(self, values: Iterable[Fraction]) -> Fraction:
        vals = tuple(Fraction(v) for v in values)
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def constant_value(self) -> Fraction:
        """The value of a fully integrated (variable-free) polynomial."""
        for exps, c in self.terms.items():
            if any(exps):
                raise ValueError("polynomial still depends on variables")
            return c
        return Fraction(0)


def integrate_chain(chain: BoundChain) -> Fraction:
    """Exact volume of one bound chain, innermost variable first."""
    poly = MultiPoly.constant(chain.n_vars, 1)
    for i in reversed(range(chain.n_vars)):
        anti = poly.antiderivative(i)
        lo, hi = chain.bounds[i]
        poly = anti.substitute(i, hi) - anti.substitute(i, lo)
    value = poly.constant_value()
    if value < 0:
        raise ChamberInconsistency(chain.label, value)
    return value


# --------------------------------------------------------------------------
# class volumes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeResult:
    """Exact volume of one class at one (d, N), with its chamber breakdown."""

    class_tag: str
    d: int
    N: int
    chain_labels: tuple[str, ...]
    chain_volumes: tuple[Fraction, ...]
    symmetry_factor: int
    lambda_volume: Fraction
    hs_volume: SurdValue
    sufficiency: str

    def to_json_dict(self) -> dict:
        from .rationals import decimal_str, rational_str

        return {
            "class": self.class_tag,
            "d": self.d,
            "N": self.N,
            "chains": [
                {"label": lab, "volume": rational_str(vol)}
                for lab, vol in zip(self.chain_labels, self.chain_volumes)
            ],
            "symmetry_factor": self.symmetry_factor,
            "lambda_volume": rational_str(self.lambda_volume),
            "lambda_volume_decimal": decimal_str(self.lambda_volume),
            "hs_volume": self.hs_volume.to_json_dict(),
            "hs_volume_decimal": self.hs_volume.decimal(),
            "sufficiency": self.sufficiency,
        }


def supported_n_values(d: int) -> tuple[int, ...]:
    """The basis counts this package can integrate exactly at dimension d."""
    if d < 2:
        return ()
    if d == 2:
        return (3,)
    if d == 3:
        return (3, 4)
    return (3, d, d + 1)


def _validate_combo(d: int, N: int, class_tag: str) -> None:
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an integer >= 2 (got {d})")
    if d > _d_cap():
        raise ValueError(
            f"d={d} exceeds the exact-volume cap {_d_cap()}; set PV_MAX_D to raise it"
        )
    if N not in supported_n_values(d):
        raise ValueError(
            f"no exact volume for d={d}, N={N}; supported N at this d: "
            f"{supported_n_values(d) or 'none'}"
        )


def region_for(d: int, N: int, class_tag: str) -> ChamberSet:
    """The chamber decomposition backing class_volume(d, N, class_tag)."""
    _validate_combo(d, N, class_tag)
    return p_box(d, N) if class_tag == "p" else chambers(d, N, class_tag)


def _sufficiency(d: int, N: int, class_tag: str) -> str:
    """Whether the computed number is the class volume or an upper bound.

    The box only captures a necessary positivity condition, and the
    entanglement-breaking criterion used here is only known to be
    sufficient when at most one basis is left out.
    """
    if class_tag == "p":
        return "upper-bound"
    if class_tag == "eb":
        return "known-exact" if N >= d else "upper-bound"
    return "known-exact"


@lru_cache(maxsize=None)
def _volume_cached(d: int, N: int, class_tag: str) -> VolumeResult:
    chambers = region_for(d, N, class_tag)
    raw = tuple(integrate_chain(ch) for ch in chambers.chains)
    lam = sum(raw, Fraction(0)) * chambers.symmetry_factor
    hs = volume_prefactor(d, N) * lam
    return VolumeResult(
        class_tag=class_tag,
        d=d,
        N=N,
        chain_labels=tuple(ch.label for ch in chambers.chains),
        chain_volumes=raw,
        symmetry_factor=chambers.symmetry_factor,
        lambda_volume=lam,
        hs_volume=hs,
        sufficiency=_sufficiency(d, N, class_tag),
    )


def class_volume(d: int, N: int, class_tag: str) -> VolumeResult:
    """Exact volume of one channel class.

    Supported basis counts: N = d+1 and N = d (all or all-but-one bases,
    d >= 3 for the latter), and N = 3 in any prime-power dimension d >= 3.
    The d = 2 case only admits N = 3.
    """
    _validate_combo(d, N, class_tag)
    return _volume_cached(d, N, class_tag)


def volume_ratio(d: int, N: int, num_tag: str, den_tag: str) -> Fraction:
    """Exact ratio of two class volumes; the metric prefactor cancels."""
    num = class_volume(d, N, num_tag)
    den = class_volume(d, N, den_tag)
    if den.lambda_volume == 0:
        raise ValueError(f"class {den_tag!r} has zero volume at d={d}, N={N}")
    ratio = num.lambda_volume / den.lambda_volume
    hs_ratio = num.hs_volume / den.hs_volume
    if not (hs_ratio.is_rational and hs_ratio.as_fraction() == ratio):
        raise AssertionError(
            f"inconsistent ratio routes at d={d}, N={N}: {hs_ratio} vs {ratio}"
        )
    return ratio


RATIO_NAMES = ("cp/p", "g/cp", "eb/g")

_RATIO_TAGS = {"cp/p": ("cp", "p"), "g/cp": ("g", "cp"), "eb/g": ("eb", "g")}


def ratio_table(d: int, N: int) -> dict[str, Fraction]:
    """The three nested-class ratios at one (d, N)."""
    return {name: volume_ratio(d, N, *_RATIO_TAGS[name]) for name in RATIO_NAMES}


# --------------------------------------------------------------------------
# closed-form checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureEntry:
    d: int
    N: int
    name: str
    computed: SurdValue
    formula: SurdValue
    extrapolated: bool

    @property
    def match(self) -> bool:
        return self.computed == self.formula

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "ratio": self.name,
            "computed": self.computed.to_json_dict(),
            "computed_decimal": self.computed.decimal(),
            "formula": self.formula.to_json_dict(),
            "formula_decimal": self.formula.decimal(),
            "match": self.match,
            "extrapolated": self.extrapolated,
        }


@dataclass(frozen=True)
class ConjectureReport:
    entries: tuple[ConjectureEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "all_match": self.all_match,
            "entries": [e.to_json_dict() for e in self.entries],
        }


# dimensions whose nested-class ratios have been confirmed independently
# of this package; beyond them the closed forms are conjectural
_CONFIRMED_FULL_D = frozenset({2, 3, 4, 5})


def closed_form_ratios(d: int, N: int) -> dict[str, SurdValue]:
    """Conjectured closed forms for the nested-class ratios.

    Eigenvalue space has n coordinates (N+1, or d+1 when N = d+1), each of
    weight 1 except the left-out one of weight d+1-N; W is the product of
    the weights. Then

        cp/p = d / (n! W),
        g/cp = (d+1) (d-1)^n / d^(n+1),
        eb/g = 1/(d+1).

    For N in {d, d+1} this reads cp/p = d/(d+1)! and
    g/cp = (d^2-1)/d^2 * ((d-1)/d)^d; for N = 3 it reads
    cp/p = d/(24(d-2)) and g/cp = (d^2-1)(d-1)^3/d^5. n and W are worked out
    here from (d, N), apart from the chamber code, so the comparison stays
    a genuine check.
    """
    n, W = (d + 1, 1) if N == d + 1 else (N + 1, d + 1 - N)
    forms = {
        "cp/p": Fraction(d, factorial(n) * W),
        "g/cp": Fraction((d + 1) * (d - 1) ** n, d ** (n + 1)),
        "eb/g": Fraction(1, d + 1),
    }
    return {k: SurdValue.from_rational(v) for k, v in forms.items()}


def check_conjectures(d_values: Iterable[int], n_mode: str = "max") -> ConjectureReport:
    """Compare exact ratios against the closed forms for several dimensions.

    ``n_mode`` selects the basis count per dimension: "max" uses N = d+1,
    "d" uses N = d, "3" uses N = 3. Entries computed at dimensions beyond
    the independently confirmed range are flagged extrapolated. With N = 3
    the box volume is checked too, against its closed form
    sqrt(d-2)/(d-1)^2 from :func:`..geometry.vp_volume`.
    """
    if n_mode not in ("max", "d", "3"):
        raise ValueError(f"n_mode must be 'max', 'd' or '3' (got {n_mode!r})")
    entries: list[ConjectureEntry] = []
    for d in d_values:
        if n_mode == "max":
            N = d + 1
        elif n_mode == "d":
            N = d
        else:
            N = 3
        forms = closed_form_ratios(d, N)
        computed = ratio_table(d, N)
        extrapolated = n_mode in ("max", "d") and d not in _CONFIRMED_FULL_D
        if n_mode == "3" and d >= 3:
            entries.append(
                ConjectureEntry(
                    d,
                    N,
                    "p",
                    class_volume(d, N, "p").hs_volume,
                    vp_volume(d, N),
                    extrapolated,
                )
            )
        for name in RATIO_NAMES:
            entries.append(
                ConjectureEntry(
                    d,
                    N,
                    name,
                    SurdValue.from_rational(computed[name]),
                    forms[name],
                    extrapolated,
                )
            )
    return ConjectureReport(tuple(entries))


# --------------------------------------------------------------------------
# Monte Carlo cross-check
# --------------------------------------------------------------------------


class McEstimate(NamedTuple):
    estimate: float
    stderr: float
    hits: int
    samples: int


def _class_mask(pts: np.ndarray, d: int, N: int, class_tag: str) -> np.ndarray:
    """Defining inequalities of each class, vectorized over rows of raw
    eigenvalue samples (all used-basis coordinates, plus the left-out one
    when N <= d)."""
    if class_tag == "p":
        lo = -1.0 / (d - 1)
        return np.all((pts >= lo) & (pts <= 1.0), axis=1)
    if N == d + 1:
        s = pts.sum(axis=1)
    else:
        s = pts[:, :N].sum(axis=1) + (d + 1 - N) * pts[:, N]
    if class_tag == "cp":
        return (s >= -1.0 / (d - 1)) & (s <= 1.0 + d * pts.min(axis=1))
    nonneg = np.all(pts >= 0.0, axis=1)
    if class_tag == "g":
        return nonneg & (s <= 1.0 + d * pts.min(axis=1))
    if class_tag == "eb":
        return nonneg & (s <= 1.0)
    raise ValueError(f"unknown class tag {class_tag!r}")


def mc_volume(
    d: int, N: int, class_tag: str, samples: int, seed: int = 0
) -> McEstimate:
    """Monte Carlo volume over the necessary-positivity box.

    Counter-based streams keyed on (seed, block index) make results
    reproducible and independent of how samples split into blocks. The
    box measure is carried exactly and converted to float once, so the
    "p" class reproduces the exact volume bit for bit.
    """
    _validate_combo(d, N, class_tag)
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"need at least {_MC_MIN_SAMPLES} samples (got {samples})")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64) (got {seed})")
    n_coords = d + 1 if N == d + 1 else N + 1
    lo = -1.0 / (d - 1)
    span = 1.0 - lo
    box_hs = volume_prefactor(d, N) * (Fraction(d, d - 1) ** n_coords)
    scale = float(box_hs)
    hits = 0
    produced = 0
    block = 0
    while produced < samples:
        take = min(_MC_BLOCK, samples - produced)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
        )
        # Philox output is prefix-stable: a partial block draws only the rows
        # it uses and still gets the samples a full block would start with
        pts = lo + span * rng.random((take, n_coords))
        hits += int(np.count_nonzero(_class_mask(pts, d, N, class_tag)))
        produced += take
        block += 1
    p_hat = hits / samples
    stderr = scale * sqrt(p_hat * (1.0 - p_hat) / samples)
    return McEstimate(estimate=p_hat * scale, stderr=stderr, hits=hits, samples=samples)
