"""Exact and Monte Carlo volumes of the channel classes.

The exact route integrates each bound chain symbolically, innermost
variable first, with integer numerators over one denominator per level.
Each chain stores the bound on x_k as affine in x0, x_{k-1} and one running
sum S_k = sum_{1<=j<=k-2} u_j x_j, with u fixed for the chain (see
:mod:`.regions`), so the integrand is a polynomial in three variables
throughout. Each level picks one of two methods from its integrand's
total degree. Up to degree 2, as at every level of the box and of the N = 3
chambers, the level is integrated in closed form: with P_j the coefficient
of x_k^j and l, h its two ends, it is (h - l) times a polynomial in the P_j,
h + l and h - l, and a constant integrand, the innermost level of every
chain, is read off the two ends with no product. From degree 3 on, a level
sorts its integrand's terms by their powers of x_k and of the running sum
in one pass, and substitutes its bounds into the antiderivative by
Horner's rule, first over the powers of the running sum and then over
those of x_k; each fold starts from its top coefficient. Either way every
product is of a polynomial by an affine one of at most four terms, and
monomials are keyed by one packed int, so multiplying two of them is one
integer addition. Both methods divide the new state by its gcd, so they
give the same state. Each end is stored as integer numerators over one
positive denominator, in lowest terms, and the level kernel reads the
stored ends, putting a level's two over one denominator itself; the last
integral, over x0, is evaluated by Horner's rule on integer numerators too.
The partial integral after the inner levels n-1..k depends on those levels
alone, so the chains of one call share a table of them, keyed on the
stored ends, which are equal exactly when the ends are: each distinct
stack of inner levels is integrated once per (d, N), across the classes
where a call computes several (the g chain has the levels of cp:sys3, and
each cp chain the inner levels of those with a smaller switch level). The
ratios and the closed-form checks need class totals only, and take cp's
as the all-positive chain of each slot less the all-negative one
(:func:`..regions.cp_total_chains`), where the slot's chambers telescope.
The all-positive one is integrated, and has the g chain's inner levels,
so g then integrates none. eb's chamber of a slot is a weighted simplex,
and the all-negative chain is the same simplex shifted and scaled by
d/(d-1), so the totals read both volumes off one closed form and
integrate no eb level; g's chains and cp's all-positive ones come from
one build of g's level pairs. :func:`class_volume` reports each
chamber's volume, so it integrates the chambers one by one, eb's among
them. The table is dropped when the call returns. The measure is
Lebesgue in eigenvalue coordinates times the constant metric prefactor
from :func:`..geometry.volume_prefactor`, which turns eigenvalue-space
volumes into channel-manifold volumes; a call computes it at most once
per (d, N).

The Monte Carlo route samples the necessary-positivity box uniformly and
counts membership in cp, g or eb with float predicates; every draw lies in
the box, so the box class p draws nothing and counts every sample. It
exists to cross-check the exact numbers, so it deliberately shares nothing
with the chain integration: the predicates are the defining inequalities
of each class, not the chamber decompositions. Its blocks of 65,536 rows
run on a pool of workers sized to the CPUs this process may use, at most
two, the calling thread among them, so no thread is started when that is
one; each block has its own stream, so the hits do not depend on the CPU
count. Each worker draws its blocks' rows in chunks of cache size, the
same draws as one whole-block call, and masks each chunk column by
column. It is the only route that needs numpy, and its functions import
it themselves, so exact callers never load it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, gcd, lcm, sqrt
from operator import attrgetter
from typing import Iterable, NamedTuple

from .channel import eb_criterion_exact
from .geometry import SurdValue, check_dims, is_int, volume_prefactor, vp_volume, weights
from .regions import CLASS_TAGS, BoundChain, ChamberSet, chambers, cp_total_chains, p_box

_MC_BLOCK = 1 << 16
# rows per draw and mask, split evenly among the Monte Carlo workers:
# 0.4-1.7 MB of samples and 128 KB per column temporary in all, small
# enough to stay in cache between the draw and the mask
_MC_CHUNK = 1 << 14
# most Monte Carlo workers, whatever the CPU count: the largest pool
# measured (1.5x the throughput of one worker on a 2-core host, with hits
# unchanged); a larger pool splits the chunk below what was measured and
# waits for a benchmark on a host with more CPUs
_MC_MAX_WORKERS = 2
_MC_MIN_SAMPLES = 10_000
# about 8 s at d = 12, N = 13, the slowest case, on a 2-core host (12-18 M
# samples/s; 14 s, at 8-10 M samples/s, with one usable CPU); a larger
# request is a usage error
_MC_MAX_SAMPLES = 10**8


# Largest dimension the exact engine attempts. Cost model, from
# tools/exact_timing.py's comparison mode (median of 31 calls, each
# building and integrating from scratch) on a 2-core host:
# check_conjectures([d]) in the "max" or "d" mode takes about 0.0009 s at
# d = 8, and each step in d costs about 1.55x (0.0014 s at d = 9, 0.0022 s
# at d = 10, 0.0035 s at d = 11, 0.0053 s at d = 12); the "3" mode, whose
# levels all take the closed form, takes about 0.0003-0.0004 s at any d.
_MAX_D = 12


# --------------------------------------------------------------------------
# exact chain integration
# --------------------------------------------------------------------------

# {key: numerator} is the polynomial sum of numerator * x0^a y^b s^c, keyed by
# the packed int key = a*_X0 + b*_Y + c*_S, so a product of two monomials is
# the sum of their keys; each level keeps its numerators over one integer
# denominator held beside them
_Poly = dict[int, int]
_X0, _Y, _S = 1 << 12, 1 << 6, 1
# y and s take 6 bits each; no exponent reaches the chain's variable count
_MAX_VARS = 63


# a stored end's fields, (const, x0, t, last, q)
_End = tuple[int, int, int, int, int]
# the packed keys of an end's const, x0, t and last numerators: 1, x0, S_k
# and x_{k-1}
_END_KEYS = (0, _X0, _S, _Y)
# the keys of an integrand of total degree <= 2
_QUADRATIC_KEYS = frozenset(a + b for a in _END_KEYS for b in _END_KEYS)
_end_fields = attrgetter("const", "x0", "t", "last", "q")
# {(node, lo, hi, carry): (id, den, poly)}: the partial integral after one
# more level, keyed on that level's stored ends, the (y, s) numerators of its
# carry and the node of the state it integrates: 0 for the empty stack, or
# the id of a state stored here. So each node stands for one stack of inner
# levels
_Table = dict[tuple[int, _End, _End, tuple[int, int]], tuple[int, int, _Poly]]


def _mul_add(p: _Poly, f: list[tuple[int, int]], out: _Poly) -> _Poly:
    """out + p*f, added into out and returned, for an affine f of at most
    four (key, numerator) pairs."""
    get = out.get
    for e2, v2 in f:
        for e1, v1 in p.items():
            e = e1 + e2
            out[e] = get(e, 0) + v1 * v2
    return out


def _integrate_level(
    den: int, poly: _Poly, lo: _End, hi: _End, carry: tuple[int, int]
) -> tuple[int, _Poly]:
    """Integrate x_k out of the integrand poly/den, as a new (den, poly).

    lo and hi are the level's stored ends, each (const, x0, t, last) over
    its own q, and carry the (y, s) numerators of
    S_{k+1} = S_k + u_{k-1} x_{k-1}. poly, a polynomial in (x0, x_k,
    S_{k+1}), becomes one in (x0, x_{k-1}, S_k), by substituting the
    bounds and the carry. One of two methods is picked from poly's total
    degree, read off its packed keys:

    * degree <= 2 is integrated in closed form by :func:`_closed_level`,
      which reads a constant poly straight off the two ends;
    * degree 3 and up by Horner's rule in :func:`_horner_level`.

    Each divides its numerators and denominator by their gcd, so both
    return the same canonical state for the same integral; an empty poly
    is returned as it is. poly is only read, so a state kept in a table
    stays valid.
    """
    if not poly:
        return den, poly
    if _QUADRATIC_KEYS.issuperset(poly):
        return _closed_level(den, poly, lo, hi, carry)
    return _horner_level(den, poly, lo, hi, carry)


def _reduced(den: int, out: _Poly) -> tuple[int, _Poly]:
    """(den, out) divided by the gcd of the denominator and the numerators."""
    g = gcd(den, *out.values())
    return den // g, {e: v // g for e, v in out.items() if v}


def _closed_level(
    den: int, poly: _Poly, lo: _End, hi: _End, carry: tuple[int, int]
) -> tuple[int, _Poly]:
    """Integrate x_k out of a poly of total degree <= 2, in closed form.

    With P_j the coefficient of x_k^j, the carry substituted into P0 and
    P1, the integral of P0 + P1 x_k + P2 x_k^2 between l/q and h/q is
    (h - l) [6 q^2 P0 + 3q P1 (h + l) + 2 P2 (h^2 + hl + l^2)] / (6 q^3).
    With T = h + l and D = h - l, 4 (h^2 + hl + l^2) = 3 T^2 + D^2, so it
    is D [c0 P0 + T (c1 P1 + 3 P2 T) + P2 D^2] over 2 q^2 c1 den, with
    c1 = 6q and c0 = 2q c1: three products by the affine T, D and D.
    Where P2 is 0 its terms drop out and any c1 gives the integral, so
    c1 = 1 keeps the numbers small. Each state is divided by its gcd, so
    the choice changes no state. At a constant level, P0 = v, the integral
    v D over q den is read off the two ends with no carry, sum or product.
    """
    q = lcm(lo[4], hi[4])
    s_lo, s_hi = q // lo[4], q // hi[4]
    if len(poly) == 1 and 0 in poly:
        v = poly[0]
        out = {e: v * (h * s_hi - l * s_lo) for e, l, h in zip(_END_KEYS, lo, hi)}
        return _reduced(den * q, out)
    # the (packed key, numerator) pairs of D and T, over q
    diff, total = [], []
    for e, l, h in zip(_END_KEYS, lo, hi):
        if l or h:
            l *= s_lo
            h *= s_hi
            if h != l:
                diff.append((e, h - l))
            total.append((e, h + l))
    get = poly.get
    p2 = get(2 * _Y)
    # the scale that keeps P2's terms whole, or 1 where there are none
    c1 = 6 * q if p2 else 1
    c0 = 2 * q * c1
    # c0 P0 and c1 P1, with S_{k+1} = cy x_{k-1} + cs S_k substituted
    p0, p1 = {}, {}
    for e in (0, _X0, 2 * _X0):
        if v := get(e):
            p0[e] = c0 * v
    for e in (0, _X0):
        if v := get(e + _Y):
            p1[e] = c1 * v
    cy, cs = carry
    if cy or cs:
        for e in (0, _X0):
            if v := get(e + _S):
                p0[e + _Y], p0[e + _S] = c0 * v * cy, c0 * v * cs
        if v := get(2 * _S):
            v *= c0
            p0[2 * _Y], p0[_Y + _S], p0[2 * _S] = v * cy * cy, 2 * v * cy * cs, v * cs * cs
        if v := get(_Y + _S):
            p1[_Y], p1[_S] = c1 * v * cy, c1 * v * cs
    if p2:
        # 3 P2 T joins c1 P1, and P2 D^2 joins c0 P0
        for e, v in total:
            p1[e] = p1.get(e, 0) + 3 * p2 * v
        _mul_add({e: p2 * v for e, v in diff}, diff, p0)
    inner = _mul_add(p1, total, p0)
    return _reduced(2 * q * q * c1 * den, _mul_add(inner, diff, {}))


def _horner_level(
    den: int, poly: _Poly, lo: _End, hi: _End, carry: tuple[int, int]
) -> tuple[int, _Poly]:
    """Integrate x_k out of a poly of total degree 3 or more, by Horner's rule.

    The ends are put over their least common denominator q. With B the top
    power of x_k after integration, the antiderivative sum_b H_b x_k^b / b
    is put over den * lcm(1..B) * q^B, which scales H_b by
    lcm(1..B)/b * q^(B-b). One pass sorts poly's terms into buckets by
    their powers of x_k and S_{k+1}, each an x0 polynomial, and Horner's
    rule runs twice over:

    * each H_b is folded over the powers of S_{k+1}, from its top bucket
      down: multiply by the two-term carry, add the next bucket. Where poly
      holds no S_{k+1}, each H_b is its one bucket and nothing is folded;
    * sum_b H_b h^b is folded over b, from H_B down, at h = hi and h = lo,
      and the two results are subtracted.

    Every fold starts from its top coefficient, so no product is by an
    empty polynomial, and every product is by an affine polynomial of at
    most four terms: a level costs O(B*C) of them for C the top power of
    S_{k+1}.
    """
    q = lcm(lo[4], hi[4])
    # each end's numerators over q, and the carry's, as (packed key, numerator)
    lo_q, hi_q = (
        [(e, v * (q // end[4])) for e, v in zip(_END_KEYS, end) if v] for end in (lo, hi)
    )
    carry_terms = [(e, v) for e, v in zip((_Y, _S), carry) if v]
    top_b = 1 + max(e % _X0 // _Y for e in poly)
    ladder = lcm(*range(1, top_b + 1))
    scales = [0] + [ladder // b * q ** (top_b - b) for b in range(1, top_b + 1)]
    # buckets[b][c] is the scaled x0 polynomial multiplying x_k^b S_{k+1}^c
    # in the antiderivative
    buckets: dict[int, dict[int, _Poly]] = {}
    for e, v in poly.items():
        b = e % _X0 // _Y + 1  # x_k^(b-1) integrates to x_k^b / b
        # poly's keys are distinct, so each (a, b, c) arrives once
        buckets.setdefault(b, {}).setdefault(e % _Y, {})[e - e % _X0] = v * scales[b]
    h_by_b: dict[int, _Poly] = {}
    for b, by_c in buckets.items():
        top_c = max(by_c)
        h_b = by_c[top_c]
        for c in range(top_c - 1, -1, -1):
            h_b = _mul_add(h_b, carry_terms, by_c.get(c, {}))
        h_by_b[b] = h_b
    at_hi = at_lo = h_by_b[top_b]
    for b in range(top_b - 1, -1, -1):
        h_b = h_by_b.get(b, {})
        at_hi = _mul_add(at_hi, hi_q, dict(h_b))
        at_lo = _mul_add(at_lo, lo_q, h_b)
    for e, v in at_lo.items():
        at_hi[e] = at_hi.get(e, 0) - v
    return _reduced(den * ladder * q**top_b, at_hi)


def integrate_chains(chains: Iterable[BoundChain], table: _Table | None = None) -> Fraction:
    """Exact summed volume of bound chains: the sum of each chain's signed
    iterated integral, innermost variable first, so a part where an upper
    bound lies below its lower bound counts negatively. No chamber has one.

    Each chain walks its levels from the innermost down. The state after
    levels n-1..k depends on those levels alone, so ``table`` keeps each
    state keyed on the node of the state it came from and on the stored
    ends and carry of the level that produced it; reduced ends are
    canonical, so equal keys mean equal levels. A chain picks up the states
    of the inner levels it shares with a stack in the table (the g chain
    shares all of its levels but level 0 with cp's all-positive chain, each
    cp chamber levels m..n-1 with those of a smaller switch level m), and
    only a miss runs :func:`_integrate_level`. Equal keys give equal
    states, so the sharing moves no total; the x0 integrals are added as
    integers and reduced once. Callers pass one table for the chains of one
    (d, N) and drop it afterwards; with none, a fresh one is used.
    """
    if table is None:
        table = {}
    num, den_all = 0, 1
    for chain in chains:
        bounds, u = chain.bounds, chain.u
        if len(bounds) > _MAX_VARS:
            raise ValueError(f"chain {chain.label!r}: more than {_MAX_VARS} variables")
        node, den, poly = 0, 1, {0: 1}
        for k in range(len(bounds) - 1, 0, -1):
            lo, hi = map(_end_fields, bounds[k])
            # S_{k+1} = S_k + u_{k-1} x_{k-1}; S_1 = S_2 = 0, and past u no sum is left
            carry = (u[k - 2] if 2 <= k <= len(u) + 1 else 0, int(k >= 3))
            key = (node, lo, hi, carry)
            state = table.get(key)
            if state is None:
                den, poly = _integrate_level(den, poly, lo, hi, carry)
                state = table[key] = (len(table) + 1, den, poly)
            node, den, poly = state
        top, bottom = _outer_integral(tuple(map(_end_fields, bounds[0])), den, poly)
        num, den_all = num * bottom + top * den_all, den_all * bottom
    return Fraction(num, den_all)


def integrate_chain(chain: BoundChain, table: _Table | None = None) -> Fraction:
    """Exact volume of one bound chain: :func:`integrate_chains` of it
    alone, sharing the inner levels ``table`` holds. :func:`class_volume`
    reports each chain's volume, so it integrates its chains here."""
    return integrate_chains((chain,), table)


def _outer_integral(ends: tuple[_End, _End], den: int, poly: _Poly) -> tuple[int, int]:
    """The integral of poly/den = sum_a v_a x0^(a-1) / D between level 0's
    constant ends l/q0 and h/q0, as an unreduced (numerator, denominator):
    for A the top power, sum_a v_a (h^a - l^a) / (a q0^a) is put over
    D * lcm(1..A) * q0^A and folded over a by Horner's rule at h and at l,
    on integer numerators."""
    lo0, hi0 = ends
    q0 = lcm(lo0[4], hi0[4])
    l, h = lo0[0] * (q0 // lo0[4]), hi0[0] * (q0 // hi0[4])
    top_a = 1 + max(poly, default=-1) // _X0
    ladder = lcm(*range(1, top_a + 1))
    by_a = [0] * (top_a + 1)
    for e, v in poly.items():
        by_a[e // _X0 + 1] = v
    at_h = at_l = 0
    q0_pow = 1  # q0^(A-a)
    for a in range(top_a, 0, -1):
        v = by_a[a] * (ladder // a) * q0_pow
        at_h = (at_h + v) * h
        at_l = (at_l + v) * l
        q0_pow *= q0
    return at_h - at_l, den * ladder * q0_pow


# --------------------------------------------------------------------------
# class volumes
# --------------------------------------------------------------------------


class VolumeResult(NamedTuple):
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


_N_FOR_MODE = {"max": lambda d: d + 1, "d": lambda d: d, "3": lambda d: 3}
N_MODES = tuple(_N_FOR_MODE)


def n_for_mode(d: int, n_mode: str) -> int:
    """The basis count each n-mode picks at dimension d: d+1, d or 3."""
    return _N_FOR_MODE[n_mode](d)


def supported_n_values(d: int) -> tuple[int, ...]:
    """The basis counts this package can integrate exactly at dimension d,
    in increasing order: the counts the n-modes pick (d+1, d and 3) that are
    valid there, 3 <= N <= d+1; none below d = 2."""
    if not is_int(d):
        raise ValueError(f"d must be an integer (got {d!r})")
    counts = {n_for_mode(d, m) for m in N_MODES}
    return tuple(sorted(N for N in counts if 3 <= N <= d + 1))


def _validate_combo(d: int, N: int, class_tag: str) -> None:
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")
    check_dims(d, N)
    if d > _MAX_D:
        raise ValueError(f"d={d} exceeds the exact-volume cap {_MAX_D}")
    if N not in supported_n_values(d):
        raise ValueError(
            f"no exact volume for d={d}, N={N}; supported N at this d: {supported_n_values(d)}"
        )


def region_for(d: int, N: int, class_tag: str) -> ChamberSet:
    """The chamber decomposition backing class_volume(d, N, class_tag)."""
    _validate_combo(d, N, class_tag)
    return p_box(d, N) if class_tag == "p" else chambers(d, N, class_tag)


def _sufficiency(d: int, N: int, class_tag: str) -> str:
    """Whether the computed number is the class volume or an upper bound.

    The box only captures a necessary positivity condition, and the
    entanglement-breaking criterion used here is exact only where
    :func:`..channel.eb_criterion_exact` says so.
    """
    if class_tag == "p" or (class_tag == "eb" and not eb_criterion_exact(d, N)):
        return "upper-bound"
    return "known-exact"


def class_volume(d: int, N: int, class_tag: str) -> VolumeResult:
    """Exact volume of one channel class, at a basis count that
    :func:`supported_n_values` lists for d, with the volume of each chain:
    its chains are integrated one by one, over one table of inner levels
    dropped on return."""
    region = region_for(d, N, class_tag)
    table: _Table = {}
    raw = tuple(integrate_chain(ch, table) for ch in region.chains)
    lam = sum(raw, Fraction(0)) * region.symmetry_factor
    return VolumeResult(
        class_tag=class_tag,
        d=d,
        N=N,
        chain_labels=tuple(ch.label for ch in region.chains),
        chain_volumes=raw,
        symmetry_factor=region.symmetry_factor,
        lambda_volume=lam,
        hs_volume=volume_prefactor(d, N) * lam,
        sufficiency=_sufficiency(d, N, class_tag),
    )


def _lambda_volumes(d: int, N: int) -> dict[str, Fraction]:
    """The eigenvalue-space volumes of the four classes at one (d, N), the
    chains over one table, so a stack of inner levels common to two chains
    of any of them is integrated once. p validates (d, N) first, through
    :func:`region_for`. :func:`..regions.cp_total_chains` builds g's level
    pairs once for cp's all-positive chains and for g's chambers, and gives
    the summed volume of eb's chambers, weighted simplices, in closed form:
    cp is its chains less c^n times that volume, c = d/(d-1), since its
    all-negative chains are the same simplices scaled by c, and eb is the
    volume itself. So no eb level is integrated, and every ratio still
    reads an integrated chain set: cp/p cp's chains and the box, g/cp g's
    chains and cp's, eb/g g's."""
    box = region_for(d, N, "p")
    added, g, (num, den) = cp_total_chains(d, N)
    eb = Fraction(num, den)
    table: _Table = {}
    p = integrate_chains(box.chains, table)
    cp = integrate_chains(added.chains, table) - Fraction(d, d - 1) ** box.n_vars * eb
    g_total = integrate_chains(g.chains, table)
    # the box is one chain over all of eigenvalue space; the rest lie on the wedge
    factor = g.symmetry_factor
    return {"p": p, "cp": cp * factor, "g": g_total * factor, "eb": eb * factor}


_RATIO_TAGS = {"cp/p": ("cp", "p"), "g/cp": ("g", "cp"), "eb/g": ("eb", "g")}
RATIO_NAMES = tuple(_RATIO_TAGS)


def ratio_table(d: int, N: int) -> dict[str, Fraction]:
    """The three nested-class ratios at one (d, N), each class integrated
    once as one sum and the inner levels they share integrated once."""
    return _ratios(_lambda_volumes(d, N))


def _ratios(vols: dict[str, Fraction]) -> dict[str, Fraction]:
    """The three ratios of the class volumes at one (d, N), formed from the
    eigenvalue-space volumes: the metric prefactor cancels in a ratio."""
    return {
        name: vols[num] / vols[den]
        for name, (num, den) in _RATIO_TAGS.items()
    }


# --------------------------------------------------------------------------
# closed-form checks
# --------------------------------------------------------------------------


class ConjectureEntry(NamedTuple):
    d: int
    N: int
    name: str
    computed: SurdValue
    formula: SurdValue
    extrapolated: bool

    @property
    def match(self) -> bool:
        return self.computed == self.formula


class ConjectureReport(NamedTuple):
    entries: tuple[ConjectureEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)


# dimensions whose nested-class ratios have been confirmed independently
# of this package; entries beyond them are flagged extrapolated, though the
# simplex lemma of regions.cp_total_chains proves the closed forms at every
# (d, N)
_CONFIRMED_FULL_D = frozenset({2, 3, 4, 5})


def closed_form_ratios(d: int, N: int) -> dict[str, SurdValue]:
    """Closed forms for the nested-class ratios.

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
    a genuine check. :func:`..regions.cp_total_chains` proves them slot by
    slot at every (d, N).
    """
    n, W = (d + 1, 1) if N == d + 1 else (N + 1, d + 1 - N)
    forms = {
        "cp/p": Fraction(d, factorial(n) * W),
        "g/cp": Fraction((d + 1) * (d - 1) ** n, d ** (n + 1)),
        "eb/g": Fraction(1, d + 1),
    }
    return {k: SurdValue(v) for k, v in forms.items()}


def check_conjectures(d_values: Iterable[int], n_mode: str = "max") -> ConjectureReport:
    """Compare exact ratios against the closed forms for several dimensions.

    ``n_mode`` selects the basis count per dimension: "max" uses N = d+1,
    "d" uses N = d, "3" uses N = 3. Entries computed at dimensions beyond
    the independently confirmed range are flagged extrapolated. With N = 3
    the box volume is checked too, against its closed form
    sqrt(d-2)/(d-1)^2 from :func:`..geometry.vp_volume`.
    """
    if n_mode not in N_MODES:
        raise ValueError(f"n_mode must be one of {N_MODES} (got {n_mode!r})")
    entries: list[ConjectureEntry] = []
    for d in d_values:
        N = n_for_mode(d, n_mode)
        # region_for validates (d, N) before the closed forms divide by d
        vols = _lambda_volumes(d, N)
        computed = _ratios(vols)
        forms = closed_form_ratios(d, N)
        extrapolated = n_mode in ("max", "d") and d not in _CONFIRMED_FULL_D
        if n_mode == "3" and d >= 3:
            box = volume_prefactor(d, N) * vols["p"]
            entries.append(ConjectureEntry(d, N, "p", box, vp_volume(d, N), extrapolated))
        for name in RATIO_NAMES:
            exact = SurdValue(computed[name])
            entries.append(ConjectureEntry(d, N, name, exact, forms[name], extrapolated))
    return ConjectureReport(tuple(entries))


# --------------------------------------------------------------------------
# Monte Carlo cross-check
# --------------------------------------------------------------------------


class McEstimate(NamedTuple):
    estimate: float
    stderr: float
    hits: int
    samples: int


def _class_mask(pts, d: int, N: int, class_tag: str):
    """Defining inequalities of cp, g and eb, vectorized over the rows of a
    float array of raw eigenvalue samples (all used-basis coordinates, plus
    the left-out one when N <= d); returns one bool per row. Any other tag
    is refused: every box draw lies in p, so p has no mask.

    Works column by column: a reduction along rows of 3-13 elements runs one
    short numpy loop per row, while each column operation runs one long loop.
    The weighted sum S adds the columns left to right, and that order, with
    the draws, fixes which class a row within an ulp of a facet falls in.
    """
    import numpy as np

    cols = pts.T
    low = np.minimum(cols[0], cols[1])
    for col in cols[2:]:
        np.minimum(low, col, out=low)
    s = cols[0] + cols[1]
    for col in cols[2:N]:
        s += col
    if N <= d:
        s += (d + 1 - N) * cols[N]
    if class_tag == "cp":
        return (s >= -1.0 / (d - 1)) & (s <= 1.0 + d * low)
    if class_tag == "g":
        return (low >= 0.0) & (s <= 1.0 + d * low)
    if class_tag == "eb":
        return (low >= 0.0) & (s <= 1.0)
    raise ValueError(f"no Monte Carlo mask for class {class_tag!r}")


def mc_volume(
    d: int, N: int, class_tag: str, samples: int, seed: int = 0
) -> McEstimate:
    """Monte Carlo volume over the necessary-positivity box.

    Counter-based streams keyed on (seed, block index) make results
    reproducible and independent of how samples split into blocks. The
    box measure, :func:`..geometry.vp_volume`, is exact and converted to
    float once. Every draw lies in the box, so the "p" class draws nothing:
    its hits are its samples, its stderr 0 and its estimate that float.
    """
    _validate_combo(d, N, class_tag)
    if not is_int(samples) or not is_int(seed):
        raise ValueError(f"samples and seed must be integers (got {samples!r}, {seed!r})")
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"need at least {_MC_MIN_SAMPLES} samples (got {samples})")
    if samples > _MC_MAX_SAMPLES:
        raise ValueError(f"at most {_MC_MAX_SAMPLES} samples are supported (got {samples})")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64) (got {seed})")
    scale = float(vp_volume(d, N))
    hits = samples if class_tag == "p" else _mc_hits(d, N, class_tag, samples, seed)
    p_hat = hits / samples
    stderr = scale * sqrt(p_hat * (1.0 - p_hat) / samples)
    return McEstimate(estimate=p_hat * scale, stderr=stderr, hits=hits, samples=samples)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_hits(d: int, N: int, class_tag: str, samples: int, seed: int) -> int:
    """How many of the first ``samples`` box draws of stream ``seed`` lie in the class.

    Blocks are shared round-robin among min(usable CPUs, _MC_MAX_WORKERS,
    blocks) workers: the calling thread and one started thread per further
    worker, so no thread is started when that is one. Each block's stream
    is keyed on (seed, block), so which worker draws it, and in what
    chunks, changes no row, and the hit count is an integer sum, so the
    block order cannot change it either. Each worker's chunk is _MC_CHUNK over the worker
    count, so all of them together hold the rows one worker would.
    """
    import threading

    import numpy as np

    lo = -1.0 / (d - 1)
    span = 1.0 - lo
    width = len(weights(d, N))
    blocks = range(-(-samples // _MC_BLOCK))
    workers = min(_usable_cpus(), _MC_MAX_WORKERS, len(blocks))
    chunk = _MC_CHUNK // workers

    def count(my_blocks: range) -> int:
        buf = np.empty((chunk, width))
        hits = 0
        for block in my_blocks:
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
            )
            # Philox output is a stream: drawing a block's rows chunk by
            # chunk, and only the rows a partial last block uses, gives the
            # rows one full-block draw would start with
            start = block * _MC_BLOCK
            end = min(start + _MC_BLOCK, samples)
            for row in range(start, end, chunk):
                pts = rng.random(out=buf[: min(chunk, end - row)])
                pts *= span
                pts += lo
                hits += int(np.count_nonzero(_class_mask(pts, d, N, class_tag)))
        return hits

    # Generator.random and the mask's column operations release the GIL on
    # arrays this large. The calling thread counts share 0 and one thread
    # each other share; an exception is kept and raised here once every
    # share has stopped, so a failed share never passes for zero hits. An
    # interrupt is not caught: it leaves at once, and the daemon threads do
    # not hold up the exit.
    counts = [0] * workers
    errors: list[Exception] = []

    def run(w: int) -> None:
        try:
            counts[w] = count(blocks[w::workers])
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(w,), daemon=True) for w in range(1, workers)
    ]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sum(counts)
