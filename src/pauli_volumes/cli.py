"""Command line interface.

Subcommands:

    ratios            nested-class volume ratios over a dimension range
    volume            exact volume of one class, with chamber breakdown
    classify          test an eigenvalue vector against every class
    mc                Monte Carlo estimate vs the exact volume
    check-conjectures closed-form comparison over a dimension range
    dump-regions      the integration chambers as JSON
    mub-verify        numeric check of the basis construction

Exit codes: 0 on success, 1 when a verification fails (conjecture
mismatch, Monte Carlo off by more than three standard errors, basis check
failing its tolerance), 2 on bad usage, unsupported parameters or an --out
file that cannot be written. Only this module shapes output: each
subcommand builds its document from exact values, and main renders it,
writes it and maps errors to exit codes.

Output is JSON by default; ratios, volume, mc and check-conjectures also
take --format csv with fixed headers. Rationals are printed as "p/q"
strings and irrational values as {"coeff": "p/q", "radicand": n} meaning
coeff * sqrt(radicand); decimals carry 20 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .channel import (
    ChannelSpec,
    eb_known_sufficient,
    is_cp,
    is_eb_necessary,
    is_generator_achievable,
    is_positive_necessary,
    min_output_overlap,
)
from .geometry import SurdValue, is_int
from .rationals import (
    _quoted,
    decimal_str,
    digit_limit,
    parse_rational,
    rational_str,
    surd_decimal_str,
)
from .regions import CLASS_TAGS
from .volume import (
    N_MODES,
    RATIO_NAMES,
    _validate_combo,
    check_conjectures,
    class_volume,
    mc_volume,
    n_for_mode,
    ratio_table,
    region_for,
)


def _parse_d_range(text: str) -> range:
    """A single dimension "4" or an inclusive range "2..5"."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return range(lo, hi + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise ValueError(f"--d expects an integer or a range like 2..5 (got {text!r})")


def _validated_range(text: str, n_mode: str) -> range:
    """The --d range, each dimension checked before any volume is computed."""
    ds = _parse_d_range(text)
    for d in ds:
        _validate_combo(d, n_for_mode(d, n_mode), "p")
    return ds


def _one_dimension(args) -> tuple[int, int]:
    """(d, N) for a subcommand that takes a single dimension."""
    ds = _parse_d_range(args.d)
    # not len(ds), which overflows on a range wider than sys.maxsize
    if ds.start != ds.stop - 1:
        raise ValueError(f"{args.command} needs a single dimension, not a range")
    return ds[0], n_for_mode(ds[0], args.n_mode)


def _csv_text(header: list[str], rows: list[list]) -> str:
    # imported here: only --format csv needs them
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_CsvTable = tuple[list[str], list[list]]  # (header, rows)
# (exit code, JSON document, CSV table or None for a JSON-only subcommand)
_Result = tuple[int, dict, _CsvTable | None]

_RATIO_CSV_HEADER = ["d", "N", "class", "num", "den", "decimal"]


def _ratio_csv(rows) -> _CsvTable:
    """The d,N,class,num,den,decimal table of exact (d, N, name, ratio) rows."""
    return _RATIO_CSV_HEADER, [
        [d, N, name, q.numerator, q.denominator, decimal_str(q)] for d, N, name, q in rows
    ]


def _surd(key: str, v: SurdValue) -> dict:
    """The two JSON fields of an exact surd: {"coeff", "radicand"} and its decimal."""
    return {
        key: {"coeff": rational_str(v.coeff), "radicand": v.radicand},
        f"{key}_decimal": surd_decimal_str(v.coeff, v.radicand),
    }


# --------------------------------------------------------------------------
# subcommand implementations; main renders and writes what they return
# --------------------------------------------------------------------------


def _cmd_ratios(args) -> _Result:
    rows = []
    for d in _validated_range(args.d, args.n_mode):
        N = n_for_mode(d, args.n_mode)
        rows += [(d, N, name, q) for name, q in ratio_table(d, N).items()]
    doc = {
        "n_mode": args.n_mode,
        "rows": [
            {
                "d": d,
                "N": N,
                "ratio": name,
                "value": rational_str(q),
                "decimal": decimal_str(q),
            }
            for d, N, name, q in rows
        ],
    }
    return 0, doc, _ratio_csv(rows)


def _cmd_volume(args) -> _Result:
    d, N = _one_dimension(args)
    result = class_volume(d, N, args.class_tag)
    lam = result.lambda_volume
    doc = {
        "class": args.class_tag,
        "d": d,
        "N": N,
        "chains": [
            {"label": label, "volume": rational_str(vol)}
            for label, vol in zip(result.chain_labels, result.chain_volumes)
        ],
        "symmetry_factor": result.symmetry_factor,
        "lambda_volume": rational_str(lam),
        "lambda_volume_decimal": decimal_str(lam),
        **_surd("hs_volume", result.hs_volume),
        "sufficiency": result.sufficiency,
    }
    row = [d, N, args.class_tag, lam.numerator, lam.denominator, doc["hs_volume_decimal"]]
    return 0, doc, (_RATIO_CSV_HEADER, [row])


def _rational_from_json(value) -> Fraction:
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} rejected; pass exact values as strings like \"1/3\""
        )
    if value is None or isinstance(value, bool):
        value = json.dumps(value)  # true, false or null, as typed
    raise ValueError(f"not an eigenvalue: {_quoted(value)}")


def _parse_lambdas(text: str) -> list[Fraction]:
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON array: {exc}")
        except RecursionError:
            raise ValueError("bad JSON array: nested too deeply") from None
        except ValueError:  # the only other one: an integer too long to convert
            raise ValueError(f"a JSON integer has over {digit_limit()} digits") from None
        return [_rational_from_json(v) for v in data]
    return [parse_rational(tok) for tok in text.split(",")]


def _printable(name: str, q: Fraction) -> str:
    """A derived value can pass the digit limit even when no input does."""
    try:
        return rational_str(q)
    except ValueError:
        raise ValueError(f"{name} is over the {digit_limit()}-digit limit") from None


def _cmd_classify(args) -> _Result:
    d, N = _one_dimension(args)
    spec = ChannelSpec.make(d, N, _parse_lambdas(args.lambdas))
    doc = {
        "d": d,
        "N": N,
        "lambdas": [rational_str(v) for v in spec.lambdas],
        "positive_necessary": is_positive_necessary(spec),
        "cp": is_cp(spec),
        "generator_achievable": is_generator_achievable(spec),
        "eb_necessary": is_eb_necessary(spec),
        "eb_known_sufficient": eb_known_sufficient(spec),
        "min_output_overlap": _printable("min_output_overlap", min_output_overlap(spec)),
        "eigenvalue_sum": _printable("eigenvalue_sum", spec.eigenvalue_sum()),
    }
    return 0, doc, None


def _cmd_mc(args) -> _Result:
    d, N = _one_dimension(args)
    est = mc_volume(d, N, args.class_tag, args.samples, args.seed)
    exact = class_volume(d, N, args.class_tag).hs_volume
    exact_float = float(exact)
    if est.stderr > 0.0:
        sigma = abs(est.estimate - exact_float) / est.stderr
    else:
        sigma = 0.0 if est.estimate == exact_float else float("inf")
    ok = sigma <= 3.0
    doc = {
        "d": d,
        "N": N,
        "class": args.class_tag,
        "samples": est.samples,
        "seed": args.seed,
        "hits": est.hits,
        "estimate": est.estimate,
        "stderr": est.stderr,
        **_surd("exact", exact),
        # no hits: stderr is 0 and sigma infinite, which JSON cannot encode
        "sigma": None if sigma == float("inf") else sigma,
        "within_3_sigma": ok,
    }
    header = ["d", "N", "class", "estimate", "stderr", "exact_decimal", "sigma"]
    row = [
        d, N, args.class_tag, repr(est.estimate), repr(est.stderr),
        doc["exact_decimal"], repr(sigma),
    ]
    return (0 if ok else 1), doc, (header, [row])


def _cmd_check_conjectures(args) -> _Result:
    report = check_conjectures(_validated_range(args.d, args.n_mode), args.n_mode)
    # the surd-valued box entry has no num/den columns
    rows = [
        (e.d, e.N, e.name, e.computed.as_fraction())
        for e in report.entries
        if e.name in RATIO_NAMES
    ]
    doc = {
        "all_match": report.all_match,
        "entries": [
            {
                "d": e.d,
                "N": e.N,
                "ratio": e.name,
                **_surd("computed", e.computed),
                **_surd("formula", e.formula),
                "match": e.match,
                "extrapolated": e.extrapolated,
            }
            for e in report.entries
        ],
    }
    return (0 if report.all_match else 1), doc, _ratio_csv(rows)


def _end_json(end, k: int, u: tuple[int, ...]) -> dict:
    """A stored end of the bound on x_k as const + sum_j coeffs[j] x_j over
    x_0..x_{k-1}: no coefficients for a constant end, else all k, with its
    running-sum term t S_k spread over x_1..x_{k-2} by the weights u."""
    q = end.q
    coeffs = []
    if end.x0 or end.t or end.last:
        mid = [end.t * w for w in u[: k - 2]] if end.t else [0] * (k - 2)
        coeffs = [end.x0, *mid, end.last][:k]
    return {
        "const": rational_str(Fraction(end.const, q)),
        "coeffs": [rational_str(Fraction(c, q)) for c in coeffs],
    }


def _cmd_dump_regions(args) -> _Result:
    chambers = region_for(*_one_dimension(args), args.class_tag)
    doc = {
        "class": chambers.class_tag,
        "d": chambers.d,
        "N": chambers.N,
        "n_vars": chambers.n_vars,
        "ordered": chambers.ordered,
        "symmetry_factor": chambers.symmetry_factor,
        "chains": [
            {
                "label": ch.label,
                "nplus1_slot": ch.nplus1_slot,
                "bounds": [
                    {"lower": _end_json(lo, k, ch.u), "upper": _end_json(hi, k, ch.u)}
                    for k, (lo, hi) in enumerate(ch.bounds)
                ],
            }
            for ch in chambers.chains
        ],
    }
    return 0, doc, None


# the family alone holds (d+1) d^2 complex numbers: 17 MB at d = 101,
# 16.5 GB at d = 1009
_MUB_MAX_D = 101


def _cmd_mub_verify(args) -> _Result:
    d, _ = _one_dimension(args)
    if d > _MUB_MAX_D:
        raise ValueError(f"mub-verify supports d <= {_MUB_MAX_D} (got {d})")
    # imported here: mub loads numpy, which no exact subcommand needs
    from .mub import DEFAULT_TOL, build_weyl_mubs, verify_unbiased

    tol = DEFAULT_TOL if args.tol is None else args.tol
    report = verify_unbiased(build_weyl_mubs(d), tol=tol)
    doc = {
        "d": report.d,
        "n_bases": report.n_bases,
        "tol": report.tol,
        "max_cross_deviation": report.max_cross_deviation,
        "max_orthonormality_deviation": report.max_orthonormality_deviation,
        "pair_deviations": {
            f"{a},{b}": dev for (a, b), dev in sorted(report.pair_deviations.items())
        },
        "passed": report.passed,
    }
    return (0 if report.passed else 1), doc, None


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sub, *, fmt: bool, class_flag: bool = False):
    sub.add_argument("--d", required=True, help="dimension, or an inclusive range a..b")
    sub.add_argument(
        "--n-mode",
        choices=N_MODES,
        default="max",
        help="basis count: max=d+1, d, or 3 (default max)",
    )
    if class_flag:
        sub.add_argument(
            "--class",
            dest="class_tag",
            choices=CLASS_TAGS,
            required=True,
            help="channel class",
        )
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauli-volumes",
        description="Exact and Monte Carlo volumes of mixing-channel classes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("ratios", help="nested-class volume ratios")
    _add_common(sp, fmt=True)
    sp.set_defaults(func=_cmd_ratios)

    sp = subs.add_parser("volume", help="exact volume of one class")
    _add_common(sp, fmt=True, class_flag=True)
    sp.set_defaults(func=_cmd_volume)

    sp = subs.add_parser("classify", help="test an eigenvalue vector")
    _add_common(sp, fmt=False)
    sp.add_argument(
        "--lambdas",
        required=True,
        help='eigenvalues as "1/2,0,-1/4,0" or a JSON array of strings/ints; '
        "the trailing zero is optional when every basis is in use; "
        "--lambdas=VALUE works too",
    )
    sp.set_defaults(func=_cmd_classify)

    sp = subs.add_parser("mc", help="Monte Carlo volume cross-check")
    _add_common(sp, fmt=True, class_flag=True)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_mc)

    sp = subs.add_parser("check-conjectures", help="compare ratios to closed forms")
    _add_common(sp, fmt=True)
    sp.set_defaults(func=_cmd_check_conjectures)

    sp = subs.add_parser("dump-regions", help="integration chambers as JSON")
    _add_common(sp, fmt=False, class_flag=True)
    sp.set_defaults(func=_cmd_dump_regions)

    sp = subs.add_parser("mub-verify", help="check the basis construction numerically")
    sp.add_argument("--d", required=True, help="a prime dimension")
    sp.add_argument("--tol", type=float)  # default: mub.DEFAULT_TOL
    sp.add_argument("--out", help="write output to this file instead of stdout")
    # the family has all d+1 bases, so _one_dimension reads N = d+1
    sp.set_defaults(func=_cmd_mub_verify, n_mode="max")

    return parser


def _bind_lambdas(argv: list[str]) -> list[str]:
    """Join "--lambdas VALUE" into "--lambdas=VALUE": argparse would read a
    value that starts with a minus sign, like "-1/2,1/4,0", as a flag."""
    for i, tok in enumerate(argv[:-1]):
        if tok == "--lambdas":
            return argv[:i] + [f"--lambdas={argv[i + 1]}"] + argv[i + 2 :]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_bind_lambdas(argv))
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return int(exc.code or 0)
    try:
        code, doc, table = args.func(args)
        # the JSON-only subcommands return no table and have no --format
        if table is not None and args.format == "csv":
            text = _csv_text(*table)
        else:
            text = json.dumps(doc, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
