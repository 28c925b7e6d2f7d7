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
failing its tolerance), 2 on bad usage or unsupported parameters.

Output is JSON by default; ratios, volume, mc and check-conjectures also
take --format csv with fixed headers. Rationals are printed as "p/q"
strings and irrational values as {"coeff": "p/q", "radicand": n} meaning
coeff * sqrt(radicand); decimals carry 20 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .channel import (
    ChannelSpec,
    is_cp,
    is_eb_necessary,
    is_generator_achievable,
    is_positive_necessary,
    min_output_overlap,
)
from .mub import DEFAULT_TOL, build_weyl_mubs, verify_unbiased
from .rationals import decimal_str, parse_rational, rational_str
from .regions import CLASS_TAGS
from .volume import (
    RATIO_NAMES,
    check_conjectures,
    class_volume,
    mc_volume,
    ratio_table,
    region_for,
)

_N_MODES = ("max", "d", "3")


def _n_for_mode(d: int, n_mode: str) -> int:
    return {"max": d + 1, "d": d, "3": 3}[n_mode]


def _parse_d_range(text: str) -> list[int]:
    """A single dimension "4" or an inclusive range "2..5"."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"--d expects an integer or a range like 2..5 (got {text!r})")


def _single_d(values: list[int], flag_context: str) -> int:
    if len(values) != 1:
        raise ValueError(f"{flag_context} needs a single dimension, not a range")
    return values[0]


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2), out)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_RATIO_CSV_HEADER = ["d", "N", "class", "num", "den", "decimal"]


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------


def _cmd_ratios(args) -> int:
    ds = _parse_d_range(args.d)
    rows = []
    for d in ds:
        N = _n_for_mode(d, args.n_mode)
        table = ratio_table(d, N)
        for name in RATIO_NAMES:
            rows.append((d, N, name, table[name]))
    if args.format == "csv":
        text = _csv_text(
            _RATIO_CSV_HEADER,
            [
                [d, N, name, q.numerator, q.denominator, decimal_str(q)]
                for d, N, name, q in rows
            ],
        )
        _emit(text, args.out)
    else:
        _emit_json(
            {
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
            },
            args.out,
        )
    return 0


def _cmd_volume(args) -> int:
    d = _single_d(_parse_d_range(args.d), "volume")
    N = _n_for_mode(d, args.n_mode)
    result = class_volume(d, N, args.class_tag)
    if args.format == "csv":
        lam = result.lambda_volume
        text = _csv_text(
            _RATIO_CSV_HEADER,
            [
                [
                    d,
                    N,
                    args.class_tag,
                    lam.numerator,
                    lam.denominator,
                    result.hs_volume.decimal(),
                ]
            ],
        )
        _emit(text, args.out)
    else:
        _emit_json(result.to_json_dict(), args.out)
    return 0


def _rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not an eigenvalue: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} rejected; pass exact values as strings like \"1/3\""
        )
    raise ValueError(f"not an eigenvalue: {value!r}")


def _parse_lambdas(text: str) -> list[Fraction]:
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON array: {exc}")
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of eigenvalues")
        return [_rational_from_json(v) for v in data]
    return [parse_rational(tok) for tok in text.split(",")]


def _cmd_classify(args) -> int:
    d = _single_d(_parse_d_range(args.d), "classify")
    N = _n_for_mode(d, args.n_mode)
    values = _parse_lambdas(args.lambdas)
    spec = ChannelSpec.make(d, N, values)
    eb = is_eb_necessary(spec)
    _emit_json(
        {
            "d": d,
            "N": N,
            "lambdas": [rational_str(v) for v in spec.lambdas],
            "positive_necessary": is_positive_necessary(spec),
            "cp": is_cp(spec),
            "generator_achievable": is_generator_achievable(spec),
            "eb_necessary": eb.holds,
            "eb_known_sufficient": eb.known_sufficient,
            "min_output_overlap": rational_str(min_output_overlap(spec)),
            "eigenvalue_sum": rational_str(spec.eigenvalue_sum()),
        },
        args.out,
    )
    return 0


def _cmd_mc(args) -> int:
    d = _single_d(_parse_d_range(args.d), "mc")
    N = _n_for_mode(d, args.n_mode)
    est = mc_volume(d, N, args.class_tag, args.samples, args.seed)
    exact = class_volume(d, N, args.class_tag)
    exact_float = float(exact.hs_volume)
    if est.stderr > 0.0:
        sigma = abs(est.estimate - exact_float) / est.stderr
    else:
        sigma = 0.0 if est.estimate == exact_float else float("inf")
    ok = sigma <= 3.0
    if args.format == "csv":
        text = _csv_text(
            ["d", "N", "class", "estimate", "stderr", "exact_decimal", "sigma"],
            [
                [
                    d,
                    N,
                    args.class_tag,
                    repr(est.estimate),
                    repr(est.stderr),
                    exact.hs_volume.decimal(),
                    repr(sigma),
                ]
            ],
        )
        _emit(text, args.out)
    else:
        _emit_json(
            {
                "d": d,
                "N": N,
                "class": args.class_tag,
                "samples": est.samples,
                "seed": args.seed,
                "hits": est.hits,
                "estimate": est.estimate,
                "stderr": est.stderr,
                "exact": exact.hs_volume.to_json_dict(),
                "exact_decimal": exact.hs_volume.decimal(),
                "sigma": sigma,
                "within_3_sigma": ok,
            },
            args.out,
        )
    return 0 if ok else 1


def _cmd_check_conjectures(args) -> int:
    ds = _parse_d_range(args.d)
    report = check_conjectures(ds, args.n_mode)
    if args.format == "csv":
        rows = []
        for e in report.entries:
            if e.name not in RATIO_NAMES:
                continue  # the surd-valued box entry has no num/den columns
            q = e.computed.as_fraction()
            rows.append(
                [e.d, e.N, e.name, q.numerator, q.denominator, decimal_str(q)]
            )
        _emit(_csv_text(_RATIO_CSV_HEADER, rows), args.out)
    else:
        _emit_json(report.to_json_dict(), args.out)
    return 0 if report.all_match else 1


def _affine_json(expr) -> dict:
    return {
        "const": rational_str(expr.const),
        "coeffs": [rational_str(c) for c in expr.coeffs],
    }


def _cmd_dump_regions(args) -> int:
    d = _single_d(_parse_d_range(args.d), "dump-regions")
    N = _n_for_mode(d, args.n_mode)
    chambers = region_for(d, N, args.class_tag)
    _emit_json(
        {
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
                        {"lower": _affine_json(lo), "upper": _affine_json(hi)}
                        for lo, hi in ch.bounds
                    ],
                }
                for ch in chambers.chains
            ],
        },
        args.out,
    )
    return 0


def _cmd_mub_verify(args) -> int:
    d = _single_d(_parse_d_range(args.d), "mub-verify")
    mubs = build_weyl_mubs(d)
    report = verify_unbiased(mubs, tol=args.tol)
    _emit_json(
        {
            "d": report.d,
            "n_bases": report.n_bases,
            "tol": report.tol,
            "max_cross_deviation": report.max_cross_deviation,
            "max_orthonormality_deviation": report.max_orthonormality_deviation,
            "pair_deviations": {
                f"{a},{b}": dev for (a, b), dev in sorted(report.pair_deviations.items())
            },
            "passed": report.passed,
        },
        args.out,
    )
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sub, *, fmt: bool, n_mode: bool = True, class_flag: bool = False):
    sub.add_argument("--d", required=True, help="dimension, or an inclusive range a..b")
    if n_mode:
        sub.add_argument(
            "--n-mode",
            choices=_N_MODES,
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
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.set_defaults(func=_cmd_mub_verify)

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
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
