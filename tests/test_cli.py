"""Command line behavior: output formats, determinism, exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_volumes import cli
from pauli_volumes.cli import main
from pauli_volumes.geometry import SurdValue
from pauli_volumes.mub import build_weyl_mubs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratios_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--d", "2..3", "--format", "csv")
    assert code == 0
    assert out == (
        "d,N,class,num,den,decimal\n"
        "2,3,cp/p,1,3,0.33333333333333333333\n"
        "2,3,g/cp,3,16,0.1875\n"
        "2,3,eb/g,1,3,0.33333333333333333333\n"
        "3,4,cp/p,1,8,0.125\n"
        "3,4,g/cp,64,243,0.26337448559670781893\n"
        "3,4,eb/g,1,4,0.25\n"
    )


def test_ratios_json_structure(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--d", "4", "--n-mode", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_mode"] == "3"
    rows = {r["ratio"]: r for r in doc["rows"]}
    assert rows["cp/p"]["value"] == "1/12"
    assert rows["g/cp"]["value"] == "405/1024"
    assert all(r["N"] == 3 for r in doc["rows"])


def test_volume_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "volume", "--d", "2", "--class", "cp")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_volume"] == "8/3"
    assert doc["hs_volume"] == {"coeff": "1/3", "radicand": 1}
    assert doc["sufficiency"] == "known-exact"
    assert len(doc["chains"]) == 3

    code, out, _ = run_cli(
        capsys, "volume", "--d", "2", "--class", "cp", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "d,N,class,num,den,decimal\n"
        "2,3,cp,8,3,0.33333333333333333333\n"
    )


def test_volume_irrational_box(capsys):
    code, out, _ = run_cli(capsys, "volume", "--d", "4", "--n-mode", "3", "--class", "p")
    doc = json.loads(out)
    assert doc["hs_volume"] == {"coeff": "1/9", "radicand": 2}
    assert doc["sufficiency"] == "upper-bound"


def test_classify_comma_and_json_inputs(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--d", "2", "--lambdas", "1/2,1/2,1/2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True
    assert doc["generator_achievable"] is True
    assert doc["eb_necessary"] is False  # sum 3/2 > 1
    assert doc["min_output_overlap"] == "1/4"

    code, out, _ = run_cli(
        capsys,
        "classify",
        "--d",
        "5",
        "--n-mode",
        "3",
        "--lambdas",
        '["1/10", "1/10", 0, "1/10"]',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 3
    assert doc["eb_necessary"] is True
    assert doc["eb_known_sufficient"] is False


def test_classify_takes_a_leading_negative_value_in_either_form(capsys):
    lambdas = "-1/12,1/12,1/24,-1/4,1/24"
    outs = []
    for argv in (["--lambdas", lambdas], [f"--lambdas={lambdas}"]):
        code, out, _ = run_cli(capsys, "classify", "--d", "4", *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["lambdas"] == lambdas.split(",") + ["0/1"]
    assert doc["cp"] is True


def test_classify_rejects_json_floats(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--d", "2", "--lambdas", "[0.5, 0, 0]"
    )
    assert code == 2
    assert "float" in err


@pytest.mark.parametrize(
    "lambdas",
    [
        "[true]",
        "[null]",
        "[",
        # nested past the recursion limit: no RecursionError traceback
        pytest.param("[" * 1_000, id="nested-1000"),
        pytest.param("[" * 100_000, id="nested-100000"),
    ],
)
def test_classify_rejects_a_bad_json_array(capsys, lambdas):
    code, out, err = run_cli(capsys, "classify", "--d", "2", f"--lambdas={lambdas}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_rejects_wrong_length(capsys):
    code, _, err = run_cli(capsys, "classify", "--d", "3", "--lambdas", "1,0")
    assert code == 2
    assert "error" in err


def test_unsupported_dimension_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ratios", "--d", "1")
    assert code == 2
    assert "d must be" in err
    code, _, err = run_cli(capsys, "ratios", "--d", "5..2")
    assert code == 2
    code, _, err = run_cli(capsys, "ratios", "--d", "two")
    assert code == 2


def test_dimension_range_is_checked_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("computed before the range was checked")

    monkeypatch.setattr("pauli_volumes.cli.ratio_table", no_work)
    monkeypatch.setattr("pauli_volumes.cli.check_conjectures", no_work)
    for argv in (
        ("ratios", "--d", "2..13"),
        ("ratios", "--d", "13..2000000"),
        ("check-conjectures", "--d", "2..13"),
        ("check-conjectures", "--d", "2..4", "--n-mode", "d"),
        ("check-conjectures", "--d", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--lambdas=0,0,0,0"),
        ("mub-verify",),
        ("volume", "--class", "cp"),
        ("mc", "--class", "cp"),
        ("dump-regions", "--class", "cp"),
    ],
)
def test_single_dimension_subcommand_rejects_a_huge_range(capsys, argv):
    """A range wider than sys.maxsize is a usage error like any other range,
    not an OverflowError from taking its length."""
    code, out, err = run_cli(capsys, *argv, "--d", "1..100000000000000000000")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} needs a single dimension, not a range\n"


def test_classify_rejects_a_huge_exponent(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--d", "3", "--lambdas", "1e1000000000,0,0,0"
    )
    assert code == 2
    assert out == ""
    assert "exponent" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "classify", "--d", "3", "--lambdas", "1e-3,0.25,1/3,0")
    assert code == 0
    assert json.loads(out)["lambdas"] == ["1/1000", "1/4", "1/3", "0/1", "0/1"]


@pytest.mark.parametrize("value", ["1e4300", "12345e4296", "1e-4300"])
def test_classify_rejects_a_value_too_long_to_print(capsys, value):
    """One digit past the integer-string limit (4300) in a numerator or a
    denominator is a usage error that names the value."""
    code, out, err = run_cli(capsys, "classify", "--d", "3", "--lambdas", f"{value},0,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {value!r}") and err.count("\n") == 1


def test_classify_prints_a_value_at_the_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "classify", "--d", "3", "--lambdas", "1e4299,0,0,0")
    assert code == 0
    assert json.loads(out)["lambdas"][0] == f"{10**4299}/1"
    code, out, _ = run_cli(capsys, "classify", "--d", "3", "--lambdas", f"{'7' * 4300},0,0,0")
    assert code == 0
    assert json.loads(out)["lambdas"][0] == f"{'7' * 4300}/1"


@pytest.mark.parametrize(
    "literal",
    ["1" * 4301, "0." + "1" * 4301, "1/" + "7" * 4301],
    ids=["numerator", "decimal", "denominator"],
)
def test_classify_rejects_a_digit_run_past_the_limit(capsys, literal):
    """A digit run past the integer-string limit is refused before it is
    converted, with a short message that names the limit and not the input."""
    code, out, err = run_cli(capsys, "classify", "--d", "3", "--lambdas", f"{literal},0,0,0")
    assert (code, out) == (2, "")
    assert "4300" in err and err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize(
    "literal",
    ["0." + "1" * 4300, "1" * 4300 + "e5000", "1" * 4300 + "x", "1/" + "0" * 4300],
    ids=["denominator", "exponent", "not-rational", "zero-denominator"],
)
def test_classify_error_does_not_echo_a_long_literal(capsys, literal):
    """Digit runs within the limit can still make a literal that is refused;
    the error line quotes only the start of it."""
    code, out, err = run_cli(capsys, "classify", "--d", "3", "--lambdas", f"{literal},0,0,0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "element",
    [str(list(range(20_000))), "[" * 900 + "]" * 900, json.dumps({"a": "x" * 5000})],
    ids=["long-list", "deep-list", "long-string-in-dict"],
)
def test_classify_error_does_not_echo_a_long_json_element(capsys, element):
    """A JSON element that is not an eigenvalue is quoted only in part."""
    code, out, err = run_cli(capsys, "classify", "--d", "2", "--lambdas", f"[{element}, 0, 0]")
    assert (code, out) == (2, "")
    assert err.startswith("error: not an eigenvalue: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("token", ["true", "false", "null"])
def test_classify_error_echoes_a_json_literal_as_typed(capsys, token):
    """A JSON true, false or null is not an eigenvalue, and the error names
    it in JSON, not as Python's True, False or None."""
    code, out, err = run_cli(capsys, "classify", "--d", "3", "--lambdas", f"[{token},0,0,0]")
    assert (code, out) == (2, "")
    assert err == f"error: not an eigenvalue: '{token}'\n"


@pytest.mark.parametrize(
    "lambdas, named",
    [
        ("9e4299,9e4299,0,0", "eigenvalue_sum"),  # 18e4299 has 4301 digits
        ("-9e4299,0,0,0", "min_output_overlap"),
        (f"[{'1' * 5000}, 0, 0, 0]", "a JSON integer"),
    ],
)
def test_classify_rejects_a_result_too_long_to_print(capsys, lambdas, named):
    """Values derived from printable inputs, and JSON integers, can pass the
    integer-string limit; the usage error names the value and the limit."""
    code, out, err = run_cli(capsys, "classify", "--d", "3", f"--lambdas={lambdas}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}") and "4300" in err
    assert err.count("\n") == 1


def test_unknown_flag_and_missing_subcommand(capsys):
    assert run_cli(capsys, "ratios", "--d", "2", "--bogus")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_mc_json_fields_and_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc",
        "--d",
        "2",
        "--class",
        "cp",
        "--samples",
        "100000",
        "--seed",
        "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 100000
    assert doc["within_3_sigma"] is True
    assert doc["exact"] == {"coeff": "1/3", "radicand": 1}
    assert doc["sigma"] <= 3.0


def test_mc_seed_must_fit_the_64_bit_key(capsys):
    base = ["mc", "--d", "2", "--class", "cp", "--samples", "10000"]
    for seed in (-1, 1 << 64):
        code, out, err = run_cli(capsys, *base, "--seed", str(seed))
        assert code == 2
        assert out == ""
        assert "seed" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, *base, "--seed", str((1 << 64) - 1))
    assert code == 0
    assert json.loads(out)["seed"] == (1 << 64) - 1


def test_mc_sample_count_is_capped(capsys, monkeypatch):
    base = ["mc", "--d", "2", "--class", "p", "--samples"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *base, str(10**8 + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "100000000 samples" in err
    # the cap itself is accepted; every box draw lies in the box, so a stub
    # sampler that counts them all stands in for 10^8 draws
    monkeypatch.setattr("pauli_volumes.volume._mc_hits", lambda d, N, tag, n, seed: n)
    code, out, _ = run_cli(capsys, *base, str(10**8))
    assert code == 0
    assert json.loads(out)["hits"] == 10**8


def test_mc_without_hits_writes_null_sigma(capsys):
    """No hits means a zero standard error and an infinite deviation, which
    JSON (RFC 8259) cannot encode: sigma is null and the run fails."""
    argv = ["mc", "--d", "8", "--class", "eb", "--samples", "10000", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=reject)
    assert (doc["hits"], doc["stderr"], doc["sigma"]) == (0, 0.0, None)
    assert doc["within_3_sigma"] is False
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out.splitlines()[1].endswith(",0.0,0.0,1.3042722801309299870E-10,inf")


def test_mc_fails_when_the_exact_value_is_five_sigma_away(capsys, monkeypatch):
    """The gate is at 3 sigma: with the exact volume moved 5 stderr away
    from where it lies, on the side away from the estimate, the same draws
    fail the check."""
    argv = ["mc", "--d", "3", "--class", "cp", "--samples", "100000", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["within_3_sigma"] is True
    exact = Fraction(doc["exact"]["coeff"])
    side = 1 if Fraction(doc["estimate"]) < exact else -1
    moved = SurdValue(exact + side * 5 * Fraction(doc["stderr"]))
    true_class_volume = cli.class_volume
    monkeypatch.setattr(
        cli,
        "class_volume",
        lambda *args: true_class_volume(*args)._replace(hs_volume=moved),
    )
    code, out, err = run_cli(capsys, *argv)
    moved_doc = json.loads(out)
    assert (code, err) == (1, "")
    assert moved_doc["within_3_sigma"] is False
    assert moved_doc["hits"] == doc["hits"]
    assert moved_doc["sigma"] == pytest.approx(5 + doc["sigma"])


def test_mc_output_bytes_are_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "mc", "--d", "3", "--class", "g", "--samples", "50000",
        "--seed", "5", "--format", "csv",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "d,N,class,estimate,stderr,exact_decimal,sigma"


def test_out_file_replaces_stdout(tmp_path, capsys):
    target = tmp_path / "ratios.json"
    code, out, _ = run_cli(
        capsys, "ratios", "--d", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"][0]["value"] == "1/3"


def test_failed_out_write_is_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(
            capsys, "volume", "--d", "3", "--class", "cp", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


_HUGE_PRIME = "1000000000000000000000000000057"


@pytest.mark.parametrize(
    "argv",
    [
        ("--d", _HUGE_PRIME),
        ("--d", "103"),
        ("--d", "5", "--tol", "nan"),
        ("--d", "5", "--tol", "inf"),
        ("--d", "5", "--tol", "-1"),
        ("--d", "5", "--tol", "0"),
    ],
)
def test_mub_verify_rejects_unbounded_input(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mub-verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_mub_verify_accepts_the_largest_supported_dimension(capsys, monkeypatch):
    built = []

    def small_family(d):
        built.append(d)
        return build_weyl_mubs(3)

    monkeypatch.setattr("pauli_volumes.mub.build_weyl_mubs", small_family)
    assert run_cli(capsys, "mub-verify", "--d", "101")[0] == 0
    assert run_cli(capsys, "mub-verify", "--d", "102")[0] == 2
    assert built == [101]


# (good values, bad values) for every flag; the --out values name a kind of path
_VOCABULARY = {
    "--d": (("2", "3", "5", "2..4", "3..5"),
            ("5..2", "0", "-3", "x", "", "103", _HUGE_PRIME, "2..1000000000")),
    "--n-mode": (("max", "d", "3"), ("4",)),
    "--class": (("p", "cp", "g", "eb"), ("q",)),
    "--samples": (("10000", "20000"), ("9999", "100000001", "-1", "x")),
    "--seed": (("0", "7"), ("-1", str(1 << 64), "x")),
    "--tol": (("1e-10", "1e-300"), ("1e400", "nan", "inf", "-1", "0", "x")),
    "--lambdas": (("1/2,1/2,0,1/4", '["1/10", 0, 0, 0]', "-1/12,1/12,1/24,-1/4,1/24"),
                  ("1e1000000000,0,0,0", "1e4300,0,0,0", "[0.5, 0, 0]",
                   "[true]", "[", "1,0", "")),
    "--format": (("json", "csv"), ("xml",)),
    "--out": (("file",), ("missing-dir", "dir")),
}
# each subcommand's own flags, and a bogus subcommand
_FLAGS = {
    "ratios": ("--d", "--n-mode", "--format", "--out"),
    "volume": ("--d", "--n-mode", "--class", "--format", "--out"),
    "classify": ("--d", "--n-mode", "--lambdas", "--out"),
    "mc": ("--d", "--n-mode", "--class", "--samples", "--seed", "--format", "--out"),
    "check-conjectures": ("--d", "--n-mode", "--format", "--out"),
    "dump-regions": ("--d", "--n-mode", "--class", "--out"),
    "mub-verify": ("--d", "--tol", "--out"),
    "bogus": ("--d",),
}
_REQUIRED = ("--d", "--class", "--lambdas")  # the others are drawn in or left out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_gets_an_exit_code_and_no_traceback(data, tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    paths = {"file": root / "out.txt", "missing-dir": root / "missing" / "x", "dir": root}
    command = data.draw(st.sampled_from(list(_FLAGS)))
    flags = [f for f in _FLAGS[command] if f in _REQUIRED or data.draw(st.booleans())]
    # at most one fault: a flag left out, or given a bad value, or a flag
    # the subcommand lacks
    fault = data.draw(st.sampled_from([None, *_VOCABULARY]))
    if fault in flags and data.draw(st.booleans()):
        flags.remove(fault)
    elif fault and fault not in flags:
        flags.append(fault)
    argv = [command]
    for flag in flags:
        good, bad = _VOCABULARY[flag]
        value = data.draw(st.sampled_from(bad if flag == fault else good))
        argv += [flag, str(paths.get(value, value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert command in ("mc", "check-conjectures", "mub-verify")
    assert (code == 2) == bool(err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_check_conjectures_exits_zero_and_csv(capsys):
    code, out, _ = run_cli(capsys, "check-conjectures", "--d", "2..5")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True

    code, out, _ = run_cli(
        capsys, "check-conjectures", "--d", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,N,class,num,den,decimal"
    assert lines[1].startswith("6,7,cp/p,1,840,")


def test_check_conjectures_flags_extrapolation(capsys):
    code, out, _ = run_cli(capsys, "check-conjectures", "--d", "6")
    assert code == 0
    doc = json.loads(out)
    assert all(e["extrapolated"] for e in doc["entries"])
    assert all(e["match"] for e in doc["entries"])


def test_dump_regions_structure(capsys):
    code, out, _ = run_cli(
        capsys, "dump-regions", "--d", "4", "--n-mode", "3", "--class", "cp"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vars"] == 4
    assert doc["symmetry_factor"] == 6
    assert len(doc["chains"]) == 16
    chain = doc["chains"][0]
    assert set(chain) == {"label", "nplus1_slot", "bounds"}
    assert len(chain["bounds"]) == 4
    assert chain["bounds"][0]["lower"]["coeffs"] == []


def test_mub_verify_passes_for_primes(capsys):
    code, out, _ = run_cli(capsys, "mub-verify", "--d", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["n_bases"] == 8
    assert doc["max_cross_deviation"] < 1e-10


def test_mub_verify_rejects_composite(capsys):
    # 6 is even; 9 fails at the first odd trial divisor, 25 at a later one
    for d in ("6", "9", "25"):
        code, _, err = run_cli(capsys, "mub-verify", "--d", d)
        assert code == 2
        assert "prime" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pauli_volumes", "ratios", "--d", "2", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2,3,cp/p,1,3,0.33333333333333333333"
