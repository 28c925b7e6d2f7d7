"""Command line behavior: output formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from pauli_volumes.cli import main


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


def test_bad_dimension_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PV_MAX_D", "abc")
    code, out, err = run_cli(capsys, "volume", "--d", "3", "--class", "cp")
    assert code == 2
    assert out == ""
    assert "PV_MAX_D" in err


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
    code, _, err = run_cli(capsys, "mub-verify", "--d", "6")
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
