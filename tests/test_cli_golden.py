"""The exact stdout bytes and exit codes of the deterministic CLI output.

``tests/data/cli_golden.json`` maps each shell-quoted argv to [exit code,
sha256 of stdout]. It covers `volume` (JSON and CSV) and `dump-regions` for
every class and supported n-mode at d = 2..6, `ratios` and
`check-conjectures` over lo..6 in every n-mode and format, and the README's
`classify` examples. `mc` and `mub-verify` are left out: their floats depend
on the numpy and BLAS builds.

Regenerate the file only for a deliberate output change, and log it:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import json
import shlex
from pathlib import Path

from pauli_volumes.cli import main
from pauli_volumes.regions import CLASS_TAGS
from pauli_volumes.volume import N_MODES, n_for_mode, supported_n_values

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _argvs() -> list[list[str]]:
    def supported(d, mode):
        return n_for_mode(d, mode) in supported_n_values(d)

    argvs = []
    for d in range(2, 7):
        for mode in (m for m in N_MODES if supported(d, m)):
            for tag in CLASS_TAGS:
                common = ["--d", str(d), "--n-mode", mode, "--class", tag]
                argvs += [["volume", *common], ["volume", *common, "--format", "csv"]]
                argvs.append(["dump-regions", *common])
    for mode in N_MODES:
        lo = next(d for d in range(2, 7) if supported(d, mode))
        for cmd in ("ratios", "check-conjectures"):
            for fmt in ("json", "csv"):
                argvs.append([cmd, "--d", f"{lo}..6", "--n-mode", mode, "--format", fmt])
    argvs.append(["classify", "--d", "3", "--lambdas", "1/2,1/2,0,1/4"])
    argvs.append(
        ["classify", "--d", "5", "--n-mode", "3", "--lambdas", '["1/10", "1/10", 0, "1/10"]']
    )
    return argvs


def _entry(code: int, out: str) -> list:
    return [code, hashlib.sha256(out.encode()).hexdigest()]


def test_cli_output_matches_the_golden_hashes(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 150
    wrong = []
    for key, want in golden.items():
        code = main(shlex.split(key))
        if _entry(code, capsys.readouterr().out) != want:
            wrong.append(key)
    assert not wrong, f"{len(wrong)} outputs changed, first: {wrong[0]}"


def test_golden_file_lists_what_its_generator_runs():
    """The file's commands are those of _argvs(), in order, so the file and
    the generator that rewrites it cannot drift apart."""
    golden = json.loads(GOLDEN.read_text())
    assert [shlex.join(argv) for argv in _argvs()] == list(golden)


if __name__ == "__main__":
    import contextlib
    import io

    golden = {}
    for argv in _argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        golden[shlex.join(argv)] = _entry(code, buf.getvalue())
    lines = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in golden.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(golden)} commands written to {GOLDEN}")
