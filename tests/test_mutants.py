"""tools/mutants.py leaves nothing behind when it is terminated."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"

# a checkout whose one test records its process id and then sleeps, so the
# suite is still running when the script is terminated
_CHECKOUT_TEST = """
import os
import time
from pathlib import Path


def test_sleeps():
    pid_file = os.environ["SUITE_PID_FILE"]
    Path(pid_file + ".part").write_text(str(os.getpid()))
    os.replace(pid_file + ".part", pid_file)
    time.sleep(60)
"""

# loads the script, installs its SIGTERM handler as main does and runs the
# suite on a copy of the small checkout; main is not called, since in a
# mutant's copy of the repository its stale check would exit first
_DRIVER = """
import importlib.util
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("mutants", sys.argv[1])
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
mutants.ROOT = Path(sys.argv[2])
mutants.exit_on_sigterm()
mutants.run_suite(None)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_suite_and_removes_the_copy(tmp_path):
    """A SIGTERM while a suite runs ends the script with exit code 143, the
    suite's process is stopped, and no mutant-* copy is left in the temp
    directory."""
    checkout = tmp_path / "checkout"
    (checkout / "tests").mkdir(parents=True)
    (checkout / "pytest.ini").write_text("[pytest]\n")
    (checkout / "tests" / "test_sleeps.py").write_text(_CHECKOUT_TEST)
    temp = tmp_path / "temp"
    temp.mkdir()
    pid_file = tmp_path / "suite.pid"
    env = dict(os.environ, TMPDIR=str(temp), SUITE_PID_FILE=str(pid_file))
    suite_pid = None
    with subprocess.Popen(
        [sys.executable, "-B", "-c", _DRIVER, str(SCRIPT), str(checkout)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    ) as proc:
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "the suite did not start"
                time.sleep(0.05)
            suite_pid = int(pid_file.read_text())
            assert list(temp.glob("mutant-*"))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 143
            assert not _alive(suite_pid)
            assert not list(temp.glob("mutant-*"))
        finally:
            proc.kill()  # nothing to do once it has exited
            if suite_pid is not None and _alive(suite_pid):
                os.kill(suite_pid, signal.SIGKILL)
