"""The traced benchmark wraps program functions by name; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cli imports run_suite when verify-suite runs, after install() has rebound
# it; theorem-sweep's verify.check.*_s metrics come from the timed checks
_TRACED_SUITE = """
import contextlib, io
import run, tracer
from beckring import cli

t = tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-suite", "--max-size", "16", "--json"])
print(code, sum(span[0] == "verify.run_suite" for span in t.spans), set(t.check_s) == set(run.CHECK_NAMES))
"""


def _run(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs():
    proc = _run("import tracer; tracer.install()")
    assert proc.returncode == 0, proc.stderr


def test_tracer_times_the_suite_checks():
    proc = _run(_TRACED_SUITE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "True"]
