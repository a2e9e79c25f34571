"""The benchmark's own self-check runs as part of the suite.

It replays every benchmark workload at tiny sizes against the report
digests in perfbench/reference.json and installs the tracing wrappers,
so a change to a report, or a rename of a traced function, fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout
