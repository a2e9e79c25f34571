"""The benchmark's own self-check runs as part of the suite.

It replays every benchmark workload at tiny sizes against the report
digests in perfbench/reference.json and installs the tracing wrappers,
so a change to a report, or a rename of a traced function, fails here.
The single-configuration paths are also pinned on every ring of the
reference pool, not only on the few the self-check draws.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

from parityca import lattice as L
from parityca.rule import CORRECTED, build_rule_table

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


def test_every_reference_pool_ring_matches_its_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    expected = json.loads((ROOT / "perfbench" / "reference.json").read_text())["single-config"]
    rule = build_rule_table(CORRECTED)
    actual = {
        text: workloads.digest(workloads.canonical(workloads.single_output(rule, L.parse(text))))
        for text in expected
    }
    assert len(actual) == 896
    assert actual == expected
