"""Self-check of the benchmark: every workload path at tiny sizes.

    python3 perfbench/selfcheck.py

Runs one untraced and one traced measurement of each workload at its
self-check size (seconds = 0, so one cycle of passes), and checks that
every output matches reference.json, that the metric names agree with
BENCHMARK.json, that tracing leaves the package as it found it, and
that the recorded spans nest. Takes a few seconds.
"""
from __future__ import annotations

import json
import sys

import run


def check_spans(tracer) -> None:
    for i in range(len(tracer.start)):
        start, end, p = tracer.start[i], tracer.end[i], tracer.parent[i]
        assert start <= end, f"span {i} ends before it starts"
        assert end - start - tracer.child[i] >= -1e-9, f"span {i} has negative self time"
        if p >= 0:
            assert tracer.start[p] <= start and end <= tracer.end[p], f"span {i} leaks out"


def main() -> int:
    run.import_package()
    import workloads
    from parityca import engine, metrics, packed, verifier

    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == list(run.TARGETS)

    reference = json.loads(run.REFERENCE.read_text())
    modules = (engine, metrics, packed, verifier)
    before = [dict(vars(m)) for m in modules]
    for name, workload in workloads.tiny_workloads().items():
        for trace in (False, True):
            record, tracer = run.measure(workload, 0, 0, trace, reference, lambda: (0.1, 0.001))
            expected = spec["per_layer" if trace else "end_to_end"]
            assert set(record["metrics"]) == {m["name"] for m in expected}, (name, trace)
            assert record["attempted"] > 0 and record["failed"] == 0, record
            if tracer is not None:
                assert len(tracer.start) > 0
                check_spans(tracer)
            print(f"ok {name} trace={int(trace)}: {record['passes']} passes, "
                  f"{record['attempted']} outputs checked")
    after = [dict(vars(m)) for m in modules]
    assert before == after, "tracing left a wrapper installed"
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
