"""Benchmark of the parityca package, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` of the same checkout and driven
through its public functions from this one process. A run repeats passes
of one workload for ``--seconds`` seconds and checks every output
against ``reference.json`` (digests taken from the initial commit).
The seed picks the ``single-config`` sample; the sweeps are exhaustive,
so their inputs do not depend on it. Why each workload is there is in
BENCHMARK.json; the end-to-end metric each per-layer metric should move
is in TARGETS below.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, written from spans recorded around the calls between the
package's modules (see ``tracing.py``). The sweeps workload, one part
of which runs a pool of two workers, is traced once more with one
worker, because spans inside pool workers are lost.

Timing. Every pass runs the same operations in the same order, and an
operation's time is its fastest repeat within the run; ``wall_s`` is
the sum of those times over one pass, and the latency percentiles are
taken over operations. A run starts no pass that it does not expect to
finish within ``--seconds``. On a shared host, other tenants slow
pure-Python code by up to 1.5x, in flickers of a few milliseconds and
in stretches of minutes (seen on a 2-vCPU VM). The fastest repeat
catches the flickers' gaps; a stretch that covers a whole run still
shows: over ten 55 s runs on that VM the quartile spread of ``wall_s``
was 9% on ``sweeps`` and 14% on ``single-config``. The run fixes
glibc's malloc thresholds first (see MALLOC_SETTINGS).
``setup_s`` is the median over fresh interpreters, one started before
each cycle of passes, so that the samples span the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one per-size report for the sweeps and one configuration for
``single-config``; ``failed / attempted`` is the error rate. The seed,
the machine and the sample counts go to ``perfbench/results/``, with
the spans of a traced run.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("sweeps", "single-config")

# Per-layer metric -> the end-to-end metric and workload it should move.
# Names, units and directions of all metrics are in BENCHMARK.json.
TARGETS = {
    "packed.batch_step.s": "configs_per_s on sweeps",
    "packed.batch_step.calls": "configs_per_s on sweeps",
    "packed.batch_step.cell_updates_per_s": "configs_per_s on sweeps",
    "verifier.configs_stepped_per_checked": "configs_per_s on sweeps",
    "verifier.self_s": "configs_per_s on sweeps",
    "packed.invariant_masks.s": "wall_s on sweeps",
    "packed.necklace_mask.s": "wall_s on sweeps",
    "verifier.necklace_kept_ratio": "wall_s on sweeps",
    "verifier.pool_s": "wall_s on sweeps",
    "verifier.pool_starts": "wall_s on sweeps",
    "engine.evolve.calls": "wall_s on sweeps",
    "engine.evolve.s": "wall_s on sweeps",
    "engine.step.calls": "op_p50_ms on single-config",
    "engine.step.us_per_call": "op_p50_ms on single-config",
    "metrics.switches.s": "op_p50_ms on single-config",
    "metrics.find_domains.s": "op_p50_ms on single-config",
    "metrics.ordered_blocks.s": "op_p50_ms on single-config",
    "metrics.merge_events.s": "op_p50_ms on single-config",
    "verifier.check_trajectory_invariants.s": "op_p50_ms on single-config",
    "rule.build_rule_table.s": "setup_s on every workload",
    "trace_overhead_s": "none: traced minus untraced wall_s",
}

INVARIANT_MASKS = ("switch_counts", "domain_masks", "merge_mask", "ordered_block_length_masks")

# Runs in a fresh interpreter: import the package, build both rule tables
# and their numpy lookup tables. Prints total and table-building seconds.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import parityca
from parityca import packed, rule
t1 = time.perf_counter()
tables = [rule.build_rule_table(v) for v in rule.VARIANTS]
t2 = time.perf_counter()
for table in tables:
    packed.lut64(table)
t3 = time.perf_counter()
print(t3 - t0, t2 - t1, parityca.__file__)
"""


def measure_setup() -> tuple[float, float]:
    """Set-up and table-building seconds of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    if Path(out[2]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"set-up imported parityca from {out[2]}")
    return float(out[0]), float(out[1])


# glibc's malloc moves its mmap and trim thresholds as a process frees
# memory, so the numpy temporaries of a sweep came either from fresh
# pages (a page fault per 4 KiB, 40% of a necklace sweep's time) or from
# reused heap, and which one varied from run to run of the same code.
# Fixing both thresholds high gives every run the reused-heap state that
# a long-running process usually settles in.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


def fix_malloc() -> dict | None:
    """Apply MALLOC_SETTINGS with mallopt; None where that is not glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    if not all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.values()):
        return None
    return {name: value for name, (_, value) in MALLOC_SETTINGS.items()}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(totals: dict, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    step_s = incl("engine.step")
    return {
        "packed.batch_step.s": incl("packed.batch_step"),
        "packed.batch_step.calls": calls("packed.batch_step"),
        "packed.batch_step.cell_updates_per_s": ratio(
            counts["cell_updates"], incl("packed.batch_step")
        ),
        "verifier.configs_stepped_per_checked": ratio(
            counts["configs_stepped"], counts["checked"]
        ),
        "verifier.self_s": totals.get("verifier.verify_size", (0, 0.0, 0.0))[2],
        "packed.invariant_masks.s": sum(incl(f"packed.{f}") for f in INVARIANT_MASKS),
        "packed.necklace_mask.s": incl("packed.necklace_mask"),
        "verifier.necklace_kept_ratio": ratio(counts["necklace_kept"], counts["necklace_in"]),
        "engine.evolve.calls": calls("engine.evolve"),
        "engine.evolve.s": incl("engine.evolve"),
        "engine.step.calls": calls("engine.step"),
        "engine.step.us_per_call": ratio(step_s * 1e6, calls("engine.step")),
        "metrics.switches.s": incl("metrics.switches"),
        "metrics.find_domains.s": incl("metrics.find_domains"),
        "metrics.ordered_blocks.s": incl("metrics.ordered_blocks"),
        "metrics.merge_events.s": incl("metrics.merge_events"),
        "verifier.check_trajectory_invariants.s": incl("verifier.check_trajectory_invariants"),
    }


def pool_values(totals: dict) -> dict[str, float]:
    calls, incl, _ = totals.get("verifier.pool", (0, 0.0, 0.0))
    return {"verifier.pool_s": incl, "verifier.pool_starts": calls}


@dataclass
class Pass:
    traced: bool
    workers: int
    result: object  # workloads.PassResult
    totals: dict | None  # span name -> (calls, inclusive s, self s)
    counts: Counter | None


def op_times(results) -> dict[str, float]:
    """Each operation's fastest repeat over the given passes."""
    return {k: min(r.latencies[k] for r in results) for k in results[0].latencies}


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict,
            setup_probe=measure_setup):
    """Run passes of one workload for ``seconds``; return (record, tracer).

    ``setup_probe()`` gives one set-up sample, (total s, table-building s).
    """
    import tracing

    workload.prepare(seed, reference)
    expected = reference.get(workload.name, {})
    # One cycle: an untraced pass, plus with tracing a traced pass at the
    # workload's worker count and, if that is not 1, a traced 1-worker
    # pass that sees the packed kernels the pool workers would run.
    cycle = [(False, workload.workers)]
    if trace:
        cycle += [(True, w) for w in sorted({workload.workers, 1}, reverse=True)]
    tracer = tracing.Tracer() if trace else None
    passes = []
    attempted = failed = 0
    mismatches: list[str] = []
    origin = perf_counter()
    longest = 0.0
    setups: list[tuple[float, float]] = []
    while True:
        started = perf_counter()
        setups.append(setup_probe())
        for traced, workers in cycle:
            first = len(tracer.start) if tracer else 0
            if traced:
                tracer.counts = Counter()
                tracer.pass_id = len(passes)
                with tracing.traced(tracer):
                    result = workload.run_pass(workers)
                totals = tracer.totals(first, len(tracer.start))
                counts = tracer.counts
            else:
                result, totals, counts = workload.run_pass(workers), None, None
            passes.append(Pass(traced, workers, result, totals, counts))
            for key, value in result.outputs.items():
                attempted += 1
                if expected.get(key) != value:
                    failed += 1
                    mismatches.append(key)
        now = perf_counter()
        longest = max(longest, now - started)
        if now - origin + longest > seconds:
            break

    untraced = [p.result for p in passes if not p.traced]
    times = op_times(untraced)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "pass_seconds": [[int(p.traced), p.workers, p.result.seconds] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "mismatches": sorted(set(mismatches))[:20],
        "setup_runs_s": [total for total, _ in setups],
        "op_samples": len(times),
        "op_repeats": len(untraced),
    }
    if not trace:
        wall = sum(times.values())
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record["op_ms"] = {k: [r.latencies[k] * 1e3 for r in untraced] for k in times}
        record["metrics"] = {
            "wall_s": wall,
            "configs_per_s": untraced[0].configs / wall,
            "op_p50_ms": percentile(list(times.values()), 50) * 1e3,
            "op_p90_ms": percentile(list(times.values()), 90) * 1e3,
            "setup_s": statistics.median(total for total, _ in setups),
            "peak_rss_mb": usage / 1024,
        }
    else:
        full = [p for p in passes if p.traced and p.workers == workload.workers]
        split = [p for p in passes if p.traced and p.workers == 1]
        values = medians([layer_values(p.totals, p.counts) for p in split])
        values.update(medians([pool_values(p.totals) for p in full]))
        values["rule.build_rule_table.s"] = statistics.median(build for _, build in setups)
        traced_times = op_times([p.result for p in full])
        values["trace_overhead_s"] = sum(traced_times.values()) - sum(times.values())
        record["traced_passes"] = sum(1 for p in passes if p.traced)
        record["metrics"] = values
    return record, tracer


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "last_level_cache": None,
        "python": platform.python_version(),
        "numpy": None,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            kind = (index / "type").read_text().strip()
        except (OSError, ValueError):
            continue
        caches.append((level, f"L{level} {kind} {size}"))
    if caches:
        info["last_level_cache"] = max(caches)[1]
    import numpy

    info["numpy"] = numpy.__version__
    info["git_commit"] = git_commit()
    info["src_sha256"] = source_digest()
    return info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Digest of src/, which names the program when there is no git history."""
    h = sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def import_package():
    sys.path.insert(0, str(SRC))
    import parityca

    if Path(parityca.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported parityca from {parityca.__file__}")
    return parityca


def run_one(args) -> int:
    malloc = fix_malloc()
    import_package()
    import workloads

    reference = json.loads(REFERENCE.read_text())
    workload = workloads.WORKLOADS[args.workload]
    record, tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace), reference
    )
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    record["metrics"] = {name: record["metrics"][name] for name in units}
    if args.trace:
        record["targets"] = TARGETS
    record["machine"] = machine()
    record["malloc"] = malloc
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["spans_file"] = f"{stem}-spans.tsv.gz"
        tracer.write(RESULTS / record["spans_file"])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['passes']} passes, {record.get('op_samples', '-')} op samples, "
          f"error rate {record['error_rate']:.4f} ({record['failed']}/{record['attempted']})")
    for name, value in record["metrics"].items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    if record["mismatches"]:
        print("  mismatched outputs: " + ", ".join(record["mismatches"]))
    print("  machine: " + json.dumps(record["machine"]))
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not proc.stdout.strip():
            return proc.returncode
        status = status or proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parityca" / "__init__.py").is_file():
        print(f"error: no parityca package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
