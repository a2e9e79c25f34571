"""The benchmark workloads and the digests their outputs are checked by.

Every workload calls the package through module attributes
(``verifier.verify_size``, ``engine.evolve``, ...), so that the wrappers
in ``tracing`` see each call. A pass runs the workload once and returns
one digest per output the reference holds, plus the latency of each
operation: one per-size report for the sweeps, one configuration for
``single-config``. The ``sweeps`` workload runs the sweep paths one
after another in every pass: a full sweep, a sweep with the invariant
pass and a necklace search, each in this process, and one necklace
sweep on a pool of two workers, the only part that runs more than one
process.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from parityca import engine, lattice, metrics, rule, verifier


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report) -> str:
    """Digest of the report line exactly as ``parityca verify`` prints it."""
    return digest(json.dumps(report.to_json()))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class PassResult:
    seconds: float = 0.0
    configs: int = 0
    latencies: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


class Sweep:
    """One exhaustive ``verify_size`` call; the per-size report is the output."""

    def __init__(self, name, variant, n, invariants=False, mode=verifier.FULL,
                 workers=1, chunk_size=verifier.DEFAULT_CHUNK):
        self.name, self.variant, self.n, self.invariants = name, variant, n, invariants
        self.mode, self.workers, self.chunk_size = mode, workers, chunk_size

    def prepare(self, seed: int, reference: dict) -> None:
        self.rule = rule.build_rule_table(self.variant)

    def run_pass(self, workers: int) -> PassResult:
        t0 = perf_counter()
        report = verifier.verify_size(
            self.rule, self.n, mode=self.mode, workers=workers,
            invariants=self.invariants, chunk_size=self.chunk_size,
        )
        dt = perf_counter() - t0
        key = str(self.n)
        return PassResult(dt, report.checked, {key: dt}, {key: report_digest(report)})


class Search:
    """Necklace-mode ``search_counterexamples`` over odd sizes up to n_max.

    Each per-size report is captured by wrapping ``verifier.verify_size``
    for the duration of the pass; the list of counterexamples found is
    one more output.
    """

    workers = 1

    def __init__(self, name, variant, n_max):
        self.name, self.variant, self.n_max = name, variant, n_max

    def prepare(self, seed: int, reference: dict) -> None:
        self.rule = rule.build_rule_table(self.variant)

    def run_pass(self, workers: int) -> PassResult:
        result = PassResult()
        inner = verifier.verify_size

        def capture(*args, **kwargs):
            t = perf_counter()
            report = inner(*args, **kwargs)
            key = str(report.n)
            result.latencies[key] = perf_counter() - t
            result.configs += report.checked
            result.outputs[key] = report_digest(report)
            return report

        verifier.verify_size = capture
        try:
            t0 = perf_counter()
            found = verifier.search_counterexamples(
                self.rule, self.n_max, mode=verifier.NECKLACE, workers=workers,
            )
            result.seconds = perf_counter() - t0
        finally:
            verifier.verify_size = inner
        result.outputs["found"] = digest(canonical(found_json(found)))
        return result


def found_json(found) -> list:
    return [[n, str(config), engine.outcome_json(outcome)] for n, config, outcome in found]


def single_output(rule_table, x) -> dict:
    """Every single-configuration path on one ring, as one JSON document."""
    outcome = engine.evolve(rule_table, x)
    steps = outcome.t0 if isinstance(outcome, engine.Converged) else x.n
    diagram = engine.render_text(engine.space_time(rule_table, x, steps))
    report = metrics.report_json(x)
    violations = verifier.check_trajectory_invariants(rule_table, x)
    return {
        "outcome": engine.outcome_json(outcome),
        "diagram": diagram,
        "report": report,
        "violations": [dataclasses.asdict(v) for v in violations],
    }


def step_count(rule_table, x) -> int:
    """The ``engine.step`` calls ``single_output`` makes on one ring."""
    inner = engine.step
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    engine.step = counted
    try:
        single_output(rule_table, x)
    finally:
        engine.step = inner
    return calls


class SingleConfig:
    """A seeded sample of rings run one at a time through the pure-Python paths.

    Every odd size in [n_lo, n_hi] gets ``per_size`` rings from the
    reference pool, whose rings each have a checked-in digest. The pool
    of a size is ranked by work (``engine.step`` calls, also checked in)
    and cut into ``per_size`` equal strata; the seed draws one ring from
    each. So every seed sees the same mix of sizes and of work, and the
    seed moves the cost of a pass little.
    """

    workers = 1

    def __init__(self, name, variant, n_lo, n_hi, per_size):
        self.name, self.variant = name, variant
        self.n_lo, self.n_hi, self.per_size = n_lo, n_hi, per_size

    def prepare(self, seed: int, reference: dict) -> None:
        self.rule = rule.build_rule_table(self.variant)
        steps = reference["single-config-steps"]
        rng = random.Random(seed)
        self.sample = []
        for n in range(self.n_lo, self.n_hi + 1, 2):
            ranked = sorted((t for t in steps if len(t) == n), key=lambda t: (steps[t], t))
            width = len(ranked) // self.per_size
            for i in range(self.per_size):
                text = rng.choice(ranked[i * width:(i + 1) * width])
                self.sample.append(lattice.parse(text))

    def run_pass(self, workers: int) -> PassResult:
        result = PassResult(configs=len(self.sample))
        t0 = perf_counter()
        for x in self.sample:
            t = perf_counter()
            out = single_output(self.rule, x)
            key = str(x)
            result.latencies[key] = perf_counter() - t
            result.outputs[key] = digest(canonical(out))
        result.seconds = perf_counter() - t0
        return result


class Sweeps:
    """Several sweep workloads run one after another in each pass.

    Operations and outputs are keyed ``<part>/<key>``. A part runs with
    the pass's worker count, but never more than its own.
    """

    def __init__(self, name, parts):
        self.name, self.parts = name, parts
        self.workers = max(part.workers for part in parts)

    def prepare(self, seed: int, reference: dict) -> None:
        for part in self.parts:
            part.prepare(seed, reference)

    def run_pass(self, workers: int) -> PassResult:
        result = PassResult()
        for part in self.parts:
            r = part.run_pass(min(workers, part.workers))
            result.seconds += r.seconds
            result.configs += r.configs
            result.latencies.update({f"{part.name}/{k}": v for k, v in r.latencies.items()})
            result.outputs.update({f"{part.name}/{k}": v for k, v in r.outputs.items()})
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Sweeps("sweeps", [
            Sweep("verify-full", rule.CORRECTED, 19),
            Sweep("verify-invariants", rule.CORRECTED, 17, invariants=True),
            Search("search-necklace", rule.ORIGINAL, 23),
            Sweep("necklace-pool", rule.ORIGINAL, 19, mode=verifier.NECKLACE, workers=2),
        ]),
        SingleConfig("single-config", rule.CORRECTED, 9, 63, per_size=4),
    )
}


def tiny_workloads() -> dict:
    """The same code paths at sizes small enough for a self-check.

    The small chunk size makes the pool start at n = 11.
    """
    return {
        w.name: w
        for w in (
            Sweeps("sweeps", [
                Sweep("verify-full", rule.CORRECTED, 9),
                Sweep("verify-invariants", rule.CORRECTED, 9, invariants=True),
                Search("search-necklace", rule.ORIGINAL, 13),
                Sweep("necklace-pool", rule.ORIGINAL, 11, mode=verifier.NECKLACE, workers=2,
                      chunk_size=256),
            ]),
            SingleConfig("single-config", rule.CORRECTED, 9, 13, per_size=1),
        )
    }
