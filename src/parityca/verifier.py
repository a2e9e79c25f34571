"""Exhaustive and randomized verification of the parity automaton.

``verify_size`` evolves every configuration of one odd size (or one
representative per rotation class) and classifies the outcomes; with
``invariants=True`` it additionally checks the structural laws along
every trajectory. Work is partitioned into packed-integer chunks that
workers process independently; chunk results merge into a report that is
identical for any worker count.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import engine, metrics, packed
from .engine import Outcome
from .lattice import Configuration, from_int, is_homogeneous, parity
from .rule import RuleTable, build_rule_table

FULL = "full"
NECKLACE = "necklace"
MODES = (FULL, NECKLACE)

DEFAULT_CHUNK = 1 << 16

# Invariant identifiers shared by the batch sweep and the per-trajectory checker.
PARITY_CONSERVED = "parity-conserved"
SWITCH_MONOTONE = "switch-monotone"
SWITCH_STRICT = "switch-strict-decrease"
TWO_STEP_DECREASE = "two-step-decrease"
FIXED_POINT = "fixed-point-homogeneous"
HOM_ZERO = "zero-switches-homogeneous"
OB_BOUND = "ordered-block-bound"
EQUIVARIANCE = "shift-equivariance"
CONCAT_LIFT = "concat-lift"


@dataclass(frozen=True)
class SweepPlan:
    """Disjoint covering chunks of the packed encoding space [0, 2^n)."""

    n: int
    mode: str
    chunks: tuple[tuple[int, int], ...]


def plan_sweep(n: int, chunk_size: int = DEFAULT_CHUNK, mode: str = FULL) -> SweepPlan:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"size must be odd and positive, got {n}")
    if n > packed.MAX_N:
        raise ValueError(f"size must be at most {packed.MAX_N}, got {n}")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    total = 1 << n
    chunks = tuple(
        (lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)
    )
    return SweepPlan(n=n, mode=mode, chunks=chunks)


@dataclass(frozen=True)
class Violation:
    invariant: str
    witness: str
    step: int
    detail: str = ""


@dataclass(frozen=True)
class Counterexample:
    config: Configuration
    outcome: Outcome


@dataclass(frozen=True)
class MaxT0:
    steps: int
    witness: Configuration


@dataclass(frozen=True)
class VerificationReport:
    rule: str
    n: int
    mode: str
    checked: int
    correct: int
    wrong_class: tuple[Counterexample, ...]
    non_converged: tuple[Counterexample, ...]
    max_t0: MaxT0 | None
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.wrong_class and not self.non_converged and not self.violations

    def counterexamples(self) -> tuple[Counterexample, ...]:
        return self.wrong_class + self.non_converged

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "n": self.n,
            "mode": self.mode,
            "checked": self.checked,
            "correct": self.correct,
            "max_t0": None
            if self.max_t0 is None
            else {"steps": self.max_t0.steps, "witness": str(self.max_t0.witness)},
            "counterexamples": [
                {"config": str(ce.config), "outcome": engine.outcome_json(ce.outcome)}
                for ce in self.counterexamples()
            ],
            "violations": [
                {
                    "invariant": v.invariant,
                    "witness": v.witness,
                    "step": v.step,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def _sweep_chunk(
    rule: RuleTable, n: int, lo: int, hi: int, budget: int, mode: str, invariants: bool
) -> dict:
    """Evolve and classify one chunk of packed configurations."""
    lut = packed.lut64(rule)
    all_ones = packed.mask_of(n)
    c0 = np.arange(lo, hi, dtype=np.uint64)
    if mode == NECKLACE:
        c0 = c0[packed.necklace_mask(c0, n)]
    result = {
        "checked": int(c0.size),
        "correct": 0,
        "wrong": [],
        "nonconv": [],
        "max_t0": -1,
        "max_t0_arg": None,
        "violations": [],
    }
    if c0.size == 0:
        return result
    violations: list[tuple[str, int, int, str]] = result["violations"]

    def record(invariant: str, witnesses: np.ndarray, step: int, detail: str = "") -> None:
        for w in witnesses:
            violations.append((invariant, int(w), step, detail))

    par0 = packed.parity_bits(c0)
    target = np.where(par0 == 1, all_ones, np.uint64(0))
    cur = c0.copy()
    t0 = np.zeros(c0.size, dtype=np.int64)
    active = ~((cur == 0) | (cur == all_ones))

    s_all = pend = None
    if invariants:
        s_all, _ = packed.switch_counts(c0, n)
        hom0 = ~active
        record(HOM_ZERO, c0[(s_all == 0) != hom0], 0)
        for length, m in packed.ordered_block_length_masks(c0, n, 2 * n - 2).items():
            if length > n + 1:
                record(OB_BOUND, c0[m != 0], 0, f"length {length}")
        y0 = packed.batch_step(lut, c0, n)
        rot_then_step = packed.batch_step(lut, packed.rotl(c0, 1, n), n)
        record(EQUIVARIANCE, c0[rot_then_step != packed.rotl(y0, 1, n)], 0)
        if 3 * n <= 63:
            lifted = c0 | (c0 << np.uint64(n)) | (c0 << np.uint64(2 * n))
            expect = y0 | (y0 << np.uint64(n)) | (y0 << np.uint64(2 * n))
            record(CONCAT_LIFT, c0[packed.batch_step(lut, lifted, 3 * n) != expect], 0)
        pend = np.full(c0.size, -1, dtype=np.int64)

    t = 0
    while active.any() and t < budget:
        idx = np.nonzero(active)[0]
        x = cur[idx]
        y = packed.batch_step(lut, x, n)
        if invariants:
            s_x = s_all[idx]
            s_y, _ = packed.switch_counts(y, n)
            record(PARITY_CONSERVED, c0[idx][packed.parity_bits(y) != par0[idx]], t)
            record(SWITCH_MONOTONE, c0[idx][s_y > s_x], t)
            doms = packed.domain_masks(x, n)
            must_drop = packed.merge_mask(x, y, n) != 0
            for kind in metrics.REDUCING_KINDS:
                must_drop |= doms[kind] != 0
            record(SWITCH_STRICT, c0[idx][must_drop & ~(s_y < s_x)], t)
            due = pend[idx]
            record(TWO_STEP_DECREASE, c0[idx][(due >= 0) & ~(s_y < due)], t)
            pend[idx] = np.where((doms["D78b"] != 0) & ~(s_y < s_x), s_y, -1)
            record(FIXED_POINT, c0[idx][y == x], t)
            s_all[idx] = s_y
        cur[idx] = y
        t += 1
        hom = (y == 0) | (y == all_ones)
        fixed = (y == x) & ~hom
        t0[idx[hom]] = t
        t0[idx[fixed]] = t - 1
        active[idx[hom | fixed]] = False

    converged = ~active
    right = converged & (cur == target)
    result["correct"] = int(right.sum())
    result["wrong"] = [int(v) for v in c0[converged & ~right]]
    result["nonconv"] = [int(v) for v in c0[active]]
    if right.any():
        best = int(t0[right].max())
        result["max_t0"] = best
        result["max_t0_arg"] = int(c0[right][t0[right] == best].min())
    return result


def _chunk_task(args: tuple) -> dict:
    variant, n, lo, hi, budget, mode, invariants = args
    rule = build_rule_table(variant)
    return _sweep_chunk(rule, n, lo, hi, budget, mode, invariants)


def verify_size(
    rule: RuleTable,
    n: int,
    budget: int | None = None,
    mode: str = FULL,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    invariants: bool = False,
) -> VerificationReport:
    """Sweep every configuration of size n and report the classification.

    The report is deterministic: chunk boundaries depend only on
    ``chunk_size``, chunk results are merged in chunk order, and witness
    lists are kept sorted by packed encoding.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if budget is None:
        budget = engine.default_budget(n)
    plan = plan_sweep(n, chunk_size, mode)
    tasks = [
        (rule.variant, n, lo, hi, budget, mode, invariants) for lo, hi in plan.chunks
    ]
    if workers == 1 or len(tasks) == 1:
        parts = [_chunk_task(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            parts = pool.map(_chunk_task, tasks)

    checked = correct = 0
    wrong: list[int] = []
    nonconv: list[int] = []
    raw_violations: list[tuple[str, int, int, str]] = []
    max_t0 = -1
    max_arg: int | None = None
    for part in parts:
        checked += part["checked"]
        correct += part["correct"]
        wrong.extend(part["wrong"])
        nonconv.extend(part["nonconv"])
        raw_violations.extend(part["violations"])
        if part["max_t0"] > max_t0 or (
            part["max_t0"] == max_t0
            and part["max_t0_arg"] is not None
            and (max_arg is None or part["max_t0_arg"] < max_arg)
        ):
            max_t0 = part["max_t0"]
            max_arg = part["max_t0_arg"]

    def replay(value: int) -> Counterexample:
        config = from_int(n, value)
        return Counterexample(config=config, outcome=engine.evolve(rule, config, budget))

    raw_violations.sort(key=lambda v: (v[1], v[2], v[0], v[3]))
    return VerificationReport(
        rule=rule.variant,
        n=n,
        mode=mode,
        checked=checked,
        correct=correct,
        wrong_class=tuple(replay(v) for v in sorted(wrong)),
        non_converged=tuple(replay(v) for v in sorted(nonconv)),
        max_t0=None if max_t0 < 0 else MaxT0(steps=max_t0, witness=from_int(n, max_arg)),
        violations=tuple(
            Violation(invariant=iv, witness=str(from_int(n, w)), step=st, detail=dt)
            for iv, w, st, dt in raw_violations
        ),
    )


def search_counterexamples(
    rule: RuleTable,
    n_max: int,
    budget: int | None = None,
    mode: str = FULL,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[tuple[int, Configuration, Outcome]]:
    """Scan sizes 1, 3, ..., n_max for misclassified configurations."""
    found: list[tuple[int, Configuration, Outcome]] = []
    for n in range(1, n_max + 1, 2):
        report = verify_size(
            rule, n, budget=budget, mode=mode, workers=workers, chunk_size=chunk_size
        )
        for ce in report.counterexamples():
            found.append((n, ce.config, ce.outcome))
    return found


def check_trajectory_invariants(
    rule: RuleTable, x: Configuration, budget: int | None = None
) -> list[Violation]:
    """Per-trajectory reference checks of the structural laws.

    Checks, along the trajectory of x until it is homogeneous or the
    budget runs out: parity conservation, monotone switch counts, strict
    decrease whenever a reducing domain or a merge is present (and its
    contrapositive, which is the same test), the delayed decrease forced
    by D78b within two steps, and that no non-homogeneous state is fixed.
    The laws are guarantees of the corrected rule; the checker itself
    runs on any rule table.
    """
    if budget is None:
        budget = engine.default_budget(x.n)
    violations: list[Violation] = []
    witness = str(x)

    def flag(invariant: str, step: int, detail: str = "") -> None:
        violations.append(
            Violation(invariant=invariant, witness=witness, step=step, detail=detail)
        )

    start_parity = parity(x)
    cur = x
    s_cur = metrics.switches(cur).s
    pending: int | None = None
    for t in range(budget):
        if is_homogeneous(cur):
            break
        nxt = engine.step(rule, cur)
        s_next = metrics.switches(nxt).s
        if parity(nxt) != start_parity:
            flag(PARITY_CONSERVED, t, f"{cur} -> {nxt}")
        if s_next > s_cur:
            flag(SWITCH_MONOTONE, t, f"s {s_cur} -> {s_next}")
        kinds = {h.kind for h in metrics.find_domains(cur)}
        must_drop = (
            bool(kinds & metrics.REDUCING_KINDS) or metrics.merge_events(cur, rule) > 0
        )
        if must_drop and not s_next < s_cur:
            flag(SWITCH_STRICT, t, f"s {s_cur} -> {s_next}")
        if pending is not None and not s_next < pending:
            flag(TWO_STEP_DECREASE, t, f"s stuck at {s_next}")
        pending = s_next if ("D78b" in kinds and not s_next < s_cur) else None
        if nxt == cur:
            flag(FIXED_POINT, t, f"{cur}")
            break
        cur = nxt
        s_cur = s_next
    return violations
