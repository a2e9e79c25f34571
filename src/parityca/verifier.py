"""Exhaustive and randomized verification of the parity automaton.

``verify_size`` evolves every configuration of one odd size (or one
representative per rotation class) and classifies the outcomes; with
``invariants=True`` it additionally checks the structural laws along
every trajectory. Work is partitioned into packed-integer chunks that
workers process independently; their tallies fold, in chunk order, into
a report that is identical for any worker count and chunk size.
"""
from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from . import engine, metrics, packed
from .engine import Outcome
from .lattice import Configuration, is_homogeneous, parity
from .rule import RuleTable

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


def plan_sweep(n: int, chunk_size: int = DEFAULT_CHUNK, mode: str = FULL) -> range:
    """The first packed encodings of the chunks that cover [0, 2^n)."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"size must be odd and positive, got {n}")
    if n > packed.MAX_N:
        raise ValueError(f"size must be at most {packed.MAX_N}, got {n}")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    return range(0, 1 << n, chunk_size)


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


@dataclass
class _Tally:
    """What a run of chunks found, with witnesses as packed encodings."""

    checked: int = 0
    correct: int = 0
    wrong: list[int] = field(default_factory=list)
    nonconv: list[int] = field(default_factory=list)
    max_t0: int = -1
    max_t0_arg: int = 0
    violations: list[tuple[str, int, int, str]] = field(default_factory=list)

    def add(self, later: _Tally) -> _Tally:
        """Fold in the tally of the next chunk.

        A later chunk only holds larger encodings, so on a tie of max_t0
        the current witness is already the smallest.
        """
        self.checked += later.checked
        self.correct += later.correct
        self.wrong += later.wrong
        self.nonconv += later.nonconv
        self.violations += later.violations
        if later.max_t0 > self.max_t0:
            self.max_t0, self.max_t0_arg = later.max_t0, later.max_t0_arg
        return self


def _sweep_chunk(
    rule: RuleTable, n: int, chunk_size: int, budget: int, mode: str, invariants: bool,
    lo: int,
) -> _Tally:
    """Evolve and classify the packed configurations [lo, lo + chunk_size).

    Only live trajectories are stepped: a row leaves the arrays as soon as
    it reaches a homogeneous state or a fixed point. Rows keep the
    ascending order of their first states, ``start``, so the first row
    that meets a condition is its smallest witness.
    """
    lut = packed.lut64(rule)
    all_ones = packed.mask_of(n)
    hi = min(lo + chunk_size, 1 << n)
    if mode == NECKLACE:
        start = packed.necklaces(n, lo, hi)
    else:
        start = np.arange(lo, hi, dtype=np.uint64)
    tally = _Tally(checked=int(start.size))

    def record(invariant: str, rows: np.ndarray, step: int, detail: str = "") -> None:
        tally.violations.extend((invariant, int(w), step, detail) for w in start[rows])

    target = np.where(packed.parity_bits(start) == 1, all_ones, np.uint64(0))
    x = start
    hom = (x == 0) | (x == all_ones)
    s = pend = None
    if invariants:
        s, _ = packed.switch_counts(x, n)
        record(HOM_ZERO, (s == 0) != hom, 0)
        for length, m in packed.ordered_block_length_masks(x, n, 2 * n - 2).items():
            if length > n + 1:
                record(OB_BOUND, m != 0, 0, f"length {length}")
        y0 = packed.batch_step(lut, x, n)
        rot_then_step = packed.batch_step(lut, packed.rotl(x, 1, n), n)
        record(EQUIVARIANCE, rot_then_step != packed.rotl(y0, 1, n), 0)
        if 3 * n <= 63:
            lifted = x | (x << np.uint64(n)) | (x << np.uint64(2 * n))
            expect = y0 | (y0 << np.uint64(n)) | (y0 << np.uint64(2 * n))
            record(CONCAT_LIFT, packed.batch_step(lut, lifted, 3 * n) != expect, 0)
        pend = np.full(x.size, -1, dtype=np.int64)

    # A homogeneous state is its own target, so hom rows finish correct at t0 = 0.
    done, right, t = hom, hom, 0
    while True:
        if right.any():
            tally.correct += int(right.sum())
            tally.max_t0, tally.max_t0_arg = t, int(start[right][0])
        if done.any():
            tally.wrong += [int(w) for w in start[done & ~right]]
            live = ~done
            x, start, target = x[live], start[live], target[live]
            if invariants:
                s, pend = s[live], pend[live]
        if x.size == 0 or t >= budget:
            break
        y = packed.batch_step(lut, x, n)
        if invariants:
            s_y, _ = packed.switch_counts(y, n)
            record(PARITY_CONSERVED, packed.parity_bits(y) != (target & np.uint64(1)), t)
            record(SWITCH_MONOTONE, s_y > s, t)
            doms = packed.domain_masks(x, n)
            must_drop = packed.merge_mask(x, y, n) != 0
            for kind in metrics.REDUCING_KINDS:
                must_drop |= doms[kind] != 0
            record(SWITCH_STRICT, must_drop & ~(s_y < s), t)
            record(TWO_STEP_DECREASE, (pend >= 0) & ~(s_y < pend), t)
            pend = np.where((doms["D78b"] != 0) & ~(s_y < s), s_y, -1)
            record(FIXED_POINT, y == x, t)
            s = s_y
        right = y == target
        done = right | (y == 0) | (y == all_ones) | (y == x)
        x = y
        t += 1
    tally.nonconv = [int(w) for w in start]
    return tally


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
    ``chunk_size``, chunk tallies are folded in chunk order, and witness
    lists are kept sorted by packed encoding.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if budget is None:
        budget = engine.default_budget(n)
    chunks = plan_sweep(n, chunk_size, mode)
    sweep = functools.partial(_sweep_chunk, rule, n, chunk_size, budget, mode, invariants)
    if workers == 1 or len(chunks) == 1:
        tally = functools.reduce(_Tally.add, map(sweep, chunks), _Tally())
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            tally = functools.reduce(_Tally.add, pool.imap(sweep, chunks), _Tally())

    def replay(value: int) -> Counterexample:
        config = Configuration(n, value)
        return Counterexample(config=config, outcome=engine.evolve(rule, config, budget))

    tally.violations.sort(key=lambda v: (v[1], v[2], v[0], v[3]))
    return VerificationReport(
        rule=rule.variant,
        n=n,
        mode=mode,
        checked=tally.checked,
        correct=tally.correct,
        wrong_class=tuple(replay(v) for v in sorted(tally.wrong)),
        non_converged=tuple(replay(v) for v in sorted(tally.nonconv)),
        max_t0=None if tally.max_t0 < 0
        else MaxT0(steps=tally.max_t0, witness=Configuration(n, tally.max_t0_arg)),
        violations=tuple(
            Violation(invariant=iv, witness=str(Configuration(n, w)), step=st, detail=dt)
            for iv, w, st, dt in tally.violations
        ),
    )


def search_counterexamples(
    rule: RuleTable,
    n_max: int,
    budget: int | None = None,
    mode: str = FULL,
    workers: int = 1,
) -> list[tuple[int, Configuration, Outcome]]:
    """Scan sizes 1, 3, ..., n_max for misclassified configurations."""
    if n_max > packed.MAX_N:
        raise ValueError(f"size must be at most {packed.MAX_N}, got {n_max}")
    found: list[tuple[int, Configuration, Outcome]] = []
    for n in range(1, n_max + 1, 2):
        report = verify_size(rule, n, budget=budget, mode=mode, workers=workers)
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
            bool(kinds & metrics.REDUCING_KINDS) or metrics.merge_events(cur, nxt) > 0
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
