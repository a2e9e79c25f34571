"""Exhaustive verification of the parity automaton.

``verify_size`` evolves every configuration of one odd size (or one
representative per rotation class) and classifies the outcomes: correct
(homogeneous of its parity), wrong (the other homogeneous state or a
non-homogeneous fixed point) or non-converged. A non-converged
configuration was either proven cyclic, by Brent's cycle detection in
the sweep, or still live when the step budget ran out; either way its
reported outcome is the replay of ``engine.evolve``. With
``invariants=True`` it additionally checks, along every trajectory, the
five step laws that ``check_trajectory_invariants`` checks one ring at a
time. Work is partitioned into packed-integer chunks that workers
process independently; their tallies fold, in chunk order, into a report
that is identical for any worker count and chunk size.

A chunk is a range of encodings. Full mode steps every encoding, so its
default chunk is ``DEFAULT_CHUNK`` = 2^16 encodings wide. Necklace mode
steps only the least rotation of each class, and those cluster at low
encodings: at n = 23, 87 of the 128 ranges 2^16 wide hold none and 100
hold fewer than 1,000, yet each range would pay the fixed cost of a
chunk and of every step. So its default chunk is ``NECKLACE_CHUNK`` =
2^19 encodings wide. In either mode a chunk's rows are stepped in
consecutive slices of at most ``DEFAULT_CHUNK`` rows, which bounds the
stepping arrays of a dense range.
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

# Chunk widths in encodings when the caller gives none (see above), and
# the most rows stepped at once in either mode.
DEFAULT_CHUNK = 1 << 16
NECKLACE_CHUNK = 1 << 19

# Invariant identifiers shared by the batch sweep and the per-trajectory checker.
PARITY_CONSERVED = "parity-conserved"
SWITCH_MONOTONE = "switch-monotone"
SWITCH_STRICT = "switch-strict-decrease"
TWO_STEP_DECREASE = "two-step-decrease"
FIXED_POINT = "fixed-point-homogeneous"


def plan_sweep(n: int, chunk_size: int | None = None, mode: str = FULL) -> range:
    """The first packed encodings of the chunks that cover [0, 2^n).

    Without a ``chunk_size`` the chunks are ``NECKLACE_CHUNK`` encodings
    wide in necklace mode and ``DEFAULT_CHUNK`` in full mode.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"size must be odd and positive, got {n}")
    if n > packed.MAX_N:
        raise ValueError(f"size must be at most {packed.MAX_N}, got {n}")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if chunk_size is None:
        chunk_size = NECKLACE_CHUNK if mode == NECKLACE else DEFAULT_CHUNK
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
    violations: list[tuple[str, int, int]] = field(default_factory=list)

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

    The chunk's configurations (in necklace mode its least rotations) are
    listed once and stepped in consecutive slices of at most
    ``DEFAULT_CHUNK`` rows, whose tallies fold in order. So a wide
    necklace chunk pays the per-chunk and per-step costs once for the
    many sparse ranges it spans, while the stepping arrays stay as small
    as those of a full-mode chunk.
    """
    hi = min(lo + chunk_size, 1 << n)
    if mode == NECKLACE:
        start = packed.necklaces(n, lo, hi)
    else:
        start = np.arange(lo, hi, dtype=np.uint64)
    rows = (start[k:k + DEFAULT_CHUNK] for k in range(0, start.size, DEFAULT_CHUNK))
    sweep = functools.partial(_sweep_rows, rule, n, budget, invariants)
    return functools.reduce(_Tally.add, map(sweep, rows), _Tally())


def _sweep_rows(
    rule: RuleTable, n: int, budget: int, invariants: bool, start: np.ndarray
) -> _Tally:
    """Evolve and classify the ascending packed configurations ``start``.

    Only live trajectories are stepped: a row leaves the arrays as soon as
    it reaches a homogeneous state or a fixed point, or, without the
    invariant pass, as soon as it is proven cyclic. Each step builds one
    mask of the rows that finished and classifies only those few. Rows
    keep the ascending order of their first states, ``start``, so the
    first row that meets a condition is its smallest witness.

    The cycle proof is Brent's (BIT 1980): each live row keeps the state
    it had at the last checkpoint step 2^j, counted from the first power
    of two ≥ n. A row whose next state equals that saved state repeats
    the states it has stepped through since, none of which was
    homogeneous or fixed, or the row would have left there. So it never
    finishes: it is non-converged at any budget and leaves at once, about
    2·max(n, μ, λ) + λ steps in for a tail of μ steps and a period of λ.
    The comparison starts two steps after a checkpoint, because one step
    after, it is the fixed-point test, and a fixed point is wrong, not
    non-converged. With the invariant pass every live row steps to the
    budget, since the laws are checked at every step the reference
    checker reaches.
    """
    lut = packed.lut64(rule)
    all_ones = packed.mask_of(n)
    tally = _Tally(checked=int(start.size))

    def record(invariant: str, rows: np.ndarray, step: int) -> None:
        tally.violations.extend((invariant, w, step) for w in start[rows].tolist())

    target = np.where(packed.parity_bits(start) == 1, all_ones, np.uint64(0))
    x = start
    # The first checkpoint comes late, so the cycle test stays off the wide
    # early steps, where nearly every row still converges. With the
    # invariant pass it lies past the budget: no cycle is proven.
    checkpoint = budget + 1 if invariants else 1 << (n - 1).bit_length()
    saved = cycled = None
    s = drop = d78b = pend = None
    if invariants:
        tables = packed.invariant_tables(rule)

        def laws(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """s, and whether s must drop or D78b is present, in one gather."""
            switch, drop, d78b = packed.window_gather(tables, v, n)
            return np.bitwise_count(switch).astype(np.int64), drop != 0, d78b != 0

        s, drop, d78b = laws(x)
        pend = np.full(x.size, -1, dtype=np.int64)

    # A homogeneous state is its own target, so such rows finish correct at t0 = 0.
    done, t = (x == 0) | (x == all_ones), 0
    while True:
        finished = np.flatnonzero(done)
        if finished.size:
            # A finished row is correct iff it is homogeneous of its parity;
            # the others are homogeneous of the other parity or fixed points.
            right = x[finished] == target[finished]
            correct = finished[right]
            if correct.size:
                tally.correct += int(correct.size)
                tally.max_t0, tally.max_t0_arg = t, int(start[correct[0]])
            other = finished[~right]
            if cycled is not None:
                loops = cycled[other]
                tally.nonconv += start[other[loops]].tolist()
                other = other[~loops]
            tally.wrong += start[other].tolist()
            live = np.flatnonzero(~done)
            x, start, target = x[live], start[live], target[live]
            if saved is not None:
                saved = saved[live]
            if invariants:
                s, drop, d78b, pend = s[live], drop[live], d78b[live], pend[live]
        if x.size == 0 or t >= budget:
            break
        y = packed.batch_step(lut, x, n)
        if invariants:
            s_y, drop_y, d78b_y = laws(y)
            record(PARITY_CONSERVED, packed.parity_bits(y) != (target & np.uint64(1)), t)
            record(SWITCH_MONOTONE, s_y > s, t)
            record(SWITCH_STRICT, drop & ~(s_y < s), t)
            record(TWO_STEP_DECREASE, (pend >= 0) & ~(s_y < pend), t)
            pend = np.where(d78b & ~(s_y < s), s_y, -1)
            record(FIXED_POINT, y == x, t)
            s, drop, d78b = s_y, drop_y, d78b_y
        done = (y == 0) | (y == all_ones) | (y == x)
        if saved is not None:
            cycled = y == saved
            done |= cycled
        if t == checkpoint:
            saved, checkpoint = x, 2 * checkpoint
        x = y
        t += 1
    tally.nonconv += start.tolist()
    return tally


def verify_size(
    rule: RuleTable,
    n: int,
    budget: int | None = None,
    mode: str = FULL,
    workers: int = 1,
    chunk_size: int | None = None,
    invariants: bool = False,
) -> VerificationReport:
    """Sweep every configuration of size n and report the classification.

    The report is deterministic: chunk boundaries depend only on
    ``chunk_size`` (by default set by the mode, see ``plan_sweep``), chunk
    tallies are folded in chunk order, and witness lists are kept sorted
    by packed encoding.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    budget = engine.default_budget(n, budget)
    chunks = plan_sweep(n, chunk_size, mode)
    sweep = functools.partial(_sweep_chunk, rule, n, chunks.step, budget, mode, invariants)
    if workers == 1 or len(chunks) == 1:
        tally = functools.reduce(_Tally.add, map(sweep, chunks), _Tally())
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            tally = functools.reduce(_Tally.add, pool.imap(sweep, chunks), _Tally())

    def replay(value: int) -> Counterexample:
        config = Configuration(n, value)
        return Counterexample(config=config, outcome=engine.evolve(rule, config, budget))

    tally.violations.sort(key=lambda v: (v[1], v[2], v[0]))
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
            Violation(invariant=iv, witness=str(Configuration(n, w)), step=st)
            for iv, w, st in tally.violations
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
    reports = (verify_size(rule, n, budget=budget, mode=mode, workers=workers)
               for n in range(1, n_max + 1, 2))
    return [(r.n, ce.config, ce.outcome) for r in reports for ce in r.counterexamples()]


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
    budget = engine.default_budget(x.n, budget)
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
