"""Exhaustive verification of the parity automaton.

``verify_size`` evolves every configuration of one odd size (or one
representative per rotation class) and classifies the outcomes: correct
(homogeneous of its parity), wrong (the other homogeneous state or a
non-homogeneous fixed point) or non-converged. A non-converged
configuration was either proven cyclic, by Brent's cycle detection in
the sweep, or still live when the step budget ran out; either way its
reported outcome is the replay of ``engine.evolve``. With
``invariants=True`` it additionally checks, on every configuration it
sweeps, the five step laws that ``check_trajectory_invariants`` checks
along one trajectory (see ``_broken_laws``). Work is partitioned into
packed-integer chunks that workers process independently; their tallies
fold, in encoding order, into a report that is identical for any worker
count and chunk size.

A chunk is a range of encodings. Full mode steps every encoding, so its
default chunk is ``DEFAULT_CHUNK`` = 2^16 encodings wide. Necklace mode
steps only the least rotation of each class, and those cluster at low
encodings: at n = 23, 87 of the 128 ranges 2^16 wide hold none and 100
hold fewer than 1,000, yet each range would pay the fixed cost of a
chunk and of every step. So its default chunk is ``NECKLACE_CHUNK`` =
2^19 encodings wide; the chunk bounds the memory of the necklace tree
that lists its rows.

Rows are stepped in consecutive slices of ``DEFAULT_CHUNK`` rows, which
bounds the stepping arrays of a dense range. A sweep in this process
cuts its slices across chunk bounds, so small or sparse chunks pay the
fixed cost of a slice and of each of its steps once. A sweep of fewer
than ``2 * POOL_ROWS`` rows runs in this process whatever the worker
count (so pools start from full n = 21 and necklace n = 25); a pool
worker steps its own chunk in slices.

The rule contracts hard: of the live states of a 2^16-ring slice at
n = 19, about 30% are distinct after one step and under 4% after six. So
a slice merges the rows that are in one state at one step and steps
each distinct state once, while enough states are live and the sort key
fits in 64 bits (see ``_sweep_rows``). A full sweep at n = 19 steps 2.3
states per checked ring, where stepping each row on its own would take
12.4. The stepping keeps no per-row outcome: a step on which groups
finish appends one record per group, its last state and the step, and
the slice's end gathers every row's outcome once through one record
index per group, where a group with no record, proven cyclic or live at
the budget, points at the sentinel record "never".
"""
from __future__ import annotations

import functools
import multiprocessing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import engine, metrics, packed
from .engine import Outcome
from .lattice import FULL, MODES, NECKLACE, Configuration, is_homogeneous, parity
from .rule import RuleTable

# Chunk widths in encodings when the caller gives none (see above), and
# the most rows stepped at once in either mode.
DEFAULT_CHUNK = 1 << 16
NECKLACE_CHUNK = 1 << 19
# The fewest live states a sweep merges (see _sweep_rows).
MERGE_FLOOR = DEFAULT_CHUNK >> 4
# On a 2-vCPU machine a 2-process pool costs about as much as stepping
# this many rows in this process, so a sweep of fewer than twice as many
# rows runs here. Larger pools were not measured.
POOL_ROWS = 1 << 19

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
            "violations": [dict(vars(v)) for v in self.violations],
        }


@dataclass
class _Tally:
    """What a run of slices or chunks found, with witnesses as packed encodings."""

    checked: int = 0
    correct: int = 0
    wrong: list[int] = field(default_factory=list)
    nonconv: list[int] = field(default_factory=list)
    max_t0: int = -1
    max_t0_arg: int = 0
    violations: list[tuple[str, int, int]] = field(default_factory=list)

    def add(self, later: _Tally) -> _Tally:
        """Fold in the tally of the next slice or chunk.

        A later one only holds larger encodings, so on a tie of max_t0
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


def _chunk_rows(n: int, chunk_size: int, mode: str, lo: int) -> np.ndarray:
    """The ascending rows of the chunk [lo, lo + chunk_size).

    In full mode every encoding; in necklace mode the least rotations.
    """
    hi = min(lo + chunk_size, 1 << n)
    if mode == NECKLACE:
        return packed.necklaces(n, lo, hi)
    return np.arange(lo, hi, dtype=np.uint64)


def _sweep_stream(
    rule: RuleTable, n: int, budget: int, invariants: bool, arrays: Iterable[np.ndarray]
) -> _Tally:
    """Evolve and classify a stream of ascending row arrays, each above the last.

    The rows are stepped in consecutive slices of ``DEFAULT_CHUNK`` rows
    (the last may be shorter), cut across array bounds, and the slices'
    tallies fold in order. So many small or sparse chunks pay the fixed
    cost of a slice and of each of its steps once, while the stepping
    arrays stay as small as those of one full-mode chunk.
    """
    sweep = functools.partial(_sweep_rows, rule, n, budget, invariants)

    def slices() -> Iterator[np.ndarray]:
        held, count = [], 0
        for rows in arrays:
            held.append(rows)
            count += rows.size
            if count >= DEFAULT_CHUNK:
                rows = np.concatenate(held) if len(held) > 1 else rows
                whole = count - count % DEFAULT_CHUNK
                yield from (rows[k:k + DEFAULT_CHUNK] for k in range(0, whole, DEFAULT_CHUNK))
                held, count = [rows[whole:]] if count > whole else [], count - whole
        if count:
            yield np.concatenate(held)

    return functools.reduce(_Tally.add, map(sweep, slices()), _Tally())


def _sweep_chunk(
    rule: RuleTable, n: int, chunk_size: int, budget: int, mode: str, invariants: bool,
    lo: int,
) -> _Tally:
    """A pool worker's task: list and stream the one chunk that starts at lo."""
    return _sweep_stream(rule, n, budget, invariants, [_chunk_rows(n, chunk_size, mode, lo)])


def _sweep_rows(
    rule: RuleTable, n: int, budget: int, invariants: bool, start: np.ndarray
) -> _Tally:
    """Evolve and classify the ascending packed configurations ``start``.

    Only live trajectories are stepped: a state leaves the arrays as soon
    as it reaches a homogeneous state or a fixed point, or as soon as it
    is proven cyclic. Each step builds one mask of the states that
    finished and records only those few. Each step is one
    ``packed.batch_step(rule, ...)``; the sweep fetches no table. With
    ``invariants``, the step laws are checked on the first step, where
    the live states are exactly the non-homogeneous starts (see
    ``_broken_laws``).

    Rows in one state at one step share every later state, since the
    rule is a function: they finish at the same step in the same state,
    or none of them does. So the live states are merged at the steps 1,
    2, 4, 8, ..., while at least ``MERGE_FLOOR`` are live, and each
    distinct state is stepped once. Below the floor the sort costs more
    than the steps it saves: merging every slice made the 2,192-row
    necklace sweep at n = 15 about 10% slower (2-vCPU Xeon). A merge
    sorts each state above its position in one uint64 key, so it also
    needs n + bit_length(rows - 1) ≤ 64: a full 2^16-row slice merges
    only up to n = 48. A merge returns the distinct states, read back
    from its sort key, and the group of each one's first holder. A live
    state stands for a group of rows, named by one member's row index;
    the group finishes once, into a record of its last state and its
    step t0, appended to lists on its step. Each ring is still simulated
    step by step; no symmetry is used.

    At the end each group points at its record, and a group with none,
    proven cyclic or live at the budget, at -1, which selects the
    sentinel record "never": last state 2^64 - 1 and t0 = -1. No ring
    equals that state, so a "never" row is not correct whatever its
    parity (at n = 63 the all-ones ring is 2^63 - 1, one bit below). The
    merges are replayed over the record index alone, and the last states
    and t0 are each gathered once. The slice is then classified row by
    row: a row is correct iff it ended homogeneous of its own parity, so
    rows of one group may differ in parity, as they can under a rule that
    does not conserve it. The smallest witness of a condition is its
    first row.

    The cycle proof is Brent's (BIT 1980): each group keeps the state it
    had at the last checkpoint step 2^j, counted from the first power of
    two ≥ n. A group whose next state equals that saved state repeats the
    states it has stepped through since, none of which was homogeneous or
    fixed, or it would have left there. So it never finishes: it is
    non-converged at any budget and leaves at once, about
    2·max(n, μ, λ) + λ steps in for a tail of μ steps and a period of λ.
    A merged group keeps its named member's saved state, which proves a
    cycle of that member and so of every row that shares its states. A
    cycle never reaches a homogeneous or fixed state, so a group proven
    cyclic leaves the live arrays with the finished ones and records
    nothing. The comparison starts two steps after a checkpoint, because
    one step after, it is the fixed-point test, and a fixed point is
    wrong, not non-converged.

    Merges and checkpoints share one schedule, the powers of two: a
    merge at every one while enough states are live, a checkpoint at
    every one from n on.
    """
    all_ones = packed.mask_of(n)
    size = start.size
    tally = _Tally(checked=int(size))

    # Each live state x[i] belongs to the group group[i]. A finishing step
    # records its groups, their last states and its step t. A group that
    # never finishes, proven cyclic or live at the budget, records nothing.
    x = start
    group = np.arange(size)
    ended, lasts, steps = [], [], []
    # A merge sorts keys that hold the state above the row's position.
    key_bits = max(size - 1, 1).bit_length()
    merging = n + key_bits <= 64
    merges = []

    def merge(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct states, ascending, and the group of the first holder of each.

        Records the holders' groups in state order and the start of each
        state's run: every group joins the first of its run.
        """
        key = states << np.uint64(key_bits)
        key |= np.arange(states.size, dtype=np.uint64)
        key.sort()
        members = group[(key & np.uint64((1 << key_bits) - 1)).view(np.int64)]
        key >>= np.uint64(key_bits)
        heads = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1))
        merges.append((members, heads))
        return key[heads], members[heads]

    saved, t = None, 0
    # A homogeneous state is its own target, so such rows finish correct at t0 = 0.
    done = gone = (x == 0) | (x == all_ones)
    while True:
        finished = done.nonzero()[0]
        if finished.size:
            ended.append(group[finished])
            lasts.append(x[finished])
            steps.append(t)
        live = (~gone).nonzero()[0]
        if live.size < x.size:
            x, group = x[live], group[live]
        if x.size == 0 or t >= budget:
            break
        power = t > 0 and t & (t - 1) == 0
        if power and merging and x.size >= MERGE_FLOOR:
            x, group = merge(x)
        y = packed.batch_step(rule, x, n)
        if invariants and t == 0:
            tally.violations = _broken_laws(rule, n, x, y)
        done = y == x
        done |= y == 0
        done |= y == all_ones
        # A cycle never reaches a homogeneous or a fixed state: the rows
        # proven cyclic leave with those that finish, but record nothing.
        gone = done if saved is None else (y == saved[group]) | done
        # The first checkpoint comes late, so the cycle test stays off the
        # wide early steps, where nearly every row still converges.
        if power and t >= n:
            saved = np.empty_like(start) if saved is None else saved
            saved[group] = x
        x = y
        t += 1

    # Each group points at its record; -1, no record, selects the last
    # record, "never": a last state 2^64 - 1 that no ring equals, t0 = -1.
    record = np.full(size, -1)
    finishers = np.concatenate(ended) if ended else np.zeros(0, dtype=np.intp)
    record[finishers] = np.arange(finishers.size)
    # Rows take the record of the group they joined, the first of its
    # merge run, latest merge first.
    for members, heads in reversed(merges):
        record[members] = record[np.repeat(members[heads], np.diff(heads, append=members.size))]
    final = np.concatenate(lasts + [np.array([(1 << 64) - 1], dtype=np.uint64)])[record]
    t0 = np.repeat(steps + [-1], [a.size for a in ended] + [1])[record]
    target = np.where(packed.parity_bits(start) == 1, all_ones, np.uint64(0))
    right = final == target
    never = t0 < 0
    correct = right.nonzero()[0]
    if correct.size:
        best = correct[np.argmax(t0[correct])]
        tally.max_t0, tally.max_t0_arg = int(t0[best]), int(start[best])
    tally.correct = int(correct.size)
    tally.wrong = start[~(right | never)].tolist()
    tally.nonconv = start[never].tolist()
    return tally


def _broken_laws(
    rule: RuleTable, n: int, x: np.ndarray, y: np.ndarray
) -> list[tuple[str, int, int]]:
    """The (law, configuration, step) of each step law a configuration breaks.

    ``x`` holds non-homogeneous configurations and ``y`` their steps
    under the rule; only this check builds ``packed.invariant_tables``.
    Each law reads only a configuration x, its step y and, for the
    two-step law, the next step z. Every state that a trajectory visits
    is also a configuration of the sweep, so checking x -> y -> z once
    per configuration finds every state at which a trajectory breaks a
    law, and lists each (law, configuration) once. The parity law
    compares x with y, where the reference checker compares every state
    with the start: both fail first at the same state, so a trajectory
    passes or fails alike. The step of an entry is the step at which
    ``check_trajectory_invariants`` reports it on x: 0, or 1 for the
    two-step law. z is stepped only where that law is pending: D78b is
    present in x, s did not drop, and x is not a fixed point, at which
    the reference checker stops. No law reads the step budget. The laws
    are invariant under rotation, so in necklace mode the violating
    class representatives are listed.
    """
    tables = packed.invariant_tables(rule)
    switch, drop, d78b = packed.window_gather(tables, x, n)
    s_x = np.bitwise_count(switch)
    s_y = np.bitwise_count(packed.window_gather(tables[0], y, n))
    held = s_y >= s_x
    fixed = y == x
    pending = np.flatnonzero((d78b != 0) & held & ~fixed)
    z = packed.batch_step(rule, y[pending], n)
    s_z = np.bitwise_count(packed.window_gather(tables[0], z, n))
    violations = []
    for law, rows, step in (
        (PARITY_CONSERVED, packed.parity_bits(y) != packed.parity_bits(x), 0),
        (SWITCH_MONOTONE, s_y > s_x, 0),
        (SWITCH_STRICT, (drop != 0) & held, 0),
        (TWO_STEP_DECREASE, pending[s_z >= s_y[pending]], 1),
        (FIXED_POINT, fixed, 0),
    ):
        violations += [(law, w, step) for w in x[rows].tolist()]
    return violations


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

    A sweep of at least ``2 * POOL_ROWS`` rows starts a pool of
    ``min(workers, chunks)`` processes, each task one chunk; a smaller
    one, or one with a single worker or chunk, streams its chunks
    through this process in full slices (see ``_sweep_stream``). The
    report is deterministic: chunk boundaries depend only on
    ``chunk_size`` (by default set by the mode, see ``plan_sweep``),
    tallies are folded in encoding order, and witness lists are kept
    sorted by packed encoding.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    budget = engine.default_budget(n, budget)
    chunks = plan_sweep(n, chunk_size, mode)
    # The rows stepped: in necklace mode 2^n / n, a close lower bound of
    # the number of rotation classes.
    rows = 1 << n if mode == FULL else (1 << n) // n
    processes = min(workers, len(chunks))
    if processes == 1 or rows < 2 * POOL_ROWS:
        listed = map(functools.partial(_chunk_rows, n, chunks.step, mode), chunks)
        tally = _sweep_stream(rule, n, budget, invariants, listed)
    else:
        sweep = functools.partial(_sweep_chunk, rule, n, chunks.step, budget, mode, invariants)
        with multiprocessing.Pool(processes=processes) as pool:
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
    if n_max < 1:
        raise ValueError(f"size must be at least 1, got {n_max}")
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
    s_cur = metrics.switch_count(cur)
    pending: int | None = None
    for t in range(budget):
        if is_homogeneous(cur):
            break
        nxt = engine.step(rule, cur)
        s_next = metrics.switch_count(nxt)
        if parity(nxt) != start_parity:
            flag(PARITY_CONSERVED, t, f"{cur} -> {nxt}")
        if s_next > s_cur:
            flag(SWITCH_MONOTONE, t, f"s {s_cur} -> {s_next}")
        # The domain laws only bind a step on which s does not drop.
        kinds = metrics.domain_kinds(cur) if s_next >= s_cur else set()
        if kinds & metrics.REDUCING_KINDS or (
            kinds & metrics.MERGE_KINDS and metrics.merge_events(cur, nxt) > 0
        ):
            flag(SWITCH_STRICT, t, f"s {s_cur} -> {s_next}")
        if pending is not None and not s_next < pending:
            flag(TWO_STEP_DECREASE, t, f"s stuck at {s_next}")
        pending = s_next if "D78b" in kinds else None
        if nxt == cur:
            flag(FIXED_POINT, t, f"{cur}")
            break
        cur = nxt
        s_cur = s_next
    return violations
