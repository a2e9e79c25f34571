import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca import packed as P
from parityca import verifier as V
from parityca.rule import (
    CORRECTED, ORIGINAL, TABLE_SIZE, RuleTable, build_rule_table, center_bit
)
import golden

CORR = build_rule_table(CORRECTED)
ORIG = build_rule_table(ORIGINAL)
ROOT = Path(__file__).resolve().parent.parent
EXTENDED = int(os.environ.get("PARITYCA_EXTENDED", "0") or "0")


def test_plan_is_a_lazy_range_of_chunk_starts():
    assert V.plan_sweep(13, chunk_size=1000) == range(0, 1 << 13, 1000)
    # Nothing is built per chunk, so even the widest size plans at once.
    assert len(V.plan_sweep(61)) == 1 << 45
    with pytest.raises(ValueError):
        V.plan_sweep(4)
    with pytest.raises(ValueError):
        V.plan_sweep(5, mode="spiral")


def test_sizes_past_the_kernel_width_are_rejected_at_once():
    # 2^65 configurations would otherwise be split into 2^49 chunks first.
    with pytest.raises(ValueError, match="at most 63"):
        V.plan_sweep(65)
    with pytest.raises(ValueError, match="at most 63"):
        V.verify_size(CORR, 65)


def test_search_past_the_kernel_width_is_rejected_before_sweeping(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a size before checking the limit")

    monkeypatch.setattr(V, "verify_size", no_sweep)
    with pytest.raises(ValueError, match="at most 63"):
        V.search_counterexamples(CORR, 65)


def test_search_below_size_one_is_rejected_before_sweeping(monkeypatch):
    # An empty range of sizes would otherwise pass as "nothing found".
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a size before checking the limit")

    monkeypatch.setattr(V, "verify_size", no_sweep)
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            V.search_counterexamples(CORR, n_max)


def test_budget_below_one_is_rejected_before_sweeping(monkeypatch):
    # Swept first, n = 31 would list 2^31 rings before the first replay failed.
    def no_sweep(*args):
        raise AssertionError("swept before checking the budget")

    monkeypatch.setattr(V, "_sweep_chunks", no_sweep)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            V.verify_size(CORR, 31, budget=budget)


def test_verify_size_n1_both_fixed_points():
    report = V.verify_size(CORR, 1)
    assert report.checked == 2
    assert report.correct == 2
    assert report.max_t0 == V.MaxT0(steps=0, witness=L.parse("0"))
    assert report.passed


def test_verify_size_corrected_n13():
    report = V.verify_size(CORR, 13)
    assert report.checked == 1 << 13
    assert report.correct == 1 << 13
    assert report.wrong_class == ()
    assert report.non_converged == ()
    assert report.max_t0.steps == 18  # empirical, pinned for regression
    assert report.passed


def test_verify_size_original_n13_finds_the_faulty_cycle():
    report = V.verify_size(ORIG, 13)
    assert report.checked == 1 << 13
    assert not report.passed
    bad = {str(ce.config) for ce in report.non_converged}
    faulty = L.parse(golden.FAULTY)
    rotations = {str(L.rotate(faulty, k)) for k in range(13)}
    assert bad == rotations
    assert report.wrong_class == ()
    for ce in report.non_converged:
        assert isinstance(ce.outcome, E.Cycle)
        assert ce.outcome.period == 13


def test_max_t0_witness_is_replayable():
    report = V.verify_size(CORR, 13)
    outcome = E.evolve(CORR, report.max_t0.witness)
    assert isinstance(outcome, E.Converged)
    assert outcome.t0 == report.max_t0.steps


def test_counterexamples_are_replayable():
    report = V.verify_size(ORIG, 13)
    for ce in report.counterexamples():
        assert E.evolve(ORIG, ce.config) == ce.outcome


def test_invariant_sweep_is_clean_for_corrected_small():
    for n in (1, 3, 5, 7, 9, 11):
        report = V.verify_size(CORR, n, invariants=True)
        assert report.violations == (), f"n={n}"
        assert report.correct == 1 << n


def test_necklace_mode_agrees_with_full_mode():
    for n in (1, 3, 5, 7, 9, 11, 13, 15, 17):
        full = V.verify_size(CORR, n)
        neck = V.verify_size(CORR, n, mode="necklace")
        assert neck.checked < full.checked or n == 1
        assert neck.checked == golden.necklace_count(n)
        assert neck.correct == neck.checked
        assert neck.max_t0.steps == full.max_t0.steps  # t0 is rotation invariant
        assert full.correct == full.checked


def test_necklace_mode_counterexamples_are_representatives():
    neck = V.verify_size(ORIG, 13, mode="necklace")
    bad = [ce.config for ce in neck.non_converged]
    assert len(bad) == 1  # one rotation class
    faulty = L.parse(golden.FAULTY)
    assert str(bad[0]) in {str(L.rotate(faulty, k)) for k in range(13)}


def test_reports_are_deterministic_across_workers_and_chunking(monkeypatch):
    # Every sweep with more than one worker and chunk runs a real pool.
    monkeypatch.setattr(V, "POOL_ROWS", 1)
    base = V.verify_size(ORIG, 11, chunk_size=256).to_json()
    assert V.verify_size(ORIG, 11, chunk_size=256, workers=2).to_json() == base
    assert V.verify_size(ORIG, 11, chunk_size=256, workers=5).to_json() == base
    assert V.verify_size(ORIG, 11, chunk_size=64).to_json() == base
    assert V.verify_size(ORIG, 11, chunk_size=1 << 11).to_json() == base
    assert json.dumps(V.verify_size(ORIG, 11, chunk_size=777, workers=3).to_json()) == \
        json.dumps(base)
    with_laws = V.verify_size(ORIG, 11, chunk_size=256, invariants=True).to_json()
    assert V.verify_size(ORIG, 11, chunk_size=64, workers=2, invariants=True).to_json() \
        == with_laws
    # Necklace chunks that hold no representative fold in as empty tallies.
    neck = V.verify_size(ORIG, 11, mode="necklace").to_json()
    for chunk_size in (64, 256, 777, 1 << 11):
        assert V.verify_size(ORIG, 11, mode="necklace", chunk_size=chunk_size).to_json() \
            == neck, f"chunk_size={chunk_size}"
    assert V.verify_size(ORIG, 11, mode="necklace", chunk_size=64, workers=2).to_json() \
        == neck
    # A slice of at least MERGE_FLOOR rows merges its live states. In this
    # process chunks of any width are stepped in full slices; a pool worker
    # slices its own chunk, so chunks below the floor never merge there.
    for n, mode in ((15, V.FULL), (17, V.NECKLACE)):
        merged = V.verify_size(ORIG, n, mode=mode).to_json()
        for chunk_size, workers in ((64, 1), (777, 1), (777, 2)):
            assert V.verify_size(
                ORIG, n, mode=mode, chunk_size=chunk_size, workers=workers
            ).to_json() == merged, f"n={n} {mode} chunk_size={chunk_size} workers={workers}"


class PoolStarted(Exception):
    pass


def fake_pool(monkeypatch, run=True):
    """Record the pool sizes asked for; run each pool's chunks in this
    process, or with ``run=False`` stop the sweep at the pool's start."""
    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)
            if not run:
                raise PoolStarted

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(V, "multiprocessing", type("Fake", (), {"Pool": Pool}))
    return started


def test_pool_starts_no_more_processes_than_chunks(monkeypatch):
    started = fake_pool(monkeypatch)
    monkeypatch.setattr(V, "POOL_ROWS", 1)
    base = V.verify_size(ORIG, 11, chunk_size=256)
    assert V.verify_size(ORIG, 11, chunk_size=256, workers=64) == base
    assert V.verify_size(ORIG, 11, chunk_size=256, workers=3) == base
    assert started == [8, 3]


def test_pool_starts_only_from_twice_pool_rows(monkeypatch):
    started = fake_pool(monkeypatch, run=False)
    # 2^19 rows are one POOL_ROWS, so full n = 19 runs here on any workers.
    V.verify_size(CORR, 11, workers=64)
    V.verify_size(CORR, 19, workers=2)
    assert started == []
    # 2^21 rows in 32 chunks; 2^25 / 25 necklace rows in 64 chunks.
    for n, mode, workers in ((21, V.FULL, 64), (25, V.NECKLACE, 8)):
        with pytest.raises(PoolStarted):
            V.verify_size(CORR, n, mode=mode, workers=workers)
    assert started == [32, 8]


def test_worker_counts_above_the_bound_are_rejected_before_any_pool(monkeypatch):
    # Unbounded, n = 35 in necklace mode would ask for one process per
    # chunk: 65,536 of them.
    started = fake_pool(monkeypatch, run=False)
    with pytest.raises(ValueError, match="at most 256"):
        V.verify_size(CORR, 35, mode="necklace", workers=100_000)
    assert started == []
    with pytest.raises(PoolStarted):
        V.verify_size(CORR, 35, mode="necklace", workers=V.MAX_WORKERS)
    assert started == [256]


def sweep_widths(monkeypatch):
    """The row counts of the ``_sweep_rows`` calls from here on, one per slice."""
    inner = V._sweep_rows
    widths = []

    def counting(rule, n, budget, invariants, start):
        widths.append(start.size)
        return inner(rule, n, budget, invariants, start)

    monkeypatch.setattr(V, "_sweep_rows", counting)
    return widths


def test_in_process_slices_span_chunk_bounds(monkeypatch):
    # The 27,596 necklaces of n = 19 spread over eight chunks 2^16 wide,
    # five of them non-empty (21,977, 5,126, 417, 75 and 1 rows).
    necklace = V.verify_size(ORIG, 19, mode="necklace")
    full = V.verify_size(ORIG, 17)
    widths = sweep_widths(monkeypatch)
    assert V.verify_size(ORIG, 19, mode="necklace", chunk_size=V.DEFAULT_CHUNK) == necklace
    assert widths == [27_596]
    widths.clear()
    assert V.verify_size(ORIG, 17, chunk_size=777) == full
    assert widths == [V.DEFAULT_CHUNK, V.DEFAULT_CHUNK]


def count_steps(monkeypatch):
    """The widths of the ``packed.batch_step`` calls from here on, one per call."""
    inner = P.batch_step
    widths = []

    def counting(rule, c, n):
        widths.append(c.size)
        return inner(rule, c, n)

    monkeypatch.setattr(P, "batch_step", counting)
    return widths


def test_wide_necklace_chunks_step_at_most_a_default_chunk_of_rows(monkeypatch):
    # The first necklace chunk of n = 21 holds 98,710 representatives.
    assert V.NECKLACE_CHUNK > V.DEFAULT_CHUNK
    assert P.necklaces(21, 0, V.NECKLACE_CHUNK).size == 98_710
    widths = count_steps(monkeypatch)
    wide = V.verify_size(ORIG, 21, mode="necklace")
    # The first slice is full; only 0...0 leaves it before the first step.
    assert max(widths) == V.DEFAULT_CHUNK - 1
    monkeypatch.undo()
    narrow = V.verify_size(ORIG, 21, mode="necklace", chunk_size=V.DEFAULT_CHUNK)
    assert wide == narrow


def test_cyclic_rows_leave_the_sweep_once_proven(monkeypatch):
    # The 13-cell glider has period 13: saved at the checkpoint 16, it
    # recurs at step 29, where the budget would step it to 676.
    calls = count_steps(monkeypatch)
    report = V.verify_size(ORIG, 13, mode="necklace")
    assert len(report.non_converged) == 1
    assert len(calls) <= 29
    # The law check proves it too, with one more call for its second steps.
    calls.clear()
    assert V.verify_size(ORIG, 13, mode="necklace", invariants=True).non_converged \
        == report.non_converged
    assert len(calls) <= 30
    # Its triple lift is caught at 64 + 13 steps instead of 4 * 39^2 = 6,084.
    calls.clear()
    lift = golden.concat_power(L.parse(golden.FAULTY), 3)
    tally = V._sweep_rows(
        ORIG, 39, E.default_budget(39), False, np.array([lift.bits], dtype=np.uint64)
    )
    assert tally.nonconv == [lift.bits]
    assert len(calls) <= 77


def test_rows_in_one_state_are_stepped_once(monkeypatch):
    # Stepped one by one, the rows of n = 17 took 10.85 steps each. The
    # law check adds the second steps of the 5,525 rows whose two-step
    # law is pending.
    widths = count_steps(monkeypatch)
    for invariants in (False, True):
        widths.clear()
        report = V.verify_size(CORR, 17, invariants=invariants)
        assert report.passed
        assert sum(widths) <= 3 << 17, f"invariants={invariants}"


def test_search_counterexamples_original():
    found = V.search_counterexamples(ORIG, 13)
    assert found
    sizes = {n for n, _, _ in found}
    assert sizes == {13}
    faulty = L.parse(golden.FAULTY)
    rotations = {str(L.rotate(faulty, k)) for k in range(13)}
    assert {str(c) for _, c, _ in found} == rotations
    assert all(isinstance(outcome, E.Cycle) for _, _, outcome in found)


def test_search_counterexamples_trivial_and_clean_cases():
    assert V.search_counterexamples(CORR, 1) == []
    assert V.search_counterexamples(ORIG, 1) == []
    assert V.search_counterexamples(CORR, 13) == []


def test_sweep_classification_agrees_with_evolve_sampled():
    import random

    rng = random.Random(91)
    report = V.verify_size(CORR, 19)
    assert report.passed
    for _ in range(40):
        x = L.Configuration(19, rng.randrange(1 << 19))
        outcome = E.evolve(CORR, x)
        assert isinstance(outcome, E.Converged)
        assert outcome.t0 <= report.max_t0.steps
        assert L.is_homogeneous(outcome.fixed_point)
        assert outcome.fixed_point.cell(0) == L.parity(x)


def test_trajectory_invariants_clean_on_published_rows():
    assert V.check_trajectory_invariants(CORR, L.parse(golden.SAMPLE19_ROWS[0])) == []
    assert V.check_trajectory_invariants(CORR, L.parse(golden.FAULTY)) == []


def test_trajectory_invariants_reject_a_budget_below_one():
    # A budget of 0 would check no step and report the ring clean.
    ring = L.parse("0000000010101")
    assert V.check_trajectory_invariants(ORIG, ring)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            V.check_trajectory_invariants(ORIG, ring, budget)


def test_trajectory_invariants_homogeneous_is_trivially_clean():
    assert V.check_trajectory_invariants(CORR, L.parse("0" * 9)) == []


def test_trajectory_invariants_exhaustive_tiny():
    for n in (1, 3, 5, 7):
        for bits in range(1 << n):
            assert V.check_trajectory_invariants(CORR, L.Configuration(n, bits)) == []


def test_trajectory_invariants_hold_even_for_the_original_on_the_faulty_cycle():
    # the faulty cycle only ever carries non-reducing domains, which is
    # exactly why it can drift forever without breaking monotonicity
    assert V.check_trajectory_invariants(ORIG, L.parse(golden.FAULTY)) == []
    kinds = {h.kind for h in M.find_domains(L.parse(golden.FAULTY))}
    assert kinds == {"D34", "D910rb"}
    assert not kinds & M.REDUCING_KINDS


def test_trajectory_invariants_flag_the_original_rule_elsewhere():
    # an alternating tail is shifted the wrong way by the original rule,
    # so its guaranteed switch drop never happens
    violations = V.check_trajectory_invariants(ORIG, L.parse("0000000010101"))
    assert violations
    assert {v.invariant for v in violations} & {V.SWITCH_STRICT, V.SWITCH_MONOTONE}


def test_two_step_decrease_is_exercised():
    # 001010000 carries the box-flavoured shift domain; its switch count
    # holds for one step and must drop at the second
    x = L.parse("001010000")
    kinds = {h.kind for h in M.find_domains(x)}
    assert "D78b" in kinds
    s0 = M.switches(x).s
    x1 = E.step(CORR, x)
    x2 = E.step(CORR, x1)
    assert M.switches(x1).s == s0
    assert M.switches(x2).s < s0
    assert V.check_trajectory_invariants(CORR, x) == []


def assert_check_lists_the_reference_violations(table, n, budgets):
    """Compare the sweep at each budget with one reference run; return it.

    The law list does not read the budget, so every budget must list the
    same violations.
    """
    reference = golden.reference_violations(table, n)
    for budget in budgets:
        assert golden.swept_violations(table, n, budget) == reference, \
            f"{table.variant} n={n} budget={budget}"
    return reference


def test_sweep_and_reference_checker_report_the_same_violations():
    # The extended acceptance suite repeats this at n = 11, 13 and 15.
    flagged = 0
    for rule in (CORR, ORIG):
        for n in range(1, 10, 2):
            flagged += len(assert_check_lists_the_reference_violations(rule, n, (None, 3)))
    # The original rule breaks the strict-decrease law from n = 7.
    assert flagged


def broken_table(name, output):
    return RuleTable(name, bytes(output(code) for code in range(TABLE_SIZE)))


# The identity fixes every ring; the complement breaks parity and raises
# s; the corrected table with code 193 flipped breaks the two-step law at
# n = 7. The complement's period-2 rows pass the checkpoints 16 and 32
# at budget 40, where Brent's check proves their cycle.
IDENTITY = broken_table("identity", center_bit)
COMPLEMENT = broken_table("complement", lambda code: 1 - center_bit(code))
FLIP_193 = broken_table(
    "flip-193", lambda code: CORR.outputs[code] ^ (code == 193)
)

LAWS = {
    V.PARITY_CONSERVED, V.SWITCH_MONOTONE, V.SWITCH_STRICT, V.TWO_STEP_DECREASE,
    V.FIXED_POINT,
}


def test_sweep_and_reference_checker_agree_on_broken_tables():
    seen = set()
    for table, budgets in (
        (IDENTITY, (None, 3)), (COMPLEMENT, (None, 3, 40)), (FLIP_193, (None, 3))
    ):
        for n in range(1, 10, 2):
            reference = assert_check_lists_the_reference_violations(table, n, budgets)
            seen |= {invariant for invariant, _, _ in reference}
    assert seen == LAWS


def test_law_check_and_reference_checker_agree_on_wide_rings():
    # The sweeps above stop at n = 9 (15 in the extended suite). Here the
    # gathers span three to eight byte groups, and from n = 53 some
    # windows come from a rotation of the ring.
    rng = np.random.default_rng(18)
    seen = set()
    for n in range(17, P.MAX_N + 1, 2):
        # Non-homogeneous: neither 0 nor 2^n - 1.
        x = rng.integers(1, (1 << n) - 1, size=24, dtype=np.uint64)
        for table in (CORR, ORIG, IDENTITY, COMPLEMENT, FLIP_193):
            listed = V._broken_laws(table, n, x, P.batch_step(table, x, n))
            swept = sorted(
                (law, str(L.Configuration(n, w)), step) for law, w, step in listed
            )
            reference = golden.reference_violations(table, n, x.tolist())
            assert swept == reference, f"{table.variant} n={n}"
            seen |= {invariant for invariant, _, _ in reference}
    assert seen == LAWS


def test_only_invariant_sweeps_build_the_law_table():
    P.invariant_tables.cache_clear()
    V.verify_size(CORR, 13)
    assert P.invariant_tables.cache_info().currsize == 0
    V.verify_size(CORR, 13, invariants=True)
    assert P.invariant_tables.cache_info().currsize == 1


# With a floor of 1 every slice merges, past the checkpoints too.
MERGE_FLOORS = (V.MERGE_FLOOR, 1)


def swept_classification(table, n, budget):
    """``verify_size``'s report in the shape of ``golden.classification``."""
    report = V.verify_size(table, n, budget=budget)
    return (
        report.checked,
        report.correct,
        None if report.max_t0 is None
        else (report.max_t0.steps, str(report.max_t0.witness)),
        [str(ce.config) for ce in report.wrong_class],
        [str(ce.config) for ce in report.non_converged],
    ), report


def random_table(seed):
    rng = random.Random(seed)
    return RuleTable(f"random-{seed}", bytes(rng.getrandbits(1) for _ in range(TABLE_SIZE)))


# Seeds of random 512-bit rule tables. Table 63 has rings of 9 cells that
# reach a non-homogeneous fixed point at step 16 or 17, just at the
# checkpoint 16, where a cycle test one step too early would fire.
RANDOM_SEEDS = (2, 3, 63)


def test_sweep_and_reference_checker_agree_on_random_tables():
    for seed in (2, 63):
        for n in range(1, 10, 2):
            assert_check_lists_the_reference_violations(random_table(seed), n, (40,))


def assert_checker_matches_the_report_checker(table, n, budgets):
    """The count-only checker equals the one read from whole reports, ring by ring.

    The reference runs once per ring, at the largest budget: step t adds
    only violations of step t, so a smaller budget keeps those before it.
    """
    caps = {budget: E.default_budget(n, budget) for budget in budgets}
    for bits in range(1 << n):
        x = L.Configuration(n, bits)
        reference = golden.check_trajectory_invariants_by_reports(table, x, max(caps.values()))
        for budget, cap in caps.items():
            assert V.check_trajectory_invariants(table, x, budget) == \
                [v for v in reference if v.step < cap], f"{table.variant} {x} budget={budget}"


CHECKER_TABLES = {
    table.variant: table
    for table in (CORR, ORIG, IDENTITY, COMPLEMENT, FLIP_193, *map(random_table, RANDOM_SEEDS))
}
# Tables under which most rings never settle, so that the default budget of
# 4n^2 steps runs out on each: from n = 7 on the two checkers take about a
# minute per table there, which the extended suite pays.
CYCLING_TABLES = ("complement", *(f"random-{seed}" for seed in RANDOM_SEEDS))


@pytest.mark.parametrize("variant", CHECKER_TABLES)
def test_checker_matches_the_report_checker(variant):
    for n in range(1, 12, 2):
        cycling = variant in CYCLING_TABLES and n > 5
        budgets = (2, 3) if cycling else (None, 2, 3)
        assert_checker_matches_the_report_checker(CHECKER_TABLES[variant], n, budgets)


@pytest.mark.skipif(EXTENDED < 1, reason="set PARITYCA_EXTENDED=1 for the cycling tables")
@pytest.mark.parametrize("variant", CYCLING_TABLES)
def test_checker_matches_the_report_checker_on_cycling_tables(variant):
    for n in (7, 9, 11):
        assert_checker_matches_the_report_checker(CHECKER_TABLES[variant], n, (None,))


def test_checker_matches_the_report_checker_on_the_reference_pool():
    # The corrected rule's outputs on these rings are pinned by digest in
    # tests/test_perfbench.py.
    pool = json.loads((ROOT / "perfbench" / "reference.json").read_text())["single-config"]
    assert len(pool) == 896
    flagged = 0
    for text in pool:
        x = L.parse(text)
        violations = V.check_trajectory_invariants(ORIG, x)
        assert violations == golden.check_trajectory_invariants_by_reports(ORIG, x), text
        flagged += len(violations)
    assert flagged


def test_violation_lists_are_bounded_by_the_configurations():
    # Random table 2 breaks a law at nearly every step of every trajectory;
    # listed along trajectories, n = 11 gave 1,369,973 violations.
    report = V.verify_size(random_table(2), 11, invariants=True)
    assert len(report.violations) <= 5 << 11
    assert len(set((v.invariant, v.witness) for v in report.violations)) \
        == len(report.violations)


def test_invariant_reports_classify_as_plain_reports():
    # Cycle proofs run under the law check too, so only the violations differ.
    for table, n, budget in (
        (ORIG, 13, None), (ORIG, 13, 3), (COMPLEMENT, 9, 40),
    ):
        plain = V.verify_size(table, n, budget=budget).to_json()
        with_laws = V.verify_size(table, n, budget=budget, invariants=True).to_json()
        assert with_laws.pop("violations")
        del plain["violations"]
        assert with_laws == plain, f"{table.variant} n={n} budget={budget}"


def test_law_check_lists_the_original_rules_violations():
    for n, count in ((13, 299), (15, 1110)):
        report = V.verify_size(ORIG, n, invariants=True)
        laws = [v.invariant for v in report.violations]
        assert {law: laws.count(law) for law in set(laws)} == {V.SWITCH_STRICT: count}
        for v in report.violations[::40]:
            reference = V.check_trajectory_invariants(ORIG, L.parse(v.witness))
            assert (v.invariant, v.step) in {(r.invariant, r.step) for r in reference}, \
                f"n={n} {v.witness}"
        # The laws are rotation-invariant: necklace mode lists the
        # representatives of exactly the violating classes.
        neck = V.verify_size(ORIG, n, mode="necklace", invariants=True)
        assert {
            (v.invariant, str(L.rotate(L.parse(v.witness), k)), v.step)
            for v in neck.violations for k in range(n)
        } == {(v.invariant, v.witness, v.step) for v in report.violations}, f"n={n}"


def test_sweep_classification_agrees_with_the_reference_classifier(monkeypatch):
    for table in (CORR, ORIG, IDENTITY, COMPLEMENT, FLIP_193):
        for n in range(1, 10, 2):
            for budget in (None, 3):
                expected = golden.classification(table, n, budget)
                for floor in MERGE_FLOORS:
                    monkeypatch.setattr(V, "MERGE_FLOOR", floor)
                    swept, _ = swept_classification(table, n, budget)
                    assert swept == expected, \
                        f"{table.variant} n={n} budget={budget} floor={floor}"


def test_merged_sweep_classification_agrees_with_the_reference_classifier():
    # The 8,192 rings of n = 13 fill one slice above the merge floor.
    assert 1 << 13 >= V.MERGE_FLOOR
    for table, budgets in (
        (CORR, (None,)), (ORIG, (None, 3)), (IDENTITY, (3,)), (COMPLEMENT, (3,)),
        (FLIP_193, (None, 3)),
    ):
        for budget in budgets:
            swept, _ = swept_classification(table, 13, budget)
            assert swept == golden.classification(table, 13, budget), \
                f"{table.variant} budget={budget}"


def test_sweep_classification_agrees_on_random_tables(monkeypatch):
    # Budgets 40 and 100 span the checkpoints 16, 32 and 64. These tables
    # cycle with periods from 3 to 99, and some of their rows run out of
    # budget without a recurrence.
    periods, exhausted = set(), 0
    for seed in RANDOM_SEEDS:
        table = random_table(seed)
        for n in range(1, 10, 2):
            for budget in (40, 100):
                expected = golden.classification(table, n, budget)
                for floor in MERGE_FLOORS:
                    monkeypatch.setattr(V, "MERGE_FLOOR", floor)
                    swept, report = swept_classification(table, n, budget)
                    assert swept == expected, \
                        f"{table.variant} n={n} budget={budget} floor={floor}"
                for ce in report.non_converged:
                    if isinstance(ce.outcome, E.Cycle):
                        periods.add(ce.outcome.period)
                    else:
                        exhausted += 1
    assert {3, 99} <= periods
    assert exhausted


def tally_classification(tally, n):
    """A ``_sweep_rows`` tally in the shape of ``golden.classification``."""
    return (
        tally.checked,
        tally.correct,
        None if tally.max_t0 < 0 else (tally.max_t0, str(L.Configuration(n, tally.max_t0_arg))),
        [str(L.Configuration(n, w)) for w in tally.wrong],
        [str(L.Configuration(n, w)) for w in tally.nonconv],
    )


def meeting_pairs(table, n, rings):
    """For each ring that has one, the ascending pair of it and a ring one or
    two cells away whose image is the same."""
    cells = np.uint64(1) << np.arange(n, dtype=np.uint64)
    flips = np.unique(cells[:, None] | cells[None, :])
    pairs = []
    for ring in rings.tolist():
        near = np.uint64(ring) ^ flips
        image = P.batch_step(table, np.array([ring], dtype=np.uint64), n)
        met = near[P.batch_step(table, near, n) == image]
        if met.size:
            pairs.append(np.sort(np.array([ring, met[0]], dtype=np.uint64)))
    return pairs


def test_sweep_rows_classify_the_widest_rings(monkeypatch):
    # At n = 63 the ring 2^63 - 1 is one bit below the "never" record's
    # last state 2^64 - 1. A slice merges here only when it is tiny (the
    # key needs n + bit_length(rows - 1) <= 64 bits), so with a floor of 1
    # pairs of rings with one image merge after one step. Random table 2
    # does not conserve parity, so the rings of one pair may differ in it,
    # and its cycles are too long to replay at the default budget. Under
    # the identity every ring but two is wrong; the complement's rings
    # are proven cyclic at step 66, two steps past the checkpoint 64.
    rng = np.random.default_rng(61)
    merged = 0
    for n in (61, 63):
        all_ones = (1 << n) - 1
        rings = np.unique(np.concatenate((
            np.array([0, 1, all_ones - 1, all_ones], dtype=np.uint64),
            rng.integers(0, all_ones, size=40, dtype=np.uint64, endpoint=True),
        )))
        for table, budgets in (
            (CORR, (1, 2, None)), (ORIG, (1, 2, None)), (random_table(2), (1, 2, 40)),
            (IDENTITY, (1, 2)), (COMPLEMENT, (1, 2, 100)),
        ):
            # The identity and the complement are one-to-one: no pair meets.
            pairs = meeting_pairs(table, n, rings[4:12])
            for budget in budgets:
                budget = E.default_budget(n, budget)
                tally = V._sweep_rows(table, n, budget, False, rings)
                assert tally_classification(tally, n) == \
                    golden.classification(table, n, budget, rings.tolist()), \
                    f"{table.variant} n={n} budget={budget}"
                monkeypatch.setattr(V, "MERGE_FLOOR", 1)
                widths = count_steps(monkeypatch)
                for pair in pairs:
                    widths.clear()
                    tally = V._sweep_rows(table, n, budget, False, pair)
                    assert tally_classification(tally, n) == \
                        golden.classification(table, n, budget, pair.tolist()), \
                        f"{table.variant} n={n} budget={budget} pair={pair}"
                    merged += widths[1:2] == [1]
                monkeypatch.undo()
    # Every pair of the first three tables merges at each size and each
    # budget above 1; a budget of 1 stops before the merge.
    assert merged == 2 * 2 * (8 + 8 + 1)


def test_sweep_rows_read_the_homogeneous_rows_at_the_slice_ends(monkeypatch):
    # Rows ascend strictly, so 0 can only be the first row of a slice and
    # 2^n - 1 the last. Random table 2 maps all-zeros to all-ones, so a
    # homogeneous row must finish correct at t0 = 0, not be stepped.
    rng = np.random.default_rng(27)
    slices = [(1, [0, 1]), (1, [0]), (1, [1])]
    for n in (9, 13):
        all_ones = (1 << n) - 1
        inner = sorted(set(rng.integers(1, all_ones, size=24).tolist()))
        slices += [(n, rings) for rings in (
            [0] + inner, inner + [all_ones], [0] + inner + [all_ones], inner,
            [0], [all_ones], inner[:1], [0, all_ones],
        )]
    tables = ((CORR, None), (ORIG, None), (random_table(2), 40))
    assert tables[2][0].outputs[0] == 1
    for n, rings in slices:
        for table, budget in tables:
            budget = E.default_budget(n, budget)
            expected = golden.classification(table, n, budget, rings)
            for floor in MERGE_FLOORS:
                monkeypatch.setattr(V, "MERGE_FLOOR", floor)
                tally = V._sweep_rows(table, n, budget, False, np.array(rings, dtype=np.uint64))
                assert tally_classification(tally, n) == expected, \
                    f"{table.variant} n={n} rings={rings} floor={floor}"


def count_row_classifications(monkeypatch):
    """The row counts of the slices classified row by row from here on."""
    inner = V._classify_rows
    sizes = []

    def counting(tally, start, *records):
        sizes.append(start.size)
        return inner(tally, start, *records)

    monkeypatch.setattr(V, "_classify_rows", counting)
    return sizes


def test_only_slices_with_a_failing_row_or_a_mixed_merge_are_classified_row_by_row(
    monkeypatch,
):
    calls = count_row_classifications(monkeypatch)
    # Under the corrected rule every row of every slice converges correctly,
    # so each slice is classified from its finish records alone.
    expected = {n: golden.classification(CORR, n) for n in range(1, 14, 2)}
    for floor in MERGE_FLOORS:
        monkeypatch.setattr(V, "MERGE_FLOOR", floor)
        for n in range(1, 16, 2):
            swept, report = swept_classification(CORR, n, None)
            assert report.passed, f"n={n} floor={floor}"
            if n in expected:
                assert swept == expected[n], f"n={n} floor={floor}"
        for n in range(1, 20, 2):
            assert V.verify_size(CORR, n, mode="necklace").passed, f"n={n} floor={floor}"
    assert calls == []
    # A slice with a non-converged row: the original rule's faulty cycle,
    # and a budget of 3 that leaves rows live.
    for table, budget in ((ORIG, None), (CORR, 3)):
        expected = golden.classification(table, 13, budget)
        for floor in MERGE_FLOORS:
            monkeypatch.setattr(V, "MERGE_FLOOR", floor)
            calls.clear()
            swept, _ = swept_classification(table, 13, budget)
            assert swept == expected, f"{table.variant} budget={budget} floor={floor}"
            assert calls == [1 << 13], f"{table.variant} budget={budget} floor={floor}"
    # Random table 3 steps the rings 9 and 290 of n = 9, of opposite parity,
    # to one state. Merged, their group is named by 9, which finishes
    # correct at step 10, so every group has a right record and only the
    # mixed merge shows that 290 ends wrong.
    table, rings = random_table(3), np.array([9, 290], dtype=np.uint64)
    expected = golden.classification(table, 9, 40, rings.tolist())
    assert expected == (2, 1, (10, "100100000"), ["010001001"], [])
    widths = count_steps(monkeypatch)
    for floor in MERGE_FLOORS:
        monkeypatch.setattr(V, "MERGE_FLOOR", floor)
        calls.clear()
        widths.clear()
        tally = V._sweep_rows(table, 9, 40, False, rings)
        assert tally_classification(tally, 9) == expected, f"floor={floor}"
        assert calls == [2], f"floor={floor}"
        assert (widths[1:2] == [1]) == (floor == 1), f"floor={floor}"


def test_report_json_shape():
    doc = V.verify_size(ORIG, 13).to_json()
    assert doc["rule"] == "original"
    assert doc["n"] == 13
    assert doc["mode"] == "full"
    assert doc["checked"] == 1 << 13
    assert doc["checked"] == doc["correct"] + len(doc["counterexamples"])
    assert doc["max_t0"]["steps"] > 0
    assert doc["violations"] == []
    for entry in doc["counterexamples"]:
        assert entry["outcome"]["kind"] == "cycle"
    # round trip through the JSON layer and replay every counterexample
    doc2 = json.loads(json.dumps(doc))
    for entry in doc2["counterexamples"]:
        outcome = E.evolve(ORIG, L.parse(entry["config"]))
        assert E.outcome_json(outcome) == entry["outcome"]
