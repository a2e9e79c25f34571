"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criterion 4 runs the full sweep of all odd sizes up to 21; sizes 23 and
25, and the extended checks of criterion 5 (invariant sweeps at 19 and
21, ring and kernel properties at 21, the law check against the
reference checker at 11, 13 and 15), are opt-in via
PARITYCA_EXTENDED=1, the necklace-mode sweeps of 27, 29 and 31 via
PARITYCA_EXTENDED=2, and those of 33 and 35, for both rules, via
PARITYCA_EXTENDED=3.
"""
import json
import os
import time

import pytest

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca import verifier as V
from parityca.rule import CORRECTED, ORIGINAL, build_rule_table, table_diff
import golden

CORR = build_rule_table(CORRECTED)
ORIG = build_rule_table(ORIGINAL)

EXTENDED = int(os.environ.get("PARITYCA_EXTENDED", "0") or "0")


def report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {extra}".rstrip())
    assert ok


def rows_of(rule, start, steps):
    diagram = E.space_time(rule, L.parse(start), steps)
    return [str(r) for r in diagram.rows]


def test_criterion_1_faulty_configuration_diagrams_bit_exact():
    ok = rows_of(CORR, golden.FAULTY, 13) == golden.FAULTY_ROWS_CORRECTED
    ok = ok and rows_of(ORIG, golden.FAULTY, 13) == golden.FAULTY_ROWS_ORIGINAL
    outcome = E.evolve(ORIG, L.parse(golden.FAULTY))
    ok = ok and outcome == E.Cycle(entry=0, period=13, displacement=4,
                                   displacement_steps=1)
    report(1, ok, "(both 14-row diagrams reproduced exactly)")


def test_criterion_2_sample_trajectory_and_switch_sequence():
    ok = rows_of(CORR, golden.SAMPLE19_ROWS[0], 27) == golden.SAMPLE19_ROWS
    seq = [M.switches(L.parse(row)).s for row in golden.SAMPLE19_ROWS]
    ok = ok and seq == golden.SAMPLE19_S_SEQUENCE
    outcome = E.evolve(CORR, L.parse(golden.SAMPLE19_ROWS[0]))
    ok = ok and isinstance(outcome, E.Converged) and outcome.t0 == 27
    report(2, ok, "(28 rows, s-sequence, t0=27)")


def test_criterion_3_rule_table_diff_is_24():
    diff = table_diff(CORR, ORIG)
    report(3, len(diff) == 24, f"(|diff| = {len(diff)})")


SWEEP_SIZES = list(range(1, 22, 2))


def test_criterion_4_exhaustive_sweep_to_21():
    started = time.time()
    ok = True
    details = []
    for n in SWEEP_SIZES:
        rep = V.verify_size(CORR, n, workers=8)
        ok = ok and rep.passed and rep.correct == rep.checked == 1 << n
        details.append(f"n={n}:t0<={rep.max_t0.steps}")
    elapsed = time.time() - started
    ok = ok and elapsed < 120
    report(4, ok, f"({elapsed:.1f}s with 8 workers; {' '.join(details[-3:])})")


@pytest.mark.skipif(EXTENDED < 1, reason="set PARITYCA_EXTENDED=1 to sweep 23 and 25")
def test_criterion_4_extended_sizes():
    ok = True
    for n in (23, 25):
        rep = V.verify_size(CORR, n, workers=8)
        ok = ok and rep.passed and rep.correct == 1 << n
    report("4-extended", ok)


@pytest.mark.skipif(EXTENDED < 2, reason="set PARITYCA_EXTENDED=2 for necklace 27/29/31")
def test_criterion_4_necklace_sizes():
    ok = True
    for n, classes in ((27, 4_971_068), (29, 18_512_792), (31, 69_273_668)):
        rep = V.verify_size(CORR, n, mode="necklace", workers=8)
        ok = ok and rep.passed and rep.correct == rep.checked == classes
    report("4-necklace", ok)


@pytest.mark.skipif(EXTENDED < 3, reason="set PARITYCA_EXTENDED=3 for necklace 33/35")
def test_criterion_4_frontier_necklace_sizes():
    ok = True
    details = []
    for n, classes in ((33, 260_301_176), (35, 981_706_832)):
        for rule in (CORR, ORIG):
            started = time.time()
            rep = V.verify_size(rule, n, mode="necklace", workers=8)
            ok = ok and rep.checked == classes
            if rule is CORR:
                ok = ok and rep.passed and rep.correct == classes
            details.append(f"{rep.rule} n={n}: {len(rep.wrong_class)} wrong, "
                           f"{len(rep.non_converged)} non-converged, "
                           f"t0<={rep.max_t0.steps}, {time.time() - started:.0f}s")
    report("4-frontier", ok, f"({'; '.join(details)})")


def test_criterion_5_invariant_suite_to_17():
    started = time.time()
    ok = True
    for n in range(1, 18, 2):
        rep = V.verify_size(CORR, n, invariants=True)
        ok = ok and rep.passed and not rep.violations and rep.correct == 1 << n
    report(5, ok, f"(exhaustive invariant sweep n<=17, {time.time() - started:.1f}s)")


@pytest.mark.skipif(EXTENDED < 1, reason="set PARITYCA_EXTENDED=1 for invariants at 19/21")
def test_criterion_5_extended_invariant_sizes():
    started = time.time()
    ok = True
    for n in (19, 21):
        rep = V.verify_size(CORR, n, invariants=True)
        ok = ok and rep.passed and not rep.violations and rep.correct == 1 << n
    for rule in (CORR, ORIG):
        golden.check_ring_and_kernel_properties(rule, 21)
    report("5-extended", ok,
           f"(invariant sweep n=19, 21, ring properties n=21, {time.time() - started:.1f}s)")


@pytest.mark.skipif(EXTENDED < 1, reason="set PARITYCA_EXTENDED=1 for the invariant differential")
def test_criterion_5_extended_invariant_differential():
    started = time.time()
    ok = True
    for rule, n in ((CORR, 11), (ORIG, 11), (ORIG, 13), (ORIG, 15)):
        ok = ok and golden.swept_violations(rule, n) == golden.reference_violations(rule, n)
    report("5-differential", ok,
           f"(law check equals reference checker at n=11, 13, 15, "
           f"{time.time() - started:.1f}s)")


def test_criterion_6_counterexample_rediscovery():
    started = time.time()
    found = V.search_counterexamples(ORIG, 13)
    faulty = L.parse(golden.FAULTY)
    rotations = {str(L.rotate(faulty, k)) for k in range(13)}
    hits = [
        (n, c, o)
        for n, c, o in found
        if str(c) in rotations and isinstance(o, E.Cycle)
    ]
    elapsed = time.time() - started
    report(6, bool(found) and bool(hits) and elapsed < 60,
           f"({len(found)} counterexamples at n=13, {elapsed:.1f}s)")


def test_criterion_7_ordered_block_goldens():
    ok = True
    for text, expected in (
        (golden.ORDERED_CONFIG_A, golden.ORDERED_BLOCKS_A),
        (golden.ORDERED_CONFIG_B, golden.ORDERED_BLOCKS_B),
        (golden.ORDERED_EMBED, golden.ORDERED_BLOCKS_EMBED),
    ):
        found = {(b.start, b.length) for b in M.ordered_blocks(L.parse(text))}
        ok = ok and all(blk in found for blk in expected)
    ok = ok and M.ordered_blocks(L.parse(golden.ORDERED_EMPTY)) == []
    report(7, ok, "(marked blocks accepted, control produces none)")


def test_criterion_8_reports_identical_across_worker_counts():
    baseline = None
    for workers in (1, 2, 8):
        blob = "\n".join(
            json.dumps(V.verify_size(CORR, n, workers=workers).to_json())
            for n in SWEEP_SIZES
        ).encode()
        if baseline is None:
            baseline = blob
        elif blob != baseline:
            report(8, False, f"(workers={workers} differs)")
    report(8, True, "(byte-identical for 1, 2 and 8 workers)")
