import json

import pytest

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca import verifier as V
from parityca.rule import CORRECTED, ORIGINAL, build_rule_table
import golden

CORR = build_rule_table(CORRECTED)
ORIG = build_rule_table(ORIGINAL)


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


def test_reports_are_deterministic_across_workers_and_chunking():
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


def test_vectorized_and_reference_checkers_agree_on_random_cases():
    import random

    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.choice([9, 11, 13])
        x = L.Configuration(n, rng.randrange(1 << n))
        assert V.check_trajectory_invariants(CORR, x) == []
    # and on a rule where violations do occur, both paths find some
    report = V.verify_size(ORIG, 13, invariants=True)
    assert report.violations
    flagged = {v.witness for v in report.violations}
    probed = sorted(flagged)[:5]
    for text in probed:
        assert V.check_trajectory_invariants(ORIG, L.parse(text))


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
