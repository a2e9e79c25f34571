import json

import pytest
from hypothesis import given, settings, strategies as st

from parityca import engine as E
from parityca import lattice as L
from parityca.rule import CORRECTED, ORIGINAL, build_rule_table
import golden

CORR = build_rule_table(CORRECTED)
ORIG = build_rule_table(ORIGINAL)

odd_configs = st.integers(min_value=2, max_value=14).flatmap(
    lambda half: st.integers(min_value=0, max_value=(1 << (2 * half + 1)) - 1).map(
        lambda bits: L.Configuration(2 * half + 1, bits)
    )
)


def trajectory(rule, text, steps):
    x = L.parse(text)
    rows = [str(x)]
    for _ in range(steps):
        x = E.step(rule, x)
        rows.append(str(x))
    return rows


def test_single_steps_match_the_published_rows():
    assert trajectory(CORR, golden.FAULTY, 1)[1] == golden.FAULTY_ROWS_CORRECTED[1]
    assert trajectory(ORIG, golden.FAULTY, 1)[1] == golden.FAULTY_ROWS_ORIGINAL[1]
    assert trajectory(CORR, golden.SAMPLE19_ROWS[0], 1)[1] == golden.SAMPLE19_ROWS[1]


def test_full_published_trajectories():
    assert trajectory(CORR, golden.FAULTY, 13) == golden.FAULTY_ROWS_CORRECTED
    assert trajectory(ORIG, golden.FAULTY, 13) == golden.FAULTY_ROWS_ORIGINAL
    assert trajectory(CORR, golden.SAMPLE19_ROWS[0], 27) == golden.SAMPLE19_ROWS


def test_corrected_rule_converges_on_the_faulty_configuration():
    outcome = E.evolve(CORR, L.parse(golden.FAULTY))
    assert isinstance(outcome, E.Converged)
    assert outcome.t0 == 13
    assert str(outcome.fixed_point) == "0" * 13


def test_original_rule_cycles_on_the_faulty_configuration():
    x = L.parse(golden.FAULTY)
    outcome = E.evolve(ORIG, x)
    assert isinstance(outcome, E.Cycle)
    assert outcome.entry == 0
    assert outcome.period == 13
    # one step shifts the whole ring by four cells
    assert outcome.displacement_steps == 1
    assert outcome.displacement == 4
    assert E.step(ORIG, x) == L.rotate(x, 4)


def test_sample_trajectory_converges_at_27():
    outcome = E.evolve(CORR, L.parse(golden.SAMPLE19_ROWS[0]))
    assert isinstance(outcome, E.Converged)
    assert outcome.t0 == 27
    assert str(outcome.fixed_point) == "0" * 19


def test_evolve_on_fixed_points():
    for text in ("0", "1", "00000", "11111"):
        outcome = E.evolve(CORR, L.parse(text))
        assert outcome == E.Converged(fixed_point=L.parse(text), t0=0)


def test_budget_exceeded_is_reported():
    outcome = E.evolve(CORR, L.parse(golden.SAMPLE19_ROWS[0]), budget=5)
    assert outcome == E.BudgetExceeded(steps=5)
    with pytest.raises(ValueError):
        E.evolve(CORR, L.parse("101"), budget=0)


def test_default_budget_is_4n2_or_the_given_budget_of_at_least_one():
    assert E.default_budget(5) == 100
    assert E.default_budget(5, 7) == 7
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            E.default_budget(5, budget)


def test_space_time_of_zero_steps_is_the_input_row():
    x = L.parse("10100")
    diagram = E.space_time(CORR, x, 0)
    assert diagram.rows == (x,)
    assert diagram.height == 1 and diagram.width == 5


def test_space_time_matches_published_rows():
    diagram = E.space_time(ORIG, L.parse(golden.FAULTY), 13)
    assert [str(r) for r in diagram.rows] == golden.FAULTY_ROWS_ORIGINAL


def test_parity_is_conserved_exhaustively_small():
    for n in (1, 3, 5, 7, 9):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            assert L.parity(E.step(CORR, x)) == L.parity(x)


def test_parity_is_conserved_randomized_large():
    import random

    rng = random.Random(4211)
    for _ in range(200):
        n = rng.choice(range(19, 64, 2))
        x = L.Configuration(n, rng.randrange(1 << n))
        assert L.parity(E.step(CORR, x)) == L.parity(x)


def test_only_homogeneous_configurations_are_fixed_small():
    for n in (1, 3, 5, 7, 9):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            assert (E.step(CORR, x) == x) == L.is_homogeneous(x)


@given(odd_configs, st.integers(-30, 30))
@settings(max_examples=60)
def test_shift_equivariance(x, k):
    assert E.step(CORR, L.rotate(x, k)) == L.rotate(E.step(CORR, x), k)


@given(odd_configs, st.sampled_from([3, 5]))
@settings(max_examples=40)
def test_concat_power_lift_commutes_with_step(x, k):
    lifted = golden.concat_power(x, k)
    assert E.step(CORR, lifted) == golden.concat_power(E.step(CORR, x), k)


def test_lift_consistency_exhaustive_tiny():
    for n in (1, 3, 5):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            lifted = golden.concat_power(x, 3)
            assert E.step(CORR, lifted) == golden.concat_power(E.step(CORR, x), 3)


def test_render_text_rows_are_verbatim():
    diagram = E.space_time(CORR, L.parse(golden.FAULTY), 2)
    assert E.render_text(diagram).split("\n") == golden.FAULTY_ROWS_CORRECTED[:3]


def test_render_pbm_format():
    diagram = E.space_time(CORR, L.parse("10100"), 1)
    text = E.render_pbm(diagram)
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "5 2"
    assert lines[2] == "1 0 1 0 0"
    assert all(tok in ("0", "1") for line in lines[2:] for tok in line.split())
    assert text.endswith("\n")


def test_trajectory_json_roundtrip():
    x = L.parse(golden.FAULTY)
    outcome = E.evolve(CORR, x)
    diagram = E.space_time(CORR, x, outcome.t0)
    doc = json.loads(json.dumps(E.trajectory_json(CORR, diagram, outcome)))
    assert doc["rule"] == "corrected"
    assert doc["initial"] == golden.FAULTY
    assert doc["rows"] == golden.FAULTY_ROWS_CORRECTED
    assert doc["outcome"] == {
        "kind": "converged",
        "fixed_point": "0" * 13,
        "t0": 13,
    }
    # replaying the reported rows one step at a time reproduces the document
    for before, after in zip(doc["rows"], doc["rows"][1:]):
        assert str(E.step(CORR, L.parse(before))) == after

