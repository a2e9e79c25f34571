import itertools

import pytest

from parityca import rule as R
from golden import CORRECTED_RULE_NUMBER, active_neighborhoods, matches


def codes(*strings):
    return {int(s, 2) for s in strings}


def test_known_single_outputs():
    table = R.build_rule_table(R.CORRECTED)
    assert table.outputs[int("011100000", 2)] == 1  # T1 flips the centre
    assert table.outputs[int("000100000", 2)] == 1  # T3 flips the centre
    assert table.outputs[int("000000000", 2)] == 0
    assert table.outputs[int("111111111", 2)] == 1


@pytest.mark.parametrize("variant", R.VARIANTS)
def test_output_flips_iff_some_transition_matches(variant):
    table = R.build_rule_table(variant)
    ats = R.transitions(variant)
    for code in range(R.TABLE_SIZE):
        hit = any(matches(at, code) for at in ats)
        expected = R.center_bit(code) ^ (1 if hit else 0)
        assert table.outputs[code] == expected


def test_transition_patterns_have_fixed_centers():
    for variant in R.VARIANTS:
        for at in R.transitions(variant):
            assert at.pattern[R.CENTER] in "01"


def test_center_is_preserved_by_mirroring():
    for at in R.transitions(R.CORRECTED):
        assert at.mirrored().pattern[R.CENTER] == at.pattern[R.CENTER]


def test_original_variant_swaps_only_the_two_shift_transitions():
    corrected = {at.id: at for at in R.transitions(R.CORRECTED)}
    original = {at.id: at for at in R.transitions(R.ORIGINAL)}
    for label in corrected:
        if label in ("T7", "T8"):
            assert original[label].pattern == corrected[label].pattern[::-1]
        else:
            assert original[label].pattern == corrected[label].pattern


def test_mirror_property_of_the_full_table():
    # Rebuild the original table from the corrected transitions with T7/T8
    # expansions replaced by their reversed patterns, entry by entry.
    swapped = [
        at.mirrored() if at.id in ("T7", "T8") else at
        for at in R.transitions(R.CORRECTED)
    ]
    original = R.build_rule_table(R.ORIGINAL)
    for code in range(R.TABLE_SIZE):
        hit = any(matches(at, code) for at in swapped)
        assert original.outputs[code] == R.center_bit(code) ^ (1 if hit else 0)


def test_diff_is_empty_on_itself():
    table = R.build_rule_table(R.CORRECTED)
    assert R.table_diff(table, table) == set()


def test_diff_has_exactly_24_entries_and_is_symmetric():
    a = R.build_rule_table(R.CORRECTED)
    b = R.build_rule_table(R.ORIGINAL)
    diff = R.table_diff(a, b)
    assert len(diff) == 24
    assert diff == R.table_diff(b, a)


def test_diff_entries_touch_only_the_shift_transitions():
    a = R.build_rule_table(R.CORRECTED)
    b = R.build_rule_table(R.ORIGINAL)
    shift_ids = {"T7", "T8"}
    corrected_ats = R.transitions(R.CORRECTED)
    original_ats = R.transitions(R.ORIGINAL)
    for code in R.table_diff(a, b):
        matched = {at.id for at in corrected_ats if matches(at, code)}
        matched |= {at.id for at in original_ats if matches(at, code)}
        assert matched
        assert matched <= shift_ids


def expansion_oracle(ats):
    """Expand don't-cares by brute force, independently of ActiveTransition."""
    out = set()
    for at in ats:
        free = [j for j, ch in enumerate(at.pattern) if ch == "*"]
        for fill in itertools.product("01", repeat=len(free)):
            chars = list(at.pattern)
            for j, ch in zip(free, fill):
                chars[j] = ch
            out.add(int("".join(chars), 2))
    return out


@pytest.mark.parametrize("variant", R.VARIANTS)
def test_active_neighborhoods_equal_expansion(variant):
    table = R.build_rule_table(variant)
    oracle = expansion_oracle(R.transitions(variant))
    assert set(active_neighborhoods(table)) == oracle


def test_active_neighborhood_counts():
    corrected = R.build_rule_table(R.CORRECTED)
    active = active_neighborhoods(corrected)
    assert int("011100000", 2) in active
    assert len(active) == len(expansion_oracle(R.transitions(R.CORRECTED))) == 176


def test_identity_rule_has_no_active_neighborhoods():
    identity = R.RuleTable(
        variant=R.CORRECTED,
        outputs=bytes(R.center_bit(code) for code in range(R.TABLE_SIZE)),
    )
    assert active_neighborhoods(identity) == frozenset()


def test_wolfram_number_of_degenerate_tables():
    zeros = R.RuleTable(variant=R.CORRECTED, outputs=bytes(R.TABLE_SIZE))
    assert R.wolfram_number(zeros) == "0"
    identity = R.RuleTable(
        variant=R.CORRECTED,
        outputs=bytes(R.center_bit(code) for code in range(R.TABLE_SIZE)),
    )
    expected = sum(1 << code for code in range(R.TABLE_SIZE) if (code >> 4) & 1)
    assert R.wolfram_number(identity) == str(expected)


def test_wolfram_number_matches_published_digits():
    table = R.build_rule_table(R.CORRECTED)
    number = R.wolfram_number(table)
    assert len(number) == 155
    assert number == CORRECTED_RULE_NUMBER


def test_table_string_is_the_binary_of_the_rule_number():
    table = R.build_rule_table(R.CORRECTED)
    text = R.table_string(table)
    assert len(text) == 512
    assert set(text) <= {"0", "1"}
    assert int(text, 2) == int(R.wolfram_number(table))


def test_bad_transition_patterns_are_rejected():
    with pytest.raises(ValueError):
        R.ActiveTransition("bad", "0101")  # wrong length
    with pytest.raises(ValueError):
        R.ActiveTransition("bad", "0101*1010")  # don't-care at the centre
    with pytest.raises(ValueError):
        R.ActiveTransition("bad", "010121010")  # stray symbol
    with pytest.raises(ValueError):
        R.transitions("fixed")
