import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca.rule import CORRECTED, build_rule_table
import golden

CORR = build_rule_table(CORRECTED)
EXTENDED = int(os.environ.get("PARITYCA_EXTENDED", "0") or "0")


def odd_rings(max_half):
    """Rings of every odd size 2h + 1 for 0 <= h <= max_half."""
    return st.integers(min_value=0, max_value=max_half).flatmap(
        lambda half: st.integers(min_value=0, max_value=(1 << (2 * half + 1)) - 1).map(
            lambda bits: L.Configuration(2 * half + 1, bits)
        )
    )


odd_configs = odd_rings(14)
wide_configs = odd_rings(500)  # up to 1,001 cells


def test_find_pattern_is_cyclic():
    x = L.parse("00110")
    assert golden.find_pattern(x, "011") == [1]
    assert golden.find_pattern(x, "100") == [3]  # wraps over the seam
    assert golden.find_pattern(x, "0") == [0, 1, 4]


@pytest.mark.parametrize("n", range(1, 12, 2))
def test_find_pattern_is_a_startswith_scan(n):
    # The integer-mask reading behind the switch gaps and the merge sites
    # finds each pattern where the text scan does; patterns as long as the
    # ring and longer (D912b has ten cells) included.
    patterns = ["0", "1", "01", "10", "111", M.BOX,
                *(pattern for _, pattern, _ in M.DOMAINS)]
    mask = (1 << n) - 1
    for bits in range(1 << n):
        x = L.Configuration(n, bits)
        for pattern in patterns:
            ring = M._repeat(x, len(pattern) // n + 2)
            starts = M._pattern_mask(ring, M._cells(pattern), mask)
            expected = golden.find_pattern(x, pattern)
            assert [p for p in range(n) if starts >> p & 1] == expected


def test_box_goldens():
    for text, (_, boxes) in golden.SWITCH_SAMPLES.items():
        assert list(M.switches(L.parse(text)).boxes) == boxes


def test_switch_goldens():
    for text, (count, _) in golden.SWITCH_SAMPLES.items():
        assert M.switches(L.parse(text)).s == count
    assert M.switches(L.parse(golden.SAMPLE19_ROWS[0])).s == 8
    assert M.switches(L.parse("00000")).s == 0


def test_switch_kinds_on_an_annotated_sample():
    # 111010010100111 has boxes at 3 and 8, hence block switches at 2 and 7.
    report = M.switches(L.parse("111010010100111"))
    assert [(sw.pos, sw.kind) for sw in report.switches] == [
        (2, "b"),
        (6, "r"),
        (7, "b"),
        (11, "r"),
    ]


def test_switch_count_along_the_sample_trajectory():
    x = L.parse(golden.SAMPLE19_ROWS[0])
    seq = [M.switches(x).s]
    for _ in range(27):
        x = E.step(CORR, x)
        seq.append(M.switches(x).s)
    assert seq == golden.SAMPLE19_S_SEQUENCE


def box_oracle(x):
    """Ascending positions i where cells (i, i+1) read 01, after 1 and before 00."""
    return sorted((p + 1) % x.n for p in golden.find_pattern(x, M.BOX))


def switch_oracle(x):
    """(pos, kind) of every switch, gap by gap from the box positions."""
    n = x.n
    boxes = box_oracle(x)
    box_cells = {c % n for b in boxes for c in (b, b + 1)}
    found = []
    for i in range(n):
        if (i + 1) % n in boxes:
            found.append((i, "b"))
        elif x.cell(i) != x.cell(i + 1) and not {i, (i + 1) % n} & box_cells:
            found.append((i, "r"))
    return found


def test_switches_against_gap_oracle_exhaustive():
    for n in range(1, 16, 2):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            report = M.switches(x)
            assert [(sw.pos, sw.kind) for sw in report.switches] == switch_oracle(x)
            assert M.switch_count(x) == report.s == len(report.switches)
            assert list(report.boxes) == box_oracle(x)


def test_switches_against_gap_oracle_on_wide_rings():
    rng = random.Random(101)
    for n in (63, 101, 1001):
        for _ in range(8):
            x = L.Configuration(n, rng.getrandbits(n))
            report = M.switches(x)
            assert [(sw.pos, sw.kind) for sw in report.switches] == switch_oracle(x)
            assert M.switch_count(x) == report.s


@given(wide_configs)
@settings(max_examples=60)
def test_switch_count_is_the_switch_report_count_on_wide_rings(x):
    assert M.switch_count(x) == M.switches(x).s == len(switch_oracle(x))


@pytest.mark.parametrize("text, boxes, gaps", [
    ("0", [], []),
    ("1", [], []),
    ("10100", [1], [(0, "b"), (4, "r")]),  # one box pattern; the seam gap 4 is regular
    ("100000010", [8], [(6, "r"), (7, "b")]),  # box on the last cell, its pair over the seam
    ("010000001", [0], [(7, "r"), (8, "b")]),  # box on cell 0, its block switch on the seam
])
def test_switches_at_the_seam(text, boxes, gaps):
    x = L.parse(text)
    report = M.switches(x)
    assert list(report.boxes) == boxes == box_oracle(x)
    assert [(sw.pos, sw.kind) for sw in report.switches] == gaps == switch_oracle(x)
    assert M.switch_count(x) == len(gaps)


def test_zero_switches_iff_homogeneous_exhaustive():
    for n in (1, 3, 5, 7, 9, 11):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            assert (M.switches(x).s == 0) == L.is_homogeneous(x)


def domain_oracle(x):
    """Sliding-window re-derivation of the domain table, kept deliberately dumb."""
    n = x.n
    text = str(x)
    hits = []

    def window(p, length):
        copies = text * (length // n + 2)
        return copies[p : p + length]

    for p in range(n):
        if window(p, 5) == "11100":
            hits.append(("D12", p))
        if window(p, 5) == "00100":
            hits.append(("D34", p))
        if window(p, 4) == "0110":
            hits.append(("D56b" if window(p, 7)[4:] == "100" else "D56r", p))
        if window(p, 6) == "001010":
            hits.append(("D78r" if window(p, 7)[6] == "1" else "D78b", p))
        if window(p, 6) == "111010":
            tail = window(p, 9)[6:]
            if tail[0] == "0":
                hits.append(("D910b", p))
            elif tail[1:] == "00":
                hits.append(("D910rb", p))
            else:
                hits.append(("D910r", p))
        if window(p, 7) == "1110111":
            hits.append(("D911", p))
        if window(p, 7) == "1110110":
            hits.append(("D912b" if window(p, 10)[7:] == "100" else "D912r", p))
    return hits


def test_domain_goldens():
    hits = M.find_domains(L.parse("111001010"))
    assert ("D12", 0) in {(h.kind, h.pos) for h in hits}  # overlapped by D78
    assert ("D78r", 3) in {(h.kind, h.pos) for h in hits}
    assert M.find_domains(L.parse("0" * 13)) == []


def test_domains_against_window_oracle_on_named_rows():
    for text in [golden.FAULTY, *golden.SAMPLE19_ROWS[:5], "111001010"]:
        x = L.parse(text)
        assert [(h.kind, h.pos) for h in M.find_domains(x)] == domain_oracle(x)


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_domains_against_window_oracle_exhaustive(n):
    for bits in range(1 << n):
        x = L.Configuration(n, bits)
        hits = domain_oracle(x)
        assert [(h.kind, h.pos) for h in M.find_domains(x)] == hits
        assert M.domain_kinds(x) == {kind for kind, _ in hits}


@given(odd_configs)
@settings(max_examples=150)
def test_domains_against_window_oracle(x):
    assert [(h.kind, h.pos) for h in M.find_domains(x)] == domain_oracle(x)


@given(wide_configs)
@settings(max_examples=60)
def test_domain_kinds_are_the_kinds_of_every_hit_on_wide_rings(x):
    kinds = M.domain_kinds(x)
    assert kinds == {h.kind for h in M.find_domains(x)}
    assert kinds == {kind for kind, _ in domain_oracle(x)}


def test_domain_variants_refine_their_base_patterns():
    for n in (7, 9, 11):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            kinds = {}
            for h in M.find_domains(x):
                kinds.setdefault(h.pos, set()).add(h.kind)
            for p in golden.find_pattern(x, "0110"):
                assert kinds[p] & {"D56r", "D56b"}
            for p in golden.find_pattern(x, "001010"):
                assert kinds[p] & {"D78r", "D78b"}
            for p in golden.find_pattern(x, "111010"):
                assert kinds[p] & {"D910r", "D910b", "D910rb"}
            for p in golden.find_pattern(x, "1110110"):
                assert kinds[p] & {"D912r", "D912b"}


def merges(text):
    x = L.parse(text)
    return M.merge_events(x, E.step(CORR, x))


def test_merge_event_goldens():
    assert merges("11100111000") == 1
    assert merges("0000000") == 0
    # the first update of the sample trajectory removes one switch pair
    assert merges(golden.SAMPLE19_ROWS[0]) == 1


def test_merge_requires_the_bridge_to_survive_the_update():
    # 11100 with a following 1 that the update itself erases: no merge.
    x = L.parse("0111001101000")
    y = E.step(CORR, x)
    assert M.merge_events(x, y) == 0
    assert M.switches(y).s == M.switches(x).s  # and indeed nothing decreased


@pytest.mark.parametrize("n", range(1, 8, 2))
def test_merge_events_against_the_text_scan_on_every_pair(n):
    # y need not be the image of x: the mask form must read any ring pair.
    rings = [L.Configuration(n, bits) for bits in range(1 << n)]
    for x in rings:
        for y in rings:
            assert M.merge_events(x, y) == golden.merge_events_by_text(x, y)


def test_merge_events_against_the_text_scan_on_every_step_exhaustive():
    for n in range(1, 16, 2):
        for bits in range(1 << n):
            x = L.Configuration(n, bits)
            y = E.step(CORR, x)
            assert M.merge_events(x, y) == golden.merge_events_by_text(x, y)


@given(wide_configs, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_merge_events_against_the_text_scan_on_wide_rings(x, rng):
    for y in (E.step(CORR, x), L.Configuration(x.n, rng.getrandbits(x.n))):
        assert M.merge_events(x, y) == golden.merge_events_by_text(x, y)


def test_ordered_block_goldens_combined_sample():
    x = L.parse(golden.ORDERED_CONFIG_A)
    found = {(b.start, b.length) for b in M.ordered_blocks(x)}
    for blk in golden.ORDERED_BLOCKS_A:
        assert blk in found


def test_ordered_block_goldens_long_sample():
    x = L.parse(golden.ORDERED_CONFIG_B)
    found = {(b.start, b.length) for b in M.ordered_blocks(x)}
    for blk in golden.ORDERED_BLOCKS_B:
        assert blk in found


def test_ordered_block_goldens_embedded_sample():
    x = L.parse(golden.ORDERED_EMBED)
    found = {(b.start, b.length) for b in M.ordered_blocks(x)}
    for blk in golden.ORDERED_BLOCKS_EMBED:
        assert blk in found


def test_ordered_block_empty_goldens():
    assert M.ordered_blocks(L.parse(golden.ORDERED_EMPTY)) == []
    assert M.ordered_blocks(L.parse("0" * 11)) == []
    assert M.ordered_blocks(L.parse("1" * 11)) == []


def test_ordered_block_maximality_flags():
    x = L.parse(golden.ORDERED_CONFIG_A)
    by_key = {(b.start, b.length): b for b in M.ordered_blocks(x)}
    assert by_key[(28, 20)].maximal
    assert not by_key[(28, 6)].maximal  # proper prefix of the long block


def test_ordered_blocks_may_wrap_and_revisit_one_cell():
    # 0111110 wraps into pairs 01 11 11 00, revisiting cell 0: length n+1.
    x = L.parse("0111110")
    blocks = {(b.start, b.length) for b in M.ordered_blocks(x)}
    assert (0, 6) in blocks
    assert (0, 8) in blocks
    assert max(b.length for b in M.ordered_blocks(x)) == len(x) + 1


@pytest.mark.parametrize("n", [
    *range(1, 14, 2),
    pytest.param(15, marks=pytest.mark.skipif(EXTENDED < 1, reason="set PARITYCA_EXTENDED=1")),
])
def test_ordered_blocks_match_the_candidate_scan_exhaustively(n):
    for bits in range(1 << n):
        x = L.Configuration(n, bits)
        blocks = [(b.start, b.length, b.maximal) for b in M.ordered_blocks(x)]
        assert blocks == golden.ordered_blocks_scan(x)


def test_ordered_blocks_match_the_candidate_scan_on_wide_rings():
    # Rings of aligned 00, 01 and 11 pairs hold long blocks that cover each
    # other; uniform random rings hold short ones. With rare 10 pairs, many
    # starts share one stretch between two 10s, and only the first start's
    # longest block is maximal.
    rng = random.Random(63)
    rings = []
    for n in range(63, 102, 2):
        pairs = "".join(rng.choice(("00", "01", "01", "11")) for _ in range(n // 2))
        rings += [pairs + rng.choice("01"), str(L.Configuration(n, rng.getrandbits(n)))]
    for n in range(21, 102, 4):
        rings += [
            "".join(rng.choices(("01", "00", "11", "10"), weights=(5, 3, 3, 1), k=n // 2))
            + rng.choice("01")
            for _ in range(3)
        ]
    for text in rings:
        x = L.parse(text)
        blocks = [(b.start, b.length, b.maximal) for b in M.ordered_blocks(x)]
        assert blocks == golden.ordered_blocks_scan(x)


@pytest.mark.parametrize("k", [2, 3, 500, 10000])
def test_ordered_blocks_on_alternating_rings(k):
    # "01" * k + "0": one block from each even cell s <= n - 3 through the
    # 00 pair at the seam, of n + 1 - s cells; only the one from 0 is maximal.
    x = L.parse("01" * k + "0")
    n = len(x)
    assert M.ordered_blocks(x) == [
        M.OrderedBlock(start=s, length=n + 1 - s, maximal=s == 0) for s in range(0, n - 2, 2)
    ]


def test_report_json_on_a_1001_cell_ring():
    # One 01 start at every even cell; each runs through the 00 pair that
    # wraps at cell 1000 and stops at the 10 after it. Only the block
    # from cell 0, n + 1 cells long, is covered by no other.
    x = L.parse("01" * 500 + "0")
    doc = M.report_json(x)
    assert doc["config"] == str(x)
    assert doc["ordered_blocks"] == [
        {"start": 2 * k, "length": 1002 - 2 * k, "maximal": k == 0} for k in range(500)
    ]
    assert doc["s"] == len(doc["switches"]) > 0


@given(odd_configs)
@settings(max_examples=100)
def test_ordered_block_conditions_hold_on_every_hit(x):
    for blk in M.ordered_blocks(x):
        assert blk.length % 2 == 0 and 4 <= blk.length <= x.n + 1
        pairs = [
            (x.cell(blk.start + 2 * m), x.cell(blk.start + 2 * m + 1))
            for m in range(blk.length // 2)
        ]
        assert all(p in {(0, 0), (0, 1), (1, 1)} for p in pairs)
        assert pairs[0] == (0, 1) and pairs[-1] != (0, 1)
        if pairs[-1] == (1, 1):
            assert x.cell(blk.start + blk.length) == 0


@given(odd_configs)
@settings(max_examples=150)
def test_switch_report_structure(x):
    report = M.switches(x)
    box_cells = set()
    for b in report.boxes:
        box_cells |= {b, (b + 1) % x.n}
    for sw in report.switches:
        if sw.kind == "b":
            assert (sw.pos + 1) % x.n in report.boxes
        else:
            assert x.cell(sw.pos) != x.cell(sw.pos + 1)
            assert sw.pos not in box_cells and (sw.pos + 1) % x.n not in box_cells


def test_annotate_sample():
    text = M.annotate(L.parse(golden.SAMPLE19_ROWS[0]))
    marks, cells = text.split("\n")
    assert cells == golden.SAMPLE19_ROWS[0]
    assert "".join(marks.split()) == "12345678"
    # no boxes here, so switch k at gap p puts its digit at column p + 1
    positions = [sw.pos for sw in M.switches(L.parse(golden.SAMPLE19_ROWS[0])).switches]
    for digit, pos in enumerate(positions, start=1):
        assert marks[pos + 1] == str(digit)


def test_annotate_brackets_boxes():
    text = M.annotate(L.parse("111010101000111"))
    marks, cells = text.split("\n")
    assert cells == "1110101[01]000111"
    assert "".join(marks.split()) == "123456"
    assert marks[7] == "5" and cells[7] == "["  # block switch sits at its box


def test_annotate_homogeneous_is_bare():
    assert M.annotate(L.parse("00000")) == "00000"


def test_report_json_shape():
    doc = M.report_json(L.parse(golden.SAMPLE19_ROWS[0]))
    assert doc["s"] == 8
    assert len(doc["switches"]) == 8
    assert doc["boxes"] == []
    assert {d["kind"] for d in doc["domains"]} <= {kind for kind, _, _ in M.DOMAINS}
    assert all(set(b) == {"start", "length", "maximal"} for b in doc["ordered_blocks"])
