"""The numpy kernels must agree with the pure-Python reference everywhere."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca import packed as P
from parityca.rule import CORRECTED, ORIGINAL, build_rule_table
from golden import necklace_count

CORR = build_rule_table(CORRECTED)
ORIG = build_rule_table(ORIGINAL)

EXHAUSTIVE_SIZES = (1, 3, 5, 7, 9, 11)


def all_configs(n):
    return np.arange(1 << n, dtype=np.uint64)


def sample_configs(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64)


def as_config(n, value):
    return L.Configuration(n, int(value))


@pytest.mark.parametrize("n", EXHAUSTIVE_SIZES)
@pytest.mark.parametrize("rule", [CORR, ORIG], ids=["corrected", "original"])
def test_batch_step_matches_engine_exhaustively(n, rule):
    lut = P.lut64(rule)
    c = all_configs(n)
    stepped = P.batch_step(lut, c, n)
    for value, out in zip(c, stepped):
        assert int(out) == E.step(rule, as_config(n, value)).bits


# Every odd width from 13 up: every window comes from the repeated ring up
# to n = 51, and some from a rotation of the ring from n = 53.
@pytest.mark.parametrize("n", range(13, P.MAX_N + 1, 2))
def test_batch_step_matches_engine_sampled(n):
    c = sample_configs(n, 300, seed=n)
    for rule in (CORR, ORIG):
        stepped = P.batch_step(P.lut64(rule), c, n)
        for value, out in zip(c, stepped):
            assert int(out) == E.step(rule, as_config(n, value)).bits


@pytest.mark.parametrize("rule", [CORR, ORIG], ids=["corrected", "original"])
def test_lut64_entry_is_eight_rule_lookups(rule):
    window = np.arange(1 << 16)
    expected = np.zeros_like(window)
    for i in range(8):
        # rule.outputs reads window cells i .. i+8, the leftmost at bit 8
        code = sum(((window >> (i + j)) & 1) << (8 - j) for j in range(9))
        expected |= np.frombuffer(rule.outputs, dtype=np.uint8)[code].astype(int) << i
    assert (P.lut64(rule) == expected).all()


def test_lut64_is_built_once_per_rule_and_read_only():
    assert P.lut64(CORR) is P.lut64(CORR)
    assert P.lut64(ORIG) is not P.lut64(CORR)
    assert not P.lut64(CORR).flags.writeable


@pytest.mark.parametrize("n", EXHAUSTIVE_SIZES)
def test_switch_counts_match_metrics_exhaustively(n):
    c = all_configs(n)
    s, box = P.switch_counts(c, n)
    for value, count, boxes in zip(c, s, box):
        report = M.switches(as_config(n, value))
        assert int(count) == report.s
        assert sorted(i for i in range(n) if (int(boxes) >> i) & 1) == list(report.boxes)


@pytest.mark.parametrize("n", (13, 19, 29))
def test_switch_counts_match_metrics_sampled(n):
    c = sample_configs(n, 200, seed=100 + n)
    s, _ = P.switch_counts(c, n)
    for value, count in zip(c, s):
        assert int(count) == M.switches(as_config(n, value)).s


def mask_positions(mask_value, n):
    return [i for i in range(n) if (int(mask_value) >> i) & 1]


def assert_domains_match(masks, row, x):
    expected = {}
    for hit in M.find_domains(x):
        expected.setdefault(hit.kind, []).append(hit.pos)
    for kind in M.DOMAIN_KINDS:
        assert mask_positions(masks[kind][row], x.n) == sorted(expected.get(kind, []))


@pytest.mark.parametrize("n", EXHAUSTIVE_SIZES)
def test_domain_masks_match_metrics_exhaustively(n):
    c = all_configs(n)
    masks = P.domain_masks(c, n)
    for row, value in enumerate(c):
        assert_domains_match(masks, row, as_config(n, value))


@pytest.mark.parametrize("n", (13, 19))
def test_domain_masks_match_metrics_sampled(n):
    c = sample_configs(n, 150, seed=7 * n)
    masks = P.domain_masks(c, n)
    for row, value in enumerate(c):
        assert_domains_match(masks, row, as_config(n, value))


@pytest.mark.parametrize("n", EXHAUSTIVE_SIZES)
def test_merge_mask_matches_metrics_exhaustively(n):
    lut = P.lut64(CORR)
    c = all_configs(n)
    y = P.batch_step(lut, c, n)
    merged = P.merge_mask(c, y, n)
    for value, sites in zip(c, merged):
        x = as_config(n, value)
        assert int(sites).bit_count() == M.merge_events(x, E.step(CORR, x))


@pytest.mark.parametrize("n", (7, 9, 11))
def test_ordered_block_masks_match_metrics_exhaustively(n):
    c = all_configs(n)
    by_length = P.ordered_block_length_masks(c, n, n + 1)
    for row, value in enumerate(c):
        expected = {}
        for blk in M.ordered_blocks(as_config(n, value)):
            expected.setdefault(blk.length, []).append(blk.start)
        for length, mask in by_length.items():
            assert mask_positions(mask[row], n) == sorted(expected.get(length, []))


@pytest.mark.parametrize("n", (5, 7, 9, 11, 13))
def test_no_ordered_block_exceeds_the_bound(n):
    c = all_configs(n)
    for length, mask in P.ordered_block_length_masks(c, n, 2 * n - 2).items():
        if length > n + 1:
            assert not mask.any()


@pytest.mark.parametrize("n", (7, 9, 11, 13, 15, 17))
def test_domain_variants_partition_their_base_exhaustively(n):
    c = all_configs(n)
    masks = P.domain_masks(c, n)
    cases = [
        ("0110", ("D56r", "D56b")),
        ("001010", ("D78r", "D78b")),
        ("111010", ("D910r", "D910b", "D910rb")),
        ("1110110", ("D912r", "D912b")),
    ]
    for pattern, kinds in cases:
        base = P.match_mask(c, n, pattern)
        union = np.zeros_like(c)
        for a in kinds:
            union |= masks[a]
            for b in kinds:
                if a < b:
                    assert not (masks[a] & masks[b]).any()
        assert (union == base).all()


def test_rotl_matches_lattice_rotation():
    for n in (3, 7, 13, 29):
        c = sample_configs(n, 50, seed=n)
        for k in (-3, -1, 0, 1, 2, n - 1, n, 17):
            rotated = P.rotl(c, k, n)
            for value, out in zip(c, rotated):
                assert int(out) == L.rotate(as_config(n, value), k).bits


@pytest.mark.parametrize("n", (1, 3, 5, 7, 9, 11, 13))
def test_necklace_mask_picks_minimal_rotations(n):
    c = all_configs(n)
    keep = P.necklace_mask(c, n)
    reps = {int(v) for v in c[keep]}
    assert len(reps) == necklace_count(n)
    for value in reps:
        x = as_config(n, value)
        assert value == min(L.rotate(x, k).bits for k in range(n))
    # every configuration's minimal rotation is a kept representative
    for value in range(1 << n):
        x = as_config(n, value)
        assert min(L.rotate(x, k).bits for k in range(n)) in reps


def necklace_oracle(n, lo, hi):
    c = np.arange(lo, hi, dtype=np.uint64)
    return c[P.necklace_mask(c, n)]


@pytest.mark.parametrize("chunk", (50, 777, 4096, 65536))
@pytest.mark.parametrize("n", range(1, 18, 2))
def test_necklaces_match_the_oracle_on_every_chunk(n, chunk):
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        assert np.array_equal(P.necklaces(n, lo, hi), necklace_oracle(n, lo, hi))


@pytest.mark.parametrize("n", range(1, 18, 2))
def test_necklaces_match_the_oracle_between_edges(n):
    edges = (0, 1 << (n - 1), 1 << n)
    for lo in edges:
        for hi in edges:
            if lo <= hi:
                assert np.array_equal(P.necklaces(n, lo, hi), necklace_oracle(n, lo, hi))


@pytest.mark.parametrize("n", range(1, 22))
def test_necklaces_over_the_full_range_are_counted_and_ascending(n):
    reps = P.necklaces(n, 0, 1 << n)
    assert reps.dtype == np.uint64
    assert reps.size == necklace_count(n)
    assert (np.diff(reps.astype(np.int64)) > 0).all()


# Windows whose start has at least `zeros` leading zero bits: necklaces are
# dense where there are many, and zeros = 0 puts the start anywhere.
@given(st.integers(9, P.MAX_N // 2), st.data())
@settings(max_examples=60, deadline=None)
def test_necklaces_match_the_oracle_on_wide_windows(half, data):
    n = 2 * half + 1
    zeros = data.draw(st.integers(0, n))
    lo = data.draw(st.integers(0, (1 << (n - zeros)) - 1))
    hi = min(lo + data.draw(st.integers(0, 4096)), 1 << n)
    assert np.array_equal(P.necklaces(n, lo, hi), necklace_oracle(n, lo, hi))


def test_parity_bits_match_lattice():
    for n in (5, 13, 29):
        c = sample_configs(n, 100, seed=3 * n)
        bits = P.parity_bits(c)
        for value, bit in zip(c, bits):
            assert int(bit) == L.parity(as_config(n, value))


@given(st.integers(1, 10), st.data())
@settings(max_examples=30)
def test_batch_step_handles_lifted_widths(k_half, data):
    # widths beyond 32 exercise the high-shift path used by lift checks
    n = 2 * k_half + 1
    bits = data.draw(st.integers(0, (1 << n) - 1))
    x = L.Configuration(n, bits)
    lifted = L.concat_power(x, 3)
    lut = P.lut64(CORR)
    out = P.batch_step(lut, np.array([lifted.bits], dtype=np.uint64), lifted.n)
    assert int(out[0]) == E.step(CORR, lifted).bits


# Odd rings from 33 cells up to the kernel width, where the shifts come
# close to 64 bits.
wide_rings = st.integers(16, P.MAX_N // 2).flatmap(
    lambda half: st.integers(0, (1 << (2 * half + 1)) - 1).map(
        lambda bits: L.Configuration(2 * half + 1, bits)
    )
)
WIDE = settings(max_examples=60, deadline=None)


def packed_ring(x):
    return np.array([x.bits], dtype=np.uint64)


@given(wide_rings, st.integers(-70, 70))
@WIDE
def test_rotl_matches_lattice_rotation_on_wide_rings(x, k):
    assert int(P.rotl(packed_ring(x), k, x.n)[0]) == L.rotate(x, k).bits


@given(wide_rings)
@WIDE
def test_switch_counts_match_metrics_on_wide_rings(x):
    s, box = P.switch_counts(packed_ring(x), x.n)
    report = M.switches(x)
    assert int(s[0]) == report.s
    assert mask_positions(box[0], x.n) == list(report.boxes)


@given(wide_rings)
@WIDE
def test_domain_masks_match_metrics_on_wide_rings(x):
    assert_domains_match(P.domain_masks(packed_ring(x), x.n), 0, x)


@given(wide_rings)
@WIDE
def test_merge_mask_matches_metrics_on_wide_rings(x):
    y = E.step(CORR, x)
    sites = P.merge_mask(packed_ring(x), packed_ring(y), x.n)
    assert int(sites[0]).bit_count() == M.merge_events(x, y)
