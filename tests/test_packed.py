"""The numpy kernels must agree with the pure-Python reference everywhere."""
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityca import engine as E
from parityca import lattice as L
from parityca import metrics as M
from parityca import packed as P
from parityca import verifier as V
from parityca.rule import CORRECTED, ORIGINAL, build_rule_table
from golden import check_ring_and_kernel_properties, concat_power, necklace_count

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
    c = all_configs(n)
    stepped = P.batch_step(rule, c, n)
    for value, out in zip(c, stepped):
        assert int(out) == E.step(rule, as_config(n, value)).bits


# Every odd width from 13 up: every window comes from the repeated ring up
# to n = 51, and some from a rotation of the ring from n = 53.
@pytest.mark.parametrize("n", range(13, P.MAX_N + 1, 2))
def test_batch_step_matches_engine_sampled(n):
    c = sample_configs(n, 300, seed=n)
    for rule in (CORR, ORIG):
        stepped = P.batch_step(rule, c, n)
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


def assert_invariant_tables_match_masks(rule, c, n):
    """Each plane's gather equals the mask functions it was built from."""
    switch, drop, d78b = P.window_gather(P.invariant_tables(rule), c, n)
    assert (switch == P.switch_gaps(c, n)[0]).all()
    assert (np.bitwise_count(switch) == P.switch_counts(c, n)[0]).all()
    doms = P.domain_masks(c, n)
    expected = P.merge_mask(c, P.batch_step(rule, c, n), n)
    for kind in M.REDUCING_KINDS:
        expected |= doms[kind]
    # The window of cells k .. k+7 flags the domains that start at k-4 .. k+3.
    assert (drop == P.rotl(expected, -4, n)).all()
    assert (d78b == P.rotl(doms["D78b"], -4, n)).all()


# Below 8 cells one group wraps the ring; below 17 the ring is shorter
# than the window.
@pytest.mark.parametrize("n", range(1, 16, 2))
@pytest.mark.parametrize("rule", [CORR, ORIG], ids=["corrected", "original"])
def test_invariant_tables_match_the_masks_exhaustively(n, rule):
    assert_invariant_tables_match_masks(rule, all_configs(n), n)


# Up to n = 51 every window comes from the repeated ring; from n = 53 some
# come from a rotation of the ring.
@pytest.mark.parametrize("n", (51, 53, 63))
@pytest.mark.parametrize("rule", [CORR, ORIG], ids=["corrected", "original"])
def test_invariant_tables_match_the_masks_around_the_rotation(n, rule):
    assert_invariant_tables_match_masks(rule, sample_configs(n, 512, seed=n), n)


# Odd n from 17 to 63, on both sides of the rotation from n = 53.
@given(st.integers(8, P.MAX_N // 2), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_invariant_tables_match_the_masks_on_wide_rings(half, seed):
    n = 2 * half + 1
    c = sample_configs(n, 64, seed)
    for rule in (CORR, ORIG):
        assert_invariant_tables_match_masks(rule, c, n)


def test_invariant_tables_are_built_once_per_rule_and_read_only():
    assert P.invariant_tables(CORR) is P.invariant_tables(CORR)
    assert P.invariant_tables(ORIG) is not P.invariant_tables(CORR)
    table = P.invariant_tables(CORR)
    assert table.shape == (3, 1 << 17) and table.dtype == np.uint8
    assert not table.flags.writeable


# Every odd n: the repeated ring up to n = 51, a rotation of it from n = 53.
@pytest.mark.parametrize("n", range(1, P.MAX_N + 1, 2))
def test_window_gather_sets_no_bit_above_the_ring(n):
    # The gather fills an uninitialised buffer byte group by byte group and
    # masks it last. All-ones fills every group's byte, and a freed buffer of
    # set bits leaves garbage where the mask must clear it.
    c = np.concatenate((
        np.array([0, (1 << n) - 1], dtype=np.uint64), sample_configs(n, 254, seed=n)
    ))
    for table in (P.lut64(CORR), P.lut64(ORIG), P.invariant_tables(CORR),
                  P.invariant_tables(ORIG)):
        junk = np.full(table.shape[:-1] + c.shape, ~np.uint64(0))
        del junk
        out = P.window_gather(table, c, n)
        assert out.shape == table.shape[:-1] + c.shape
        assert (out >> np.uint64(n) == 0).all(), f"n={n}"


def test_invariant_tables_build_in_row_blocks():
    # Over all 2^17 windows at once, the build's temporaries peaked at 24 MB.
    P.lut64(CORR)
    tracemalloc.start()
    try:
        P.invariant_tables.__wrapped__(CORR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MB"


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
    for kind, _, _ in M.DOMAINS:
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
    c = all_configs(n)
    y = P.batch_step(CORR, c, n)
    merged = P.merge_mask(c, y, n)
    for value, sites in zip(c, merged):
        x = as_config(n, value)
        assert int(sites).bit_count() == M.merge_events(x, E.step(CORR, x))


def assert_ordered_blocks_match(c, n):
    by_length = P.ordered_block_length_masks(c, n, n + 1)
    for row, value in enumerate(c):
        expected = {}
        for blk in M.ordered_blocks(as_config(n, value)):
            expected.setdefault(blk.length, []).append(blk.start)
        for length, mask in by_length.items():
            assert mask_positions(mask[row], n) == sorted(expected.get(length, []))


@pytest.mark.parametrize("n", (7, 9, 11, 13))
def test_ordered_block_masks_match_metrics_exhaustively(n):
    assert_ordered_blocks_match(all_configs(n), n)


@pytest.mark.parametrize("n", (51, 63))
def test_ordered_block_masks_match_metrics_sampled(n):
    assert_ordered_blocks_match(sample_configs(n, 300, seed=5 * n), n)


# With the bound, the helper checks three rule-independent properties of
# the step kernel and the switch table, on every odd n up to 19; the
# extended acceptance suite adds n = 21.
@pytest.mark.parametrize("n", range(1, 20, 2))
def test_no_ordered_block_exceeds_the_bound(n):
    for rule in (CORR, ORIG):
        check_ring_and_kernel_properties(rule, n)


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
    for n in range(1, P.MAX_N + 1):
        edges = np.array([0, (1 << n) - 1, 1, 1 << (n - 1)], dtype=np.uint64)
        c = np.concatenate((edges, sample_configs(n, 12, seed=n)))
        cells = (c >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)
        weights = np.uint64(1) << np.arange(n, dtype=np.uint64)[:, None]
        for k in range(-2 * n, 2 * n + 1):
            # bit i of the rotation is cell (i + k) mod n
            expected = (cells[(np.arange(n) + k) % n] * weights).sum(axis=0, dtype=np.uint64)
            assert (P.rotl(c, k, n) == expected).all(), (n, k)


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


def test_necklaces_match_the_oracle_on_aligned_ranges():
    # lo | hi with k trailing zeros tests the bounds only at the depths whose
    # parents span more than 2^k encodings, so every k exercises one split.
    rng = random.Random(16)
    for n in range(1, 16, 2):
        reps = necklace_oracle(n, 0, 1 << n)
        for k in range(n + 1):
            odd = range(1, max(1 << (n - k), 2), 2)
            ranges = [(0, rng.choice(odd) << k)]
            for _ in range(6):
                lo = rng.choice(odd) << k
                ranges.append((lo, lo + (rng.randrange(0, 4) << k)))
            for lo, hi in ranges:
                expected = reps[(reps >= lo) & (reps < hi)]
                assert np.array_equal(P.necklaces(n, lo, hi), expected), (n, lo, hi)


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_necklaces_of_empty_reversed_and_overhanging_ranges(n):
    top, half = 1 << n, 1 << (n - 1)
    empty = [(0, 0), (half, half), (top, top), (1, 0), (top, half), (top - 1, 1),
             (top, top + 5), (top + 3, 2 * top), (2 * top, top)]
    for lo, hi in empty:
        reps = P.necklaces(n, lo, hi)
        assert reps.dtype == np.uint64 and reps.size == 0, (lo, hi)
    for lo, hi in ((0, top + 1), (half, 2 * top), (3, 1 << 62)):
        assert np.array_equal(P.necklaces(n, lo, hi), necklace_oracle(n, lo, top)), (lo, hi)


@pytest.mark.parametrize("n", (23, 25))
def test_necklaces_over_the_sweep_chunks_are_counted_and_in_range(n):
    total = 0
    for lo in V.plan_sweep(n, mode=V.NECKLACE):
        hi = min(lo + V.NECKLACE_CHUNK, 1 << n)
        reps = P.necklaces(n, lo, hi)
        assert reps.dtype == np.uint64
        assert (np.diff(reps.astype(np.int64)) > 0).all()
        assert reps.size == 0 or (int(reps[0]) >= lo and int(reps[-1]) < hi)
        total += reps.size
    assert total == necklace_count(n)


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
    lifted = concat_power(x, 3)
    out = P.batch_step(CORR, np.array([lifted.bits], dtype=np.uint64), lifted.n)
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
