"""Shared golden data for the test suite.

The two trajectory tables and the switch-count sequence are transcribed
from the published reference diagrams for this rule family; the
ordered-block samples come from the published annotated configurations.
``necklace_count`` is the closed-form count the necklace sweeps must hit.
The helpers at the end are plain oracles that only the tests need:
the start-by-start pattern scan of a ring, pattern matching of one
neighbourhood code, the active codes of a rule
table, the candidate-by-candidate ordered-block scan, the merge events
counted from a text scan of each merge site, and concatenation powers
of a configuration. The two checks after
them sweep every ring of one size: the rule-independent properties of
rings and of the step kernel, and the step laws that the per-trajectory
reference checker finds on each ring itself, which the sweep's law check
must list. ``classification`` is the sweep's classification recomputed
one ring at a time with ``engine.step``, and
``check_trajectory_invariants_by_reports`` the per-trajectory checker
written from the full switch and domain reports, the plain reference
for the count-only ``check_trajectory_invariants``.
"""
import math

import numpy as np

from parityca import engine, lattice, metrics, packed, rule, verifier

FAULTY = "0001110101001"

# 14 rows, t = 0..13: the corrected rule drives the faulty configuration
# to all zeros.
FAULTY_ROWS_CORRECTED = [
    "0001110101001",
    "1101010001001",
    "0100010001111",
    "0000011101101",
    "0000010000001",
    "1100011100001",
    "1111011111001",
    "1101001111111",
    "0100001111111",
    "0000001111101",
    "0000001110100",
    "0000001010000",
    "0000000110000",
    "0000000000000",
]

# 14 rows, t = 0..13: the original rule shifts the same configuration by
# four cells per step and returns to it at t = 13.
FAULTY_ROWS_ORIGINAL = [
    "0001110101001",
    "1101010010001",
    "0100100011101",
    "1000111010100",
    "1110101001000",
    "1010010001110",
    "0100011101010",
    "0111010100100",
    "0101001000111",
    "0010001110101",
    "0011101010010",
    "1010100100011",
    "1001000111010",
    "0001110101001",
]

# 28 rows, t = 0..27, of the 19-cell sample trajectory.
SAMPLE19_ROWS = [
    "0000010111001011111",
    "1100010111111011111",
    "1111010111101001111",
    "1101000110100001111",
    "0100000000100001111",
    "0000000000111001101",
    "0000000000111110001",
    "1100000000111111101",
    "1111000000111110100",
    "1111110000111010000",
    "1111111100101000000",
    "1111111111011000000",
    "1111111100000000000",
    "1111111111000000000",
    "1111111111110000000",
    "1111111111111100000",
    "1111111111111111000",
    "1111111111111111110",
    "0111111111111111010",
    "0111111111111101000",
    "0111111111110100000",
    "0111111111010000000",
    "0111111101000000000",
    "0111110100000000000",
    "0111010000000000000",
    "0101000000000000000",
    "0011000000000000000",
    "0000000000000000000",
]

SAMPLE19_S_SEQUENCE = [8, 6, 6] + [4] * 9 + [2] * 15 + [0]

# Annotated switch samples: configuration -> (switch count, box positions).
SWITCH_SAMPLES = {
    "111010101000111": (6, [7]),
    "111010010100111": (4, [3, 8]),
    "111011100001111": (4, []),
}

# Ordered-block samples. The first two published samples are the same
# 31-cell configuration with different blocks marked; the fourth was
# printed with an even cell count, so its two marked blocks are
# exercised inside an odd ring with one filler zero removed instead.
ORDERED_CONFIG_A = "1110101010001010010010000110011"
ORDERED_BLOCKS_A = [(28, 20), (19, 6), (28, 6), (16, 4)]  # marked in gray
ORDERED_CONFIG_B = "0" + "011111001101000011110111" + "0101010101010110"
ORDERED_BLOCKS_B = [(1, 24)]
ORDERED_EMBED = "0100" + "111" + "0" * 17 + "1011" + "0100000101011111" + "0"
ORDERED_BLOCKS_EMBED = [(0, 4), (28, 16)]
ORDERED_EMPTY = "00011110011000000111111111111"

# The 155-digit decimal rule number of the corrected table.
CORRECTED_RULE_NUMBER = (
    "12766019579927887748828308653663109277301603915220967933337785052737964273"
    "3523952685217154493686311891"
    "4126592211732878316055036275868139520320981134"
    "1541376"
)


def necklace_count(n):
    """Burnside count of binary necklaces of length n."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            total += phi * (1 << (n // d))
    return total // n


def find_pattern(x, pattern):
    """Start positions p < n, ascending, where the '0'/'1' pattern reads from cell p.

    The ring text is repeated until every start can be read in full.
    """
    n = x.n
    ring = str(x) * (len(pattern) // n + 2)
    return [p for p in range(n) if ring.startswith(pattern, p)]


def matches(transition, code):
    """Whether the neighbourhood ``code`` matches an active transition's pattern."""
    for j, ch in enumerate(transition.pattern):
        cell = (code >> (rule.NEIGHBORHOOD - 1 - j)) & 1
        if ch != "*" and cell != int(ch):
            return False
    return True


def active_neighborhoods(table):
    """Codes whose output differs from the centre bit."""
    return frozenset(
        code for code in range(rule.TABLE_SIZE)
        if table.outputs[code] != rule.center_bit(code)
    )


def is_ordered_block(x, start, length):
    """Whether the aligned pairs of cells start..start+length-1 form an ordered block."""
    half = length // 2
    pairs = [(x.cell(start + 2 * m), x.cell(start + 2 * m + 1)) for m in range(half)]
    if any(p == (1, 0) for p in pairs):
        return False
    if pairs[0] != (0, 1) or pairs[-1] == (0, 1):
        return False
    if pairs[-1] == (1, 1) and x.cell(start + length) != 0:
        return False
    return True


def ordered_blocks_scan(x):
    """(start, length, maximal) of every ordered block, by testing every candidate.

    Each 01 start is tried at every even length from 4 to 2n - 2, and a
    block is maximal when no longer block covers it; a block longer than
    n + 1 raises as in ``metrics.ordered_blocks``.
    """
    n = x.n
    found = []
    for start in range(n):
        if x.cell(start) != 0 or x.cell(start + 1) != 1:
            continue
        for length in range(4, 2 * n - 1, 2):
            if is_ordered_block(x, start, length):
                if length > n + 1:
                    raise RuntimeError(
                        f"ordered block of length {length} exceeds the {n + 1} bound"
                    )
                found.append((start, length))

    def contains(outer, inner):
        return (inner[0] - outer[0]) % n + inner[1] <= outer[1]

    return [
        (start, length, not any(
            other[1] > length and contains(other, (start, length)) for other in found
        ))
        for start, length in found
    ]


class EvenPower(lattice.ConfigurationError):
    """Concatenation powers must be odd to keep the length odd."""


def merge_events_by_text(x, y):
    """``metrics.merge_events`` by scanning the ring text for each merge site.

    Each start p of a ``metrics.MERGE_SITES`` pattern in x counts when y
    holds 1 at cell p + 5, just after the site.
    """
    count = 0
    for pattern in metrics.MERGE_SITES:
        for p in find_pattern(x, pattern):
            if y.cell(p + 5):
                count += 1
    return count


def concat_power(x, k):
    """k copies of x laid around a ring of length k*n, for odd k >= 1."""
    if k < 1 or k % 2 == 0:
        raise EvenPower(f"power must be odd and positive, got {k}")
    bits = 0
    for c in range(k):
        bits |= x.bits << (c * x.n)
    return lattice.Configuration(n=k * x.n, bits=bits)


def check_ring_and_kernel_properties(table, n):
    """Assert four properties on every ring of n <= 21 cells, 2^16 at a time.

    ``batch_step`` commutes with rotation by one cell and steps the triple
    lift of a ring (three copies around 3n cells, one word wide) to the
    triple lift of its step; the switch table counts no switch exactly
    on the homogeneous rings; and no ordered block is longer than n + 1.
    """
    switch = packed.invariant_tables(table)[0]

    def lift(v):
        return v | (v << np.uint64(n)) | (v << np.uint64(2 * n))

    for lo in range(0, 1 << n, 1 << 16):
        c = np.arange(lo, min(lo + (1 << 16), 1 << n), dtype=np.uint64)
        y = packed.batch_step(table, c, n)
        rotated = packed.batch_step(table, packed.rotl(c, 1, n), n)
        assert (rotated == packed.rotl(y, 1, n)).all(), f"n={n}: rotation"
        assert (packed.batch_step(table, lift(c), 3 * n) == lift(y)).all(), f"n={n}: lift"
        homogeneous = (c == 0) | (c == packed.mask_of(n))
        no_switch = np.bitwise_count(packed.window_gather(switch, c, n)) == 0
        assert (no_switch == homogeneous).all(), f"n={n}: switches"
        for length, m in packed.ordered_block_length_masks(c, n, 2 * n - 2).items():
            assert length <= n + 1 or not m.any(), f"n={n}: ordered block of {length}"


def swept_violations(table, n, budget=None):
    """The sorted (invariant, witness, step) of ``verify_size(..., invariants=True)``."""
    report = verifier.verify_size(table, n, budget=budget, invariants=True)
    return sorted((v.invariant, v.witness, v.step) for v in report.violations)


def reference_violations(table, n, rings=None):
    """The sorted (invariant, witness, step) that ``check_trajectory_invariants``
    reports about each ring itself: every ring of n cells, or the
    encodings ``rings``.

    Those are its entries at step 0, and the two-step law at step 1, which
    reads the ring's second step. A budget of 2 steps reaches both, and
    every default budget is at least 4.
    """
    return sorted(
        (v.invariant, v.witness, v.step)
        for bits in (range(1 << n) if rings is None else rings)
        for v in verifier.check_trajectory_invariants(
            table, lattice.Configuration(n, bits), 2
        )
        if v.step == 0 or v.invariant == verifier.TWO_STEP_DECREASE
    )


def classification(table, n, budget=None, rings=None):
    """The classification of every ring of n cells, one ``engine.step`` at a time.

    ``rings``, ascending packed encodings, replaces every ring of n cells.
    A ring finishes at the first t <= budget at which its state is
    homogeneous, or at the first t < budget at which the state equals its
    image; it is correct iff that state is the homogeneous state of its
    parity, and non-converged if it never finishes. Returns checked,
    correct, max_t0 as (steps, witness) over the correct rings, smallest
    witness first, or None, and the wrong and non-converged rings.
    """
    if budget is None:
        budget = engine.default_budget(n)
    if rings is None:
        rings = range(1 << n)
    correct, wrong, nonconv = 0, [], []
    max_t0 = None
    for bits in rings:
        x = cur = lattice.Configuration(n, bits)
        target = lattice.Configuration(n, (1 << n) - 1 if lattice.parity(x) else 0)
        for t in range(budget + 1):
            if lattice.is_homogeneous(cur):
                break
            if t < budget:
                nxt = engine.step(table, cur)
                if nxt == cur:
                    break
                cur = nxt
        else:
            nonconv.append(str(x))
            continue
        if cur != target:
            wrong.append(str(x))
            continue
        correct += 1
        if max_t0 is None or t > max_t0[0]:
            max_t0 = (t, str(x))
    return len(rings), correct, max_t0, wrong, nonconv


def check_trajectory_invariants_by_reports(table, x, budget=None):
    """``verifier.check_trajectory_invariants`` read from whole reports.

    Each state's s is ``len`` of its ``metrics.switches`` and its kinds
    are those of every ``metrics.find_domains`` hit; every law is tested
    on every step.
    """
    budget = engine.default_budget(x.n, budget)
    violations = []
    witness = str(x)

    def flag(invariant, step, detail=""):
        violations.append(
            verifier.Violation(invariant=invariant, witness=witness, step=step, detail=detail)
        )

    start_parity = lattice.parity(x)
    cur = x
    s_cur = len(metrics.switches(cur).switches)
    pending = None
    for t in range(budget):
        if lattice.is_homogeneous(cur):
            break
        nxt = engine.step(table, cur)
        s_next = len(metrics.switches(nxt).switches)
        if lattice.parity(nxt) != start_parity:
            flag(verifier.PARITY_CONSERVED, t, f"{cur} -> {nxt}")
        if s_next > s_cur:
            flag(verifier.SWITCH_MONOTONE, t, f"s {s_cur} -> {s_next}")
        kinds = {h.kind for h in metrics.find_domains(cur)}
        must_drop = (
            bool(kinds & metrics.REDUCING_KINDS) or metrics.merge_events(cur, nxt) > 0
        )
        if must_drop and not s_next < s_cur:
            flag(verifier.SWITCH_STRICT, t, f"s {s_cur} -> {s_next}")
        if pending is not None and not s_next < pending:
            flag(verifier.TWO_STEP_DECREASE, t, f"s stuck at {s_next}")
        pending = s_next if ("D78b" in kinds and not s_next < s_cur) else None
        if nxt == cur:
            flag(verifier.FIXED_POINT, t, f"{cur}")
            break
        cur = nxt
        s_cur = s_next
    return violations
