"""Bit-parallel kernels over arrays of packed configurations.

Each uint64 element holds one whole configuration, bit i = cell i, which
lets a single bitwise operation process every cell of every configuration
in the array at once. Every kernel shifts by less than the width, so
all of them work up to n = 63.

``window_gather`` reads eight cells per table lookup, and every table it
reads shares one window: for cells k .. k+7 it starts at cell k - 4, and
the table's size sets its width. Callers pass the rule, never a table.
``batch_step`` reads ``lut64``, which maps each 16-cell window to the
next state of the eight cells at its middle, so a ring of n cells costs
ceil(n / 8) gathers per step. The invariant sweep reads a state's switch
gaps and domain flags the same way, all three in one gather of
``invariant_tables``, a table of three planes over 17-cell windows that
the mask functions (``switch_gaps``, ``domain_masks``, ``merge_mask``)
fill once per rule.

``necklaces`` lists the least rotation of every class in a range of
encodings without building the range. It walks the prenecklace tree,
whose nodes number a small multiple of the necklaces (1.2 M nodes for
the 364,724 necklaces of n = 23 and 4.4 M for the 1,342,184 of n = 25,
whose last level holds only the necklaces), where filtering compares
each of the 2^n encodings with its n - 1 rotations. Below n = 32 the
tree's words and periods are uint32, half the bytes per node of uint64;
the result is uint64 like every other array of packed configurations.
``necklace_mask`` stays as the plain reference oracle for it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import metrics
from .lattice import MAX_N, rotl
from .rule import RuleTable

_U = np.uint64


@lru_cache(maxsize=8)
def lut64(rule: RuleTable) -> np.ndarray:
    """The 65,536-entry table of batch_step, shared and read-only.

    Entry w is the next state of cells 4 .. 11 of the 16-cell window w,
    window cell j at bit j. It is built in two levels: a 4,096-entry
    table for cells 4 .. 7 of each 12-cell window, then two of its
    entries per 16-cell window.
    """
    # rule.outputs has the leftmost of the nine cells at bit 8; nine has it at bit 0.
    codes = np.arange(1 << 9)
    reversed_codes = sum(((codes >> j) & 1) << (8 - j) for j in range(9))
    nine = np.frombuffer(rule.outputs, dtype=np.uint8)[reversed_codes]
    window = np.arange(1 << 12)
    quad = sum(nine[(window >> i) & 0x1FF] << np.uint8(i) for i in range(4))
    window = np.arange(1 << 16)
    table = quad[window & 0xFFF] | (quad[window >> 4] << np.uint8(4))
    table.flags.writeable = False
    return table


def mask_of(n: int) -> np.uint64:
    return _U((1 << n) - 1)


def parity_bits(v: np.ndarray) -> np.ndarray:
    return np.bitwise_count(v) & np.uint8(1)


@lru_cache(maxsize=128)
def _gather_constants(n: int, width: int) -> tuple:
    """The copy product, each group's window start and shift, the window and ring masks."""
    starts = tuple((s, _U(s)) for s in ((k - 4) % n for k in range(0, n, 8)))
    return _U(sum(1 << k for k in range(0, 64, n))), starts, _U((1 << width) - 1), mask_of(n)


def window_gather(table: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Look up eight cells of every packed configuration in c per gather.

    Every table shares one window: byte k / 8 of the little-endian n-bit
    result is ``table`` at the window of log2(``table.shape[-1]``) cells
    that starts at cell k - 4. The leading axes of ``table`` are the
    leading axes of the result. The window is read from the ring repeated
    up to bit 63, which also covers rings narrower than the window; where
    it would run past bit 63, which only happens for rings wider than
    68 - width cells, from a rotation of c.
    """
    width = table.shape[-1].bit_length() - 1
    copies, starts, window, ring = _gather_constants(n, width)
    # One product lays the copies of the ring at bits 0, n, 2n, ...: c is
    # below 2^n, so the copies never overlap, no partial product carries,
    # and the sum equals the OR of the shifts modulo 2^64.
    ext = np.asarray(c, dtype=_U) * copies
    # The uint64 passes write into buf or out: where malloc maps each fresh
    # temporary, its page faults cost more than the gathers.
    buf = np.empty_like(ext)
    # little-endian: byte g is cells 8g .. 8g+7; the ring mask clears the rest
    out = np.empty(table.shape[:-1] + ext.shape, dtype="<u8")
    out_bytes = out.view(np.uint8).reshape(out.shape + (8,))
    for group, (start, shift) in enumerate(starts):
        if start + width <= 64:
            np.right_shift(ext, shift, out=buf)
        else:
            buf[...] = rotl(c, start, n)
        buf &= window
        out_bytes[..., group] = table.take(buf.view(np.int64), axis=-1)
    out &= ring
    return out


def batch_step(rule: RuleTable, c: np.ndarray, n: int) -> np.ndarray:
    """Apply the rule once to every packed configuration in c.

    Reads ``lut64(rule)``: cells k .. k+7 come from the 16-cell window
    that starts at cell k - 4.
    """
    return window_gather(lut64(rule), c, n)


def _match(cells: list[np.ndarray], pattern: str) -> np.ndarray:
    """AND over j of cells[j], complemented where pattern[j] is '0'."""
    m = np.full_like(cells[0], ~_U(0))
    for r, ch in zip(cells, pattern):
        m &= r if ch == "1" else ~r
    return m


def match_mask(c: np.ndarray, n: int, pattern: str, offset: int = 0) -> np.ndarray:
    """bit p set iff the '0'/'1' pattern occurs starting at cell p + offset."""
    cells = [rotl(c, offset + j, n) for j in range(len(pattern))]
    return _match(cells, pattern) & mask_of(n)


def switch_gaps(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """bit i set iff gap i is a switch, plus the box start mask.

    A gap is a regular switch or a block switch (a box, 01 after 1 and
    before 00, starts at i + 1); no gap is both, since a regular switch
    keeps clear of box cells.
    """
    box = match_mask(c, n, metrics.BOX, offset=-1)
    box_cells = box | rotl(box, -1, n)
    diff = c ^ rotl(c, 1, n)
    regular = diff & ~box_cells & ~rotl(box_cells, 1, n)
    return (regular | rotl(box, 1, n)) & mask_of(n), box


def switch_counts(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Total switch count per configuration, plus the box start mask."""
    gaps, box = switch_gaps(c, n)
    return np.bitwise_count(gaps).astype(np.int64), box


def domain_masks(c: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Start-position masks for every kind of ``metrics.DOMAINS``."""
    cells = [rotl(c, k, n) for k in range(metrics.DOMAIN_REACH)]
    mask = mask_of(n)
    out: dict[str, np.ndarray] = {}
    for kind, pattern, unless in metrics.DOMAINS:
        m = _match(cells, pattern)
        if unless:
            m &= ~_match(cells, unless)
        out[kind] = m & mask
    return out


def merge_mask(c: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Sites where the update joins two blocks of 1s (y must be the step of c)."""
    sites = np.zeros_like(c)
    for pattern in metrics.MERGE_SITES:
        sites |= match_mask(c, n, pattern)
    return sites & rotl(y, metrics.MERGE_BRIDGE, n)


@lru_cache(maxsize=8)
def invariant_tables(rule: RuleTable) -> np.ndarray:
    """The (3, 2^17) table of the invariant sweep, shared and read-only.

    Its planes are the mask functions above evaluated on every 17-cell
    window, taken as a ring of its own, at positions where no pattern
    wraps. For the window that starts at cell k - 4, plane 0 flags the
    gaps k .. k+7 that are switches (gap i needs cells i-2 .. i+4).
    Plane 1 flags where a reducing domain or a merge starts, and plane 2
    where a D78b domain starts; both read the unstepped configuration,
    and a flag at p needs cells p .. p+9, because a merge reads the
    stepped cell p + 5. So these two planes can only flag cells
    k-4 .. k+3, and their ``window_gather`` is the mask rotated by four
    cells, ``rotl(mask, -4, n)``; the sweep only tests it for zero.
    Filled in 16 blocks of 2^13 windows: a 2.8 MB build peak, not 24 MB.
    """
    table = np.empty((3, 1 << 17), dtype=np.uint8)
    for lo in range(0, 1 << 17, 1 << 13):
        windows = np.arange(lo, lo + (1 << 13), dtype=_U)
        doms = domain_masks(windows, 17)
        # Stepped by the kernel itself, so that batch_step is only called by sweeps.
        drop = merge_mask(windows, window_gather(lut64(rule), windows, 17), 17)
        for kind in metrics.REDUCING_KINDS:
            drop |= doms[kind]
        planes = (switch_gaps(windows, 17)[0] >> _U(4), drop, doms["D78b"])
        table[:, lo:lo + windows.size] = np.stack(planes)
    table.flags.writeable = False
    return table


def ordered_block_length_masks(
    c: np.ndarray, n: int, max_length: int
) -> dict[int, np.ndarray]:
    """Start masks of ordered blocks, keyed by even length from 4 upward.

    The pair-run mask R_k is the AND of the no-10-pair mask over k aligned
    pairs; the start, end and follow conditions are applied per length.
    """
    mask = mask_of(n)
    pair10 = c & ~rotl(c, 1, n) & mask
    pair01 = ~c & rotl(c, 1, n) & mask
    pair11 = c & rotl(c, 1, n) & mask
    good = ~pair10 & mask
    out: dict[int, np.ndarray] = {}
    run = good
    for half in range(2, max_length // 2 + 1):
        run = run & rotl(good, 2 * (half - 1), n)
        length = 2 * half
        last = 2 * (half - 1)
        m = run & pair01 & ~rotl(pair01, last, n)
        m &= ~(rotl(pair11, last, n) & rotl(c, length, n))
        out[length] = m
    return out


def necklaces(n: int, lo: int, hi: int) -> np.ndarray:
    """The encodings in [lo, hi) that are least in their rotation class.

    Ascending, as uint64. The encoding read from bit n - 1 down is a
    string whose integer order is its lexicographic order, so these are
    the binary necklaces of length n. They are the leaves of the
    Fredricksen-Kessler-Maiorana prenecklace tree (Ruskey, Savage and
    Wang, Generating necklaces, 1992) whose Lyndon period p divides n,
    built here one level at a time. A node at depth t is a word w of t
    bits with the first bit highest; its children append the bit p
    places back, keeping p, and where that bit is 0 also a 1, which
    makes the word a Lyndon word of period t + 1. Nodes whose
    completions all miss [lo, hi) are dropped. That test runs only at the
    depths where a parent can straddle lo or hi: once both are multiples
    of the width a parent spans, every parent left lies inside. The last
    level keeps a child of period p only where p divides n, read from an
    n-entry table, and the children that start a period of n, so it
    holds only the necklaces. A range with no encoding below 2^n gives
    an empty array.

    Each node holds its period as the shift p - 1, so the bit p places
    back is one shift and one AND. Below n = 32 the words and shifts are
    uint32: a word and its bound (w + 1) << r stay at most 2^n, and the
    1.2 M nodes of n = 23 move half the bytes they would as uint64.
    """
    hi = min(hi, 1 << n)
    if lo >= hi:
        return np.zeros(0, dtype=_U)
    # The parents of depth n - 1 - r span 2^(r + 1) encodings, so for r
    # below the lowest set bit of lo | hi none of them straddles a bound.
    aligned = ((lo | hi) & -(lo | hi)).bit_length() - 1
    word = np.uint32 if n < 32 else _U
    divides = np.array([n % p == 0 for p in range(1, n + 1)])
    w = np.zeros(1, dtype=word)
    shift = np.zeros(1, dtype=word)
    for t in range(n):
        r = n - t - 1
        ref = (w >> shift) & 1
        fork = ref == 0
        if r:
            w = np.concatenate((w << 1 | ref, w[fork] << 1 | 1))
            shift = np.concatenate((shift, np.full(np.count_nonzero(fork), t, dtype=word)))
        else:
            keep = divides[shift]
            w = np.concatenate((w[keep] << 1 | ref[keep], w[fork] << 1 | 1))
        if r >= aligned:
            hit = ((w + 1) << r > lo) & (w << r < hi)
            w = w[hit]
            if r:
                shift = shift[hit]
            if w.size == 0:
                break
    w.sort()
    return w.astype(_U)


def necklace_mask(c: np.ndarray, n: int) -> np.ndarray:
    """True where c is the least element of its rotation class.

    The plain reference oracle for ``necklaces``: it compares every
    encoding with each of its rotations. It is kept for the tests, which
    compare the generator with it, and for the benchmark's tracer, which
    wraps it by name.
    """
    keep = np.ones(c.shape, dtype=bool)
    for k in range(1, n):
        keep &= c <= rotl(c, k, n)
    return keep
