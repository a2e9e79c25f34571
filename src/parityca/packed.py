"""Bit-parallel kernels over arrays of packed configurations.

Each uint64 element holds one whole configuration, bit i = cell i, which
lets a single bitwise operation process every cell of every configuration
in the array at once. Every kernel shifts by less than the width, so
all of them work up to n = 63, wide enough for concatenation lifts.

``batch_step`` updates eight cells per table lookup: ``lut64`` maps each
16-cell window to the next state of the eight cells at its middle, so a
ring of n cells costs ceil(n / 8) gathers per step.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import metrics
from .rule import RuleTable

# The widest ring one uint64 holds for batch_step.
MAX_N = 63

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


def rotl(v: np.ndarray, k: int, n: int) -> np.ndarray:
    """bit i of the result = bit (i + k) mod n of v.

    The left shift may carry bits past position 63; uint64 arithmetic
    drops them and they are all above the n-bit mask anyway.
    """
    k %= n
    if k == 0:
        return v
    return ((v >> _U(k)) | (v << _U(n - k))) & mask_of(n)


def parity_bits(v: np.ndarray) -> np.ndarray:
    return np.bitwise_count(v) & np.uint8(1)


def batch_step(lut: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Apply the rule once to every packed configuration in c.

    ``lut`` is ``lut64(rule)``. Cells k .. k+7 come from one gather at
    the window that starts at cell k - 4, and fill byte k / 8 of the
    result. The window is read from the ring repeated up to bit 63,
    which also covers rings narrower than the window; where it would
    run past bit 63 (some groups for n > 52), from a rotation of c.
    """
    ext = c
    width = n
    while width < 64:
        ext = ext | (ext << _U(width))
        width *= 2
    out = np.zeros(c.shape, dtype="<u8")  # little-endian: byte g is cells 8g .. 8g+7
    out_bytes = out.view(np.uint8).reshape(-1, 8)
    for group, k in enumerate(range(0, n, 8)):
        start = (k - 4) % n
        if start + 16 <= 64:
            window = ext >> _U(start)
        else:
            window = rotl(c, start, n)
        out_bytes[:, group] = lut[(window & _U(0xFFFF)).astype(np.intp)]
    return out & mask_of(n)


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


def box_mask(c: np.ndarray, n: int) -> np.ndarray:
    """bit i set iff cells (i, i+1) form a box (01 after 1, before 00)."""
    return match_mask(c, n, metrics.BOX, offset=-1)


def switch_counts(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Total switch count per configuration, plus the box start mask."""
    mask = mask_of(n)
    box = box_mask(c, n)
    box_cells = box | rotl(box, -1, n)
    diff = (c ^ rotl(c, 1, n)) & mask
    regular = diff & ~box_cells & ~rotl(box_cells, 1, n)
    s = np.bitwise_count(regular).astype(np.int64) + np.bitwise_count(box).astype(np.int64)
    return s, box


def domain_masks(c: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Start-position masks for every kind of ``metrics.DOMAINS``."""
    width = max(len(unless or pattern) for _, pattern, unless in metrics.DOMAINS)
    cells = [rotl(c, k, n) for k in range(width)]
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
    return sites & rotl(y, 5, n)


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


def necklace_mask(c: np.ndarray, n: int) -> np.ndarray:
    """True where c is the least element of its rotation class."""
    keep = np.ones(c.shape, dtype=bool)
    for k in range(1, n):
        keep &= c <= rotl(c, k, n)
    return keep
