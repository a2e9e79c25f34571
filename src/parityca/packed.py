"""Bit-parallel kernels over arrays of packed configurations.

Each uint64 element holds one whole configuration, bit i = cell i, which
lets a single bitwise operation process every cell of every configuration
in the array at once. Every kernel shifts by less than the width, so
all of them work up to n = 63, wide enough for concatenation lifts.
"""
from __future__ import annotations

import numpy as np

from . import metrics
from .rule import RuleTable

# The widest ring one uint64 holds for batch_step.
MAX_N = 63

_U = np.uint64
_ONE = _U(1)
_WINDOW = _U(0x1FF)


def lut64(rule: RuleTable) -> np.ndarray:
    return np.frombuffer(rule.outputs, dtype=np.uint8).astype(np.uint64)


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

    The nine-bit window code slides one cell per iteration: shift in the
    next cell, mask to nine bits, gather the outputs.
    """
    code = np.zeros_like(c)
    for j in range(-4, 5):
        code = (code << _ONE) | ((c >> _U(j % n)) & _ONE)
    out = lut[code]
    for i in range(1, n):
        code = ((code << _ONE) & _WINDOW) | ((c >> _U((i + 4) % n)) & _ONE)
        out |= lut[code] << _U(i)
    return out


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
