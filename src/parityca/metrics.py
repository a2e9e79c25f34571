"""Structural metrics: boxes, switches, domains, merges, ordered blocks.

All scanners treat the configuration as a ring and report every match,
including overlapping ones. Positions are cell indices except for
switches, whose position i names the gap between cells i and i+1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import Configuration

# A box is the pair 01 at p+1, preceded by 1 and followed by 00.
BOX = "10100"

# The domain kinds of the proof, one row each: a hit of ``kind`` at p
# means ``pattern`` occurs at p and ``unless`` (a longer pattern, or "")
# does not. The r/b variants refine a base pattern by what follows it;
# no two rows can match at the same position.
DOMAINS = (
    ("D12", "11100", ""),
    ("D34", "00100", ""),
    ("D56r", "0110", "0110100"),
    ("D56b", "0110100", ""),
    ("D78r", "0010101", ""),
    ("D78b", "0010100", ""),
    ("D910r", "1110101", "111010100"),
    ("D910b", "1110100", ""),
    ("D910rb", "111010100", ""),
    ("D911", "1110111", ""),
    ("D912r", "1110110", "1110110100"),
    ("D912b", "1110110100", ""),
)

# Domains that strictly lower the switch count in one step (plus merges).
REDUCING_KINDS = frozenset({"D56r", "D78r", "D910r", "D912r"})

# Update sites whose 00 pair flips to 11, so that two blocks of 1s may merge.
MERGE_SITES = tuple(pattern for kind, pattern, _ in DOMAINS if kind in ("D12", "D34"))


@dataclass(frozen=True)
class Switch:
    pos: int
    kind: str  # "r" or "b"


@dataclass(frozen=True)
class SwitchReport:
    switches: tuple[Switch, ...]
    boxes: tuple[int, ...]
    s: int


@dataclass(frozen=True)
class DomainHit:
    kind: str
    pos: int


@dataclass(frozen=True)
class OrderedBlock:
    start: int
    length: int
    maximal: bool


def find_pattern(x: Configuration, pattern: str) -> list[int]:
    """Start positions (mod n) where the '0'/'1' pattern occurs."""
    ring = str(x) * (len(pattern) // x.n + 2)
    return [p for p in range(x.n) if ring.startswith(pattern, p)]


def find_boxes(x: Configuration) -> list[int]:
    """Positions i where cells (i, i+1) read 01 preceded by 1 and followed by 00."""
    return [(p + 1) % x.n for p in find_pattern(x, BOX)]


def switches(x: Configuration) -> SwitchReport:
    """Classify every gap of the ring as a regular switch, block switch or neither.

    A block switch at i marks a box starting at i+1. A regular switch at
    i requires differing cells with neither of them belonging to a box
    pair. s is the total count; s = 0 exactly on homogeneous rings.
    """
    n = x.n
    boxes = find_boxes(x)
    box_starts = set(boxes)
    box_cells = set()
    for b in boxes:
        box_cells.add(b)
        box_cells.add((b + 1) % n)
    found = []
    for i in range(n):
        if (i + 1) % n in box_starts:
            found.append(Switch(pos=i, kind="b"))
        elif x.cell(i) != x.cell(i + 1) and i not in box_cells and (i + 1) % n not in box_cells:
            found.append(Switch(pos=i, kind="r"))
    return SwitchReport(switches=tuple(found), boxes=tuple(sorted(boxes)), s=len(found))


def find_domains(x: Configuration) -> list[DomainHit]:
    """Every hit of every kind in ``DOMAINS``, in order of position.

    Overlapping hits of different kinds are all reported.
    """
    hits: list[DomainHit] = []
    for kind, pattern, unless in DOMAINS:
        excluded = set(find_pattern(x, unless)) if unless else set()
        hits.extend(DomainHit(kind, p) for p in find_pattern(x, pattern) if p not in excluded)
    return sorted(hits, key=lambda hit: hit.pos)


def merge_events(x: Configuration, y: Configuration) -> int:
    """Count update sites where two blocks of 1s merge; y is the image of x.

    A site is a D12 or D34 occurrence (``MERGE_SITES``); its 00 pair
    flips to 11, and the blocks merge precisely when the cell just after
    the site still holds 1 in the image, so the image cell is what gets
    tested.
    """
    count = 0
    for pattern in MERGE_SITES:
        for p in find_pattern(x, pattern):
            if y.cell(p + 5):
                count += 1
    return count


def _is_ordered_block(x: Configuration, start: int, length: int) -> bool:
    half = length // 2
    pairs = [(x.cell(start + 2 * m), x.cell(start + 2 * m + 1)) for m in range(half)]
    if any(p == (1, 0) for p in pairs):
        return False
    if pairs[0] != (0, 1) or pairs[-1] == (0, 1):
        return False
    if pairs[-1] == (1, 1) and x.cell(start + length) != 0:
        return False
    return True


def _contains(outer: tuple[int, int], inner: tuple[int, int], n: int) -> bool:
    offset = (inner[0] - outer[0]) % n
    return offset + inner[1] <= outer[1]


def ordered_blocks(x: Configuration) -> list[OrderedBlock]:
    """Every ordered block, flagged with maximality.

    An ordered block is an even run of aligned pairs from {00, 01, 11}
    that starts with 01, does not end with 01, and whose trailing 11 (if
    any) is followed by 0. Blocks may wrap and revisit one cell, so the
    scan covers lengths up to n+1; longer candidates are provably
    impossible and scanning them is a cheap structural self-check.
    """
    n = x.n
    found: list[tuple[int, int]] = []
    for start in range(n):
        if x.cell(start) != 0 or x.cell(start + 1) != 1:
            continue
        for length in range(4, 2 * n - 1, 2):
            if _is_ordered_block(x, start, length):
                if length > n + 1:
                    raise RuntimeError(
                        f"ordered block of length {length} exceeds the {n + 1} bound"
                    )
                found.append((start, length))
    out = []
    for blk in found:
        maximal = not any(
            other[1] > blk[1] and _contains(other, blk, n) for other in found
        )
        out.append(OrderedBlock(start=blk[0], length=blk[1], maximal=maximal))
    return out


def annotate(x: Configuration) -> str:
    """Two-line rendering with numbered switch gaps and bracketed boxes."""
    report = switches(x)
    box_starts = set(report.boxes)
    cells: list[str] = []
    gap_col = {}
    for i in range(x.n):
        if i in box_starts:
            cells.append("[")
        cells.append(str(x.cell(i)))
        if (i - 1) % x.n in box_starts:
            cells.append("]")
        gap_col[i] = len(cells)
    if not report.switches:
        return "".join(cells)
    marks: list[str] = []
    for number, sw in enumerate(report.switches, start=1):
        col = max(gap_col[sw.pos], len(marks))
        marks.extend(" " * (col - len(marks)))
        marks.extend(str(number))
    return "".join(marks).rstrip() + "\n" + "".join(cells)


def report_json(x: Configuration) -> dict:
    report = switches(x)
    return {
        "config": str(x),
        "s": report.s,
        "switches": [{"pos": sw.pos, "kind": sw.kind} for sw in report.switches],
        "boxes": list(report.boxes),
        "domains": [{"kind": h.kind, "pos": h.pos} for h in find_domains(x)],
        "ordered_blocks": [
            {"start": b.start, "length": b.length, "maximal": b.maximal}
            for b in ordered_blocks(x)
        ],
    }
