"""Structural metrics: boxes, switches, domains, merges, ordered blocks.

All scanners treat the configuration as a ring and report every match,
including overlapping ones. Positions are cell indices except for
switches, whose position i names the gap between cells i and i+1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import Configuration, rotl

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

# The most cells any row of ``DOMAINS`` reads from its start.
DOMAIN_REACH = max(len(pattern) for _, *row in DOMAINS for pattern in row)

# Domains that strictly lower the switch count in one step (plus merges).
REDUCING_KINDS = frozenset({"D56r", "D78r", "D910r", "D912r"})

# Domains whose 00 pair flips to 11, so that two blocks of 1s may merge,
# and their patterns, the update sites that ``merge_events`` reads.
MERGE_KINDS = frozenset({"D12", "D34"})
MERGE_SITES = tuple(pattern for kind, pattern, _ in DOMAINS if kind in MERGE_KINDS)
# The cell just after a merge site, whose image decides whether blocks merge.
(MERGE_BRIDGE,) = {len(pattern) for pattern in MERGE_SITES}


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


def _repeat(x: Configuration, copies: int) -> int:
    """The ring as one integer of ``copies`` copies: cell i + j*n is bit i + j*n."""
    return x.bits * (((1 << (x.n * copies)) - 1) // ((1 << x.n) - 1))


def _pattern_mask(ring: int, cells: tuple[tuple[int, bool], ...], within: int) -> int:
    """The set bits p of ``within`` where bit p + k of ``ring`` is 1 iff cell k is."""
    rings = (~ring, ring)
    for k, one in cells:
        within &= rings[one] >> k
    return within


def _cells(pattern: str) -> tuple[tuple[int, bool], ...]:
    """(k, whether cell k is 1) for each cell of a '0'/'1' pattern: ``_pattern_mask``'s form."""
    return tuple((k, cell == "1") for k, cell in enumerate(pattern))


_BOX_CELLS = _cells(BOX)
_MERGE_SITE_CELLS = tuple(_cells(pattern) for pattern in MERGE_SITES)


def _switch_gaps(x: Configuration) -> tuple[int, int]:
    """The regular and the block switch gaps of x, as two n-bit masks.

    Bit i names the gap between cells i and i+1. A block switch at i
    marks a box starting at i+1, so the block gaps are the starts of
    ``BOX``. A regular switch at i requires differing cells with neither
    of them belonging to a box pair, that is no block switch at i, i-1
    or i-2; so no gap is both. The ring is read as one integer of enough
    copies that cell i+k, for 0 <= k <= 4, is bit i+k.
    """
    n = x.n
    mask = (1 << n) - 1
    ring = _repeat(x, 4 // n + 2)
    block = _pattern_mask(ring, _BOX_CELLS, mask)
    near = block | (block << 1) | (block << 2)
    regular = (x.bits ^ (ring >> 1)) & ~(near | (near >> n)) & mask
    return regular, block


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    found = []
    while mask:
        low = mask & -mask
        mask ^= low
        found.append(low.bit_length() - 1)
    return found


def switch_count(x: Configuration) -> int:
    """s, the number of switches: the popcount of the ``switches`` gaps."""
    regular, block = _switch_gaps(x)
    return (regular | block).bit_count()


def switches(x: Configuration) -> SwitchReport:
    """Classify every gap of the ring as a regular switch, block switch or neither.

    The gaps are those of ``_switch_gaps``, in order of position. s is
    the total count; s = 0 exactly on homogeneous rings. The boxes, at
    the positions i where cells (i, i+1) read 01 after 1 and before 00,
    lie one cell past their block switches.
    """
    regular, block = _switch_gaps(x)
    found = [Switch(i, "b" if block >> i & 1 else "r") for i in _set_bits(regular | block)]
    boxes = _set_bits(rotl(block, -1, x.n))
    return SwitchReport(switches=tuple(found), boxes=tuple(boxes), s=len(found))


def _domain_hits(x: Configuration, first_only: bool = False):
    """(kind, p) of every hit of every row of ``DOMAINS``, row by row.

    The ring is built once, with the text repeated until every row can
    be read in full from each start p < n; a hit is dropped where its
    ``unless`` pattern also starts. With ``first_only`` each row stops
    at its first hit.
    """
    text = str(x)
    n = len(text)
    ring = text * ((DOMAIN_REACH - 1) // n + 2)
    for kind, pattern, unless in DOMAINS:
        end = n + len(pattern) - 1
        p = ring.find(pattern, 0, end)
        while p >= 0:
            if not (unless and ring.startswith(unless, p)):
                yield kind, p
                if first_only:
                    break
            p = ring.find(pattern, p + 1, end)


def find_domains(x: Configuration) -> list[DomainHit]:
    """Every hit of every kind in ``DOMAINS``, in order of position.

    Overlapping hits of different kinds are all reported.
    """
    hits = [DomainHit(kind, p) for kind, p in _domain_hits(x)]
    return sorted(hits, key=lambda hit: hit.pos)


def domain_kinds(x: Configuration) -> set[str]:
    """The kinds of ``find_domains(x)``, each row scanned to its first hit."""
    return {kind for kind, _ in _domain_hits(x, first_only=True)}


def merge_events(x: Configuration, y: Configuration) -> int:
    """Count update sites where two blocks of 1s merge; y is the image of x.

    A site is a D12 or D34 occurrence (``MERGE_SITES``); its 00 pair
    flips to 11, and the blocks merge precisely when the cell just after
    the site still holds 1 in the image, so the image cell is what gets
    tested: each site's starts are read as one mask over the ring as an
    integer, within y rotated so that bit p holds cell p + ``MERGE_BRIDGE``.
    """
    ring = _repeat(x, 3 // x.n + 2)
    bridge = rotl(y.bits, MERGE_BRIDGE, x.n)
    count = 0
    for cells in _MERGE_SITE_CELLS:
        count += _pattern_mask(ring, cells, bridge).bit_count()
    return count


def ordered_blocks(x: Configuration) -> list[OrderedBlock]:
    """Every ordered block, flagged with maximality, by start then length.

    An ordered block is an even run of aligned pairs from {00, 01, 11}
    that starts with 01, does not end with 01, and whose trailing 11 (if
    any) is followed by 0. Blocks may wrap and revisit one cell, so
    lengths up to n+1 occur; a longer block is provably impossible and
    raises, a cheap structural self-check.

    Since n is odd, the aligned pairs from one 10 pair, read as the ring
    twice over, run once through every cell. They are walked backwards
    with the ends met since the last 10: each 01 start reaches exactly
    those. A start reaches every end of each later start before the next
    10, so the longest block of the first start after a 10 covers every
    block up to the next 10 and is the only maximal one among them; no
    block covers another at an odd offset.
    """
    n = x.n
    text = str(x)
    p = (text + text[0]).find("10")
    if p < 0:
        return []
    # Cell p + k of the ring is line[k]; the pair at k = 0 is the 10.
    line = (text * 3)[p:p + 2 * n + 1]
    found = {}
    maximal = set()
    ends: list[int] = []
    first = None  # (start, longest length) of the latest start met in this stretch
    for k in range(2 * n - 2, -1, -2):
        pair = line[k:k + 2]
        if pair == "10":
            if first:
                maximal.add(first)
            ends, first = [], None
        elif pair == "01":
            if ends:
                if ends[0] - k > n + 1:
                    raise RuntimeError(
                        f"ordered block of length {ends[0] - k} exceeds the {n + 1} bound"
                    )
                first = (p + k) % n, ends[0] - k
                found[first[0]] = [end - k for end in reversed(ends)]
        elif pair == "00" or line[k + 2] == "0":  # 00, or 11 followed by 0
            ends.append(k + 2)
    return [
        OrderedBlock(start=start, length=length, maximal=(start, length) in maximal)
        for start, lengths in sorted(found.items())
        for length in lengths
    ]


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
        "switches": [dict(vars(sw)) for sw in report.switches],
        "boxes": list(report.boxes),
        "domains": [dict(vars(h)) for h in find_domains(x)],
        "ordered_blocks": [dict(vars(b)) for b in ordered_blocks(x)],
    }
