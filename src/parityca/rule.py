"""Rule tables for the radius-4 parity automaton.

The rule is given by its active transitions: nine-cell neighbourhood
patterns whose centre cell flips state on a match. A neighbourhood that
matches no active transition leaves its centre unchanged. Two variants
are provided: ``corrected``, which drives every odd cyclic configuration
to the homogeneous state of its parity, and ``original``, the historical
faulty variant whose two local-shift transitions are mirror-reflected
and which cycles forever on some inputs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

CORRECTED = "corrected"
ORIGINAL = "original"
VARIANTS = (CORRECTED, ORIGINAL)

NEIGHBORHOOD = 9
CENTER = 4
TABLE_SIZE = 1 << NEIGHBORHOOD

# Active transitions of the corrected variant. '0'/'1' are fixed cells,
# '*' is don't-care; index 4 is the centre and must never be '*'.
_CORRECTED_PATTERNS = (
    ("T1", "*11100***"),
    ("T2", "11100****"),
    ("T3", "*00100***"),
    ("T4", "00100****"),
    ("T5", "***0110**"),
    ("T6", "**0110***"),
    ("T7", "*001010**"),
    ("T8", "**001010*"),
    ("T9", "***11101*"),
    ("T10", "111010***"),
    ("T11", "1110111**"),
    ("T12", "**1110110"),
)
_MIRRORED_IN_ORIGINAL = frozenset({"T7", "T8"})


def center_bit(code: int) -> int:
    """The centre cell of a neighbourhood code, whose leftmost cell is its top bit."""
    return (code >> (NEIGHBORHOOD - 1 - CENTER)) & 1


@dataclass(frozen=True)
class ActiveTransition:
    """A neighbourhood pattern that flips the centre cell."""

    id: str
    pattern: str

    def __post_init__(self) -> None:
        if len(self.pattern) != NEIGHBORHOOD:
            raise ValueError(f"{self.id}: pattern must have {NEIGHBORHOOD} symbols")
        if any(ch not in "01*" for ch in self.pattern):
            raise ValueError(f"{self.id}: symbols must be '0', '1' or '*'")
        if self.pattern[CENTER] == "*":
            raise ValueError(f"{self.id}: centre symbol must be fixed")

    def expand(self) -> frozenset[int]:
        """All neighbourhood codes matching the pattern."""
        free = [j for j, ch in enumerate(self.pattern) if ch == "*"]
        base = sum(
            int(ch) << (NEIGHBORHOOD - 1 - j)
            for j, ch in enumerate(self.pattern)
            if ch != "*"
        )
        codes = set()
        for fill in itertools.product((0, 1), repeat=len(free)):
            code = base
            for j, bit in zip(free, fill):
                code |= bit << (NEIGHBORHOOD - 1 - j)
            codes.add(code)
        return frozenset(codes)

    def mirrored(self) -> "ActiveTransition":
        """Left-right reflection; the centre stays at index 4."""
        return ActiveTransition(self.id, self.pattern[::-1])


def transitions(variant: str) -> tuple[ActiveTransition, ...]:
    """The active transitions of a rule variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    out = []
    for label, pattern in _CORRECTED_PATTERNS:
        at = ActiveTransition(label, pattern)
        if variant == ORIGINAL and label in _MIRRORED_IN_ORIGINAL:
            at = at.mirrored()
        out.append(at)
    return tuple(out)


@dataclass(frozen=True)
class RuleTable:
    """Complete 512-entry lookup table, immutable and freely shareable."""

    variant: str
    outputs: bytes

    def __post_init__(self) -> None:
        if len(self.outputs) != TABLE_SIZE:
            raise ValueError(f"table must have {TABLE_SIZE} entries")
        if any(b not in (0, 1) for b in self.outputs):
            raise ValueError("table entries must be 0 or 1")


@lru_cache(maxsize=None)
def build_rule_table(variant: str) -> RuleTable:
    """Expand a variant's active transitions into the full table.

    Every matching neighbourhood flips its centre; everything else is the
    identity. Several transitions may match the same neighbourhood, which
    is consistent because all of them flip.
    """
    ats = transitions(variant)
    flipped = set()
    for at in ats:
        flipped |= at.expand()
    outputs = bytes(
        center_bit(code) ^ (1 if code in flipped else 0) for code in range(TABLE_SIZE)
    )
    return RuleTable(variant=variant, outputs=outputs)


def table_diff(a: RuleTable, b: RuleTable) -> set[int]:
    """Neighbourhood codes on which two tables disagree."""
    return {code for code in range(TABLE_SIZE) if a.outputs[code] != b.outputs[code]}


def wolfram_number(rule: RuleTable) -> str:
    """Decimal rule number in Wolfram lexicographic order.

    Bit k of the number is the output for the neighbourhood with code k,
    so the all-ones neighbourhood contributes the most significant bit and
    the all-zeros neighbourhood the least significant one.
    """
    value = 0
    for code in range(TABLE_SIZE):
        value |= rule.outputs[code] << code
    return str(value)


def table_string(rule: RuleTable) -> str:
    """The 512 outputs as a '0'/'1' string in descending neighbourhood order."""
    return "".join(str(rule.outputs[code]) for code in reversed(range(TABLE_SIZE)))
