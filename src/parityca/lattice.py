"""Odd-length cyclic binary configurations with value semantics."""
from __future__ import annotations

from dataclasses import dataclass


class ConfigurationError(ValueError):
    """Base class for malformed configuration input."""


class EmptyConfiguration(ConfigurationError):
    pass


class EvenLength(ConfigurationError):
    """The parity problem is only posed for odd-sized rings."""


class InvalidCharacter(ConfigurationError):
    pass


@dataclass(frozen=True)
class Configuration:
    """A ring of n binary cells, bit-packed with cell i at bit i.

    Cell 0 is the leftmost character of the text form. All index
    arithmetic is modulo n.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n % 2 == 0:
            raise EvenLength(f"length must be odd and positive, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("packed bits out of range for length")

    def cell(self, i: int) -> int:
        return (self.bits >> (i % self.n)) & 1

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def __repr__(self) -> str:
        return f"Configuration({str(self)!r})"


def parse(text: str) -> Configuration:
    """Read a configuration from its compact '0'/'1' form, the inverse of ``str``."""
    if text == "":
        raise EmptyConfiguration("configuration text is empty")
    rest = text.lstrip("01")
    if rest:
        raise InvalidCharacter(
            f"invalid character {rest[0]!r} at index {len(text) - len(rest)}"
        )
    if len(text) % 2 == 0:
        raise EvenLength(f"length must be odd, got {len(text)}")
    return Configuration(n=len(text), bits=int(text[::-1], 2))


def parity(x: Configuration) -> int:
    """XOR of all cells: 0 for an even number of 1s, 1 for odd."""
    return x.bits.bit_count() & 1


def is_homogeneous(x: Configuration) -> bool:
    return x.bits == 0 or x.bits == (1 << x.n) - 1


def rotate(x: Configuration, k: int) -> Configuration:
    """Rotation: cell i of the result is cell (i + k) mod n of x."""
    n = x.n
    k %= n
    if k == 0:
        return x
    mask = (1 << n) - 1
    bits = ((x.bits >> k) | (x.bits << (n - k))) & mask
    return Configuration(n=n, bits=bits)
