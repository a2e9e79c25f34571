"""Shared golden data for the test suite.

The two trajectory tables and the switch-count sequence are transcribed
from the published reference diagrams for this rule family; the
ordered-block samples come from the published annotated configurations.
``necklace_count`` is the closed-form count the necklace sweeps must hit.
"""
import math

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
