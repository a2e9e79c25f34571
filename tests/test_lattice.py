import random

import pytest
from hypothesis import given, strategies as st

from parityca import lattice as L
from golden import EvenPower, concat_power


odd_configs = st.integers(min_value=0, max_value=14).flatmap(
    lambda half: st.integers(min_value=0, max_value=(1 << (2 * half + 1)) - 1).map(
        lambda bits: L.Configuration(2 * half + 1, bits)
    )
)


def test_parse_golden():
    x = L.parse("0001110101001")
    assert len(x) == 13
    assert str(x) == "0001110101001"
    assert [x.cell(i) for i in range(5)] == [0, 0, 0, 1, 1]


def test_parse_single_cell():
    assert str(L.parse("1")) == "1"
    assert len(L.parse("1")) == 1


def test_parse_rejects_bad_input():
    with pytest.raises(L.EvenLength):
        L.parse("01")
    with pytest.raises(L.EmptyConfiguration):
        L.parse("")
    with pytest.raises(L.InvalidCharacter, match="'x' at index 4"):
        L.parse("0101x01")
    with pytest.raises(L.InvalidCharacter, match="'x' at index 1000$"):
        L.parse("0" * 1000 + "x")


def test_parity_examples():
    assert L.parity(L.parse("0001110101001")) == 0
    assert L.parity(L.parse("0000010111001011111")) == 0
    assert L.parity(L.parse("111")) == 1


def test_is_homogeneous():
    assert L.is_homogeneous(L.parse("00000"))
    assert L.is_homogeneous(L.parse("11111"))
    assert not L.is_homogeneous(L.parse("0001110101001"))


def test_rotate_examples():
    assert str(L.rotate(L.parse("00111"), 2)) == "11100"
    x = L.parse("0001110101001")
    assert L.rotate(x, len(x)) == x
    # index-arithmetic oracle: rotation by one is a one-character shift
    s = "0001110101001"
    assert str(L.rotate(x, 1)) == s[1:] + s[:1] == "0011101010010"


def test_concat_power_examples():
    assert str(concat_power(L.parse("101"), 3)) == "101101101"
    x = L.parse("10100")
    assert concat_power(x, 1) == x
    with pytest.raises(EvenPower):
        concat_power(x, 2)
    with pytest.raises(EvenPower):
        concat_power(x, 0)


def test_cell_indexing_is_modular():
    x = L.parse("011")
    assert x.cell(3) == x.cell(0) == 0
    assert x.cell(-1) == x.cell(2) == 1


@given(odd_configs, st.integers(-40, 40))
def test_rotation_preserves_parity(x, k):
    assert L.parity(L.rotate(x, k)) == L.parity(x)


@given(odd_configs, st.integers(-20, 20), st.integers(-20, 20))
def test_rotations_compose(x, a, b):
    assert L.rotate(L.rotate(x, a), b) == L.rotate(x, a + b)


@given(odd_configs, st.sampled_from([1, 3, 5]))
def test_concat_power_preserves_parity(x, k):
    assert L.parity(concat_power(x, k)) == L.parity(x)


@given(odd_configs)
def test_text_roundtrip(x):
    assert L.parse(str(x)) == x


@given(st.integers(0, 12), st.data())
def test_parse_then_render_is_identity(half, data):
    n = 2 * half + 1
    text = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    assert str(L.parse(text)) == text


@pytest.mark.parametrize("n", [*range(1, 64, 2), 1001])
def test_text_is_the_cell_by_cell_join(n):
    rng = random.Random(n)
    for bits in (0, (1 << n) - 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(20))):
        x = L.Configuration(n, bits)
        text = str(x)
        assert text == "".join(str(x.cell(i)) for i in range(n))
        assert L.parse(text) == x
