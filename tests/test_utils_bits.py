"""Tests for repro.utils.bits."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.utils.bits import (
    bit_length_ceil,
    bytes_to_int,
    int_to_bytes,
    pack_blocks,
    rotl32,
    unpack_blocks,
    xor_bytes,
)


class TestBitLengthCeil:
    def test_single_value_needs_no_bits(self):
        assert bit_length_ceil(1) == 0

    def test_powers_of_two(self):
        assert bit_length_ceil(2) == 1
        assert bit_length_ceil(4) == 2
        assert bit_length_ceil(1024) == 10

    def test_non_powers(self):
        assert bit_length_ceil(5) == 3
        assert bit_length_ceil(1000) == 10

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            bit_length_ceil(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_count_fits(self, n):
        bits = bit_length_ceil(n)
        assert (1 << bits) >= n
        if bits:
            assert (1 << (bits - 1)) < n


class TestIntBytes:
    def test_zero_encodes_to_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_explicit_length_pads(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            int_to_bytes(-1)

    def test_rejects_overflow(self):
        with pytest.raises(ParameterError):
            int_to_bytes(256, 1)

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n


class TestPackBlocks:
    def test_order_msb_first(self):
        assert pack_blocks([1, 2], 8) == 0x0102

    def test_unpack_inverts(self):
        packed = pack_blocks([5, 0, 255], 8)
        assert unpack_blocks(packed, 8, 3) == [5, 0, 255]

    def test_rejects_oversized_block(self):
        with pytest.raises(ParameterError):
            pack_blocks([256], 8)

    def test_rejects_oversized_packed(self):
        with pytest.raises(ParameterError):
            unpack_blocks(1 << 24, 8, 3)

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=8)
    )
    def test_roundtrip_64bit(self, blocks):
        assert unpack_blocks(pack_blocks(blocks, 64), 64, len(blocks)) == blocks


class TestRotXor:
    def test_rotl32_wraps(self):
        assert rotl32(0x80000000, 1) == 1

    def test_xor_bytes(self):
        assert xor_bytes(b"\xff\x00", b"\x0f\x0f") == b"\xf0\x0f"

    def test_xor_length_mismatch(self):
        with pytest.raises(ParameterError):
            xor_bytes(b"ab", b"a")
        with pytest.raises(ParameterError):
            xor_bytes(b"", b"a")

    def test_xor_empty(self):
        assert xor_bytes(b"", b"") == b""

    def test_xor_keeps_leading_zero_bytes(self):
        assert xor_bytes(b"\x00\x00\x01", b"\x00\x00\x01") == b"\x00\x00\x00"

    @given(
        st.binary(max_size=64).flatmap(
            lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))
        )
    )
    def test_xor_matches_bytewise(self, pair):
        a, b = pair
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
