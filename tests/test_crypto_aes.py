"""AES known-answer (FIPS-197, SP 800-38A) and property tests."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_xcrypt
from repro.errors import KeyError_, ParameterError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

#: SHA-256 over 200 seeded random (key, block) encryptions per key size,
#: computed with the byte-oriented (S-box + xtime MixColumns) forward path
#: that the T-table path replaced.  Any change to a single output bit moves it.
BYTE_ORIENTED_DIGEST = "0c48026619819298dd875ab95ca2701492f2e9e30e923e1cb9bf32aecbc560d6"

#: NIST SP 800-38A Appendix F.5: shared counter block and plaintext.
SP800_38A_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestKnownAnswers:
    """FIPS-197 Appendix C example vectors."""

    def test_aes128(self):
        cipher = AES(bytes(range(16)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        cipher = AES(bytes(range(24)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        cipher = AES(bytes(range(32)))
        ct = cipher.encrypt_block(PLAINTEXT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_aes128_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert AES(key).encrypt_block(pt).hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_byte_identical_to_byte_oriented_path(self):
        rng = random.Random(20140623)
        digest = hashlib.sha256()
        for key_size in (16, 24, 32):
            for _ in range(200):
                key = rng.randbytes(key_size)
                block = rng.randbytes(16)
                digest.update(AES(key).encrypt_block(block))
        assert digest.hexdigest() == BYTE_ORIENTED_DIGEST


class TestCtrKnownAnswers:
    """NIST SP 800-38A F.5.3 / F.5.5 (CTR-AES192 / CTR-AES256 encrypt).

    F.5.1 (CTR-AES128) is pinned in ``test_crypto_extra.py``.
    """

    @pytest.mark.parametrize(
        "key_hex, cipher_hex",
        [
            (
                "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                "1abc932417521ca24f2b0459fe7e6e0b"
                "090339ec0aa6faefd5ccc2c6f4ce8e94"
                "1e36b26bd1ebc670d1bd1d665620abf7"
                "4f78a7f6d29809585a97daec58c6b050",
            ),
            (
                "603deb1015ca71be2b73aef0857d7781"
                "1f352c073b6108d72d9810a30914dff4",
                "601ec313775789a5b7a7f504bbf3d228"
                "f443e3ca4d62b59aca84e990cacaf5c5"
                "2b0930daa23de94ce87017ba2d84988d"
                "dfc9c58db67aada613c2dd08457941a6",
            ),
        ],
        ids=["F.5.3-aes192", "F.5.5-aes256"],
    )
    def test_ctr_vector(self, key_hex, cipher_hex):
        cipher = AES(bytes.fromhex(key_hex))
        ct = ctr_xcrypt(cipher, SP800_38A_COUNTER, SP800_38A_PLAINTEXT)
        assert ct.hex() == cipher_hex


class TestRoundtrip:
    @given(
        st.sampled_from([16, 24, 32]).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_different_keys_different_ciphertexts(self):
        a = AES(b"\x00" * 16).encrypt_block(PLAINTEXT)
        b = AES(b"\x01" + b"\x00" * 15).encrypt_block(PLAINTEXT)
        assert a != b

    def test_rounds_by_key_size(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(KeyError_):
            AES(b"short")

    def test_bad_block_size(self):
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_block(b"tiny")
        with pytest.raises(ParameterError):
            AES(bytes(16)).decrypt_block(b"x" * 17)

    def test_counts_ops(self):
        from repro.obs.instrument import counting

        with counting() as c:
            AES(bytes(16)).encrypt_block(PLAINTEXT)
        assert c.get("aes_block") == 1
