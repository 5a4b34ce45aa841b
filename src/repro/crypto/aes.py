"""AES block cipher (FIPS-197), pure Python.

Supports 128/192/256-bit keys.  The verification protocol uses AES-256 in CTR
mode (paper Section VIII: "AES in CTR mode with random IV was utilized"), and
the secure channel uses AES-CTR inside encrypt-then-MAC.

Encryption is word-oriented: the state is four 32-bit column words and each
full round is sixteen lookups into four 256-entry tables ``Te0..Te3`` that fold
SubBytes, ShiftRows and MixColumns together (the Rijndael proposal's 32-bit
"T-table" form, built once at import from the S-box and ``xtime``).  The last
round, which has no MixColumns, uses the S-box and XORs the final round key as
one 128-bit integer.  Decryption has no hot caller (CTR mode only encrypts), so
it stays the byte-oriented textbook inverse and doubles as an independent check
of the table path in the tests.  Correctness is pinned by the FIPS-197 and
SP 800-38A known-answer vectors.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import KeyError_, ParameterError
from repro.obs.instrument import count_op
from repro.obs.trace import span

__all__ = ["AES"]


def _build_sbox() -> bytes:
    """Construct the AES S-box from the field inverse + affine map."""
    # multiplicative inverse table in GF(2^8) via log/antilog with generator 3
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        b = inv
        res = 0
        for _ in range(5):
            res ^= b
            b = ((b << 1) | (b >> 7)) & 0xFF
        sbox[value] = res ^ 0x63
    return bytes(sbox)


def _invert_sbox(sbox: bytes) -> bytes:
    inverse = bytearray(256)
    for index, value in enumerate(sbox):
        inverse[value] = index
    return bytes(inverse)


_SBOX = _build_sbox()
_INV_SBOX = _invert_sbox(_SBOX)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(b: int) -> int:
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _build_te_tables() -> Tuple[Tuple[int, ...], ...]:
    """``Te0..Te3``: one full round's column contribution per state byte.

    ``Te0[x]`` is the MixColumns column ``(2s, s, s, 3s)`` for ``s = S[x]``,
    packed big-endian; ``Te1..Te3`` are its byte rotations, one per row.
    """
    te0 = []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        te0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    tables = [tuple(te0)]
    for _ in range(3):
        tables.append(tuple(((w >> 8) | (w << 24)) & 0xFFFFFFFF for w in tables[-1]))
    return tuple(tables)


_TE0, _TE1, _TE2, _TE3 = _build_te_tables()


def _sub_word(w: int) -> int:
    return (
        (_SBOX[w >> 24] << 24)
        | (_SBOX[(w >> 16) & 0xFF] << 16)
        | (_SBOX[(w >> 8) & 0xFF] << 8)
        | _SBOX[w & 0xFF]
    )


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiply (used by InvMixColumns)."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a = _xtime(a)
        b >>= 1
    return res


class AES:
    """The AES block cipher with a fixed expanded key.

    Use :meth:`encrypt_block` / :meth:`decrypt_block` on 16-byte blocks; for
    bulk data use the modes in :mod:`repro.crypto.modes`.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise KeyError_(
                f"AES key must be 16/24/32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        with span("aes.key_schedule", key_bits=8 * len(key)):
            count_op("aes_key_schedule")
            self._words = self._expand_key(key)
        self._last_key = int.from_bytes(self._round_key(self.rounds), "big")

    def _expand_key(self, key: bytes) -> Tuple[int, ...]:
        """The key schedule as ``4 * (rounds + 1)`` big-endian 32-bit words."""
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word(((temp << 8) | (temp >> 24)) & 0xFFFFFFFF)  # RotWord
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return tuple(words)

    def _round_key(self, rnd: int) -> bytes:
        """Round ``rnd``'s 16-byte key (column-major, as the state)."""
        return b"".join(w.to_bytes(4, "big") for w in self._words[4 * rnd : 4 * rnd + 4])

    # -- inverse round transforms (state is a flat 16-byte column-major list) --

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        return [
            state[(0) * 4 + 0], state[(3) * 4 + 1], state[(2) * 4 + 2], state[(1) * 4 + 3],
            state[(1) * 4 + 0], state[(0) * 4 + 1], state[(3) * 4 + 2], state[(2) * 4 + 3],
            state[(2) * 4 + 0], state[(1) * 4 + 1], state[(0) * 4 + 2], state[(3) * 4 + 3],
            state[(3) * 4 + 0], state[(2) * 4 + 1], state[(1) * 4 + 2], state[(0) * 4 + 3],
        ]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            state[4 * c + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            state[4 * c + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            state[4 * c + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)

    @staticmethod
    def _add_round_key(state: List[int], rk: bytes) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    # -- public block API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        count_op("aes_block")
        te0, te1, te2, te3, sbox = _TE0, _TE1, _TE2, _TE3, _SBOX
        rk = self._words
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for k in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3],
            )
        # last round: SubBytes + ShiftRows, then the final key as one integer
        out = bytes((
            sbox[s0 >> 24], sbox[(s1 >> 16) & 0xFF], sbox[(s2 >> 8) & 0xFF], sbox[s3 & 0xFF],
            sbox[s1 >> 24], sbox[(s2 >> 16) & 0xFF], sbox[(s3 >> 8) & 0xFF], sbox[s0 & 0xFF],
            sbox[s2 >> 24], sbox[(s3 >> 16) & 0xFF], sbox[(s0 >> 8) & 0xFF], sbox[s1 & 0xFF],
            sbox[s3 >> 24], sbox[(s0 >> 16) & 0xFF], sbox[(s1 >> 8) & 0xFF], sbox[s2 & 0xFF],
        ))
        return (int.from_bytes(out, "big") ^ self._last_key).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        count_op("aes_block")
        state = list(block)
        self._add_round_key(state, self._round_key(self.rounds))
        for rnd in range(self.rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_key(rnd))
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_key(0))
        return bytes(state)
