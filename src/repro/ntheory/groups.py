"""Cyclic groups for the verification protocol.

The paper's profile-verification scheme (Section VI) computes
``ciph_v = E_Kvp(p^{s_v} || h(p^{s_v * ID_v}))`` where ``p`` generates a
cyclic group G in which the computational Diffie-Hellman problem is hard —
"e.g., the subgroup of quadratic residues" (Section VII-B).  We implement
exactly that: the order-q subgroup of Z_p^* for a safe prime p = 2q + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import ParameterError
from repro.ntheory.modular import modexp, modinv
from repro.ntheory.primes import generate_safe_prime, is_probable_prime
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["SchnorrGroup"]

# A fixed 512-bit safe prime (p = 2q+1, q prime) used as the library default
# so tests and examples do not pay safe-prime generation on every run.  It was
# generated once with generate_safe_prime(512) and verified below on import.
_DEFAULT_P = int(
    "92560734779096688489344372028967439030340250327550828799176658862443"
    "99529166056456643493737138893018581641938205298284854450517489568703"
    "466894784450627299"
)


#: Fixed-base comb width: 64-entry rows, one per 6 exponent bits.  For the
#: 512-bit default group that is 86 rows, about 0.56 MB built in ~12 ms.
_COMB_BITS = 6


@lru_cache(maxsize=4)
def _comb_rows(p: int, g: int) -> Tuple[Tuple[int, ...], ...]:
    """Row ``i`` holds ``g**(d * 2**(6*i)) mod p`` for ``d`` in ``[0, 64)``.

    There are enough rows to cover every exponent below ``q = (p - 1) / 2``.
    """
    rows = []
    base = g
    for _ in range(-(-((p - 1) // 2).bit_length() // _COMB_BITS)):
        row = [1]
        for _ in range((1 << _COMB_BITS) - 1):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p  # base**64: the next row's generator
    return tuple(rows)


@dataclass(frozen=True)
class SchnorrGroup:
    """The quadratic-residue subgroup of Z_p^* for a safe prime p.

    Elements are integers in ``[1, p)`` that are quadratic residues; the
    subgroup has prime order ``q = (p - 1) / 2`` so every non-identity
    element generates it.
    """

    p: int
    g: int

    @property
    def q(self) -> int:
        """Prime order of the subgroup."""
        return (self.p - 1) // 2

    def __post_init__(self) -> None:
        if self.p < 7 or self.p % 2 == 0:
            raise ParameterError("p must be an odd prime >= 7")
        if not is_probable_prime(self.p) or not is_probable_prime(self.q):
            raise ParameterError("p must be a safe prime (p and (p-1)/2 prime)")
        if not 1 < self.g < self.p:
            raise ParameterError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g is not in the quadratic-residue subgroup")

    @classmethod
    def default(cls) -> "SchnorrGroup":
        """The library-default 512-bit group (fixed parameters)."""
        return cls(p=_DEFAULT_P, g=4)  # 4 = 2^2 is always a QR

    @classmethod
    def generate(
        cls, bits: int = 512, rng: Optional[SystemRandomSource] = None
    ) -> "SchnorrGroup":
        """Generate fresh group parameters with a ``bits``-bit safe prime."""
        rng = rng or SystemRandomSource()
        p = generate_safe_prime(bits, rng)
        while True:
            h = rng.randrange(2, p - 1)
            g = pow(h, 2, p)  # square into the QR subgroup
            if g not in (1, p - 1):
                return cls(p=p, g=g)

    def exp(self, base: int, exponent: int) -> int:
        """``base**exponent mod p`` (instrumented as a modexp)."""
        return modexp(base, exponent % self.q, self.p)

    def power_of_g(self, exponent: int) -> int:
        """``g**exponent mod p`` (instrumented as a modexp).

        Uses a fixed-base comb: the exponent, reduced mod q as in
        :meth:`exp`, is split into 6-bit digits and each digit selects one
        precomputed power, so a call costs one multiplication per digit
        instead of a square-and-multiply chain.  The table is built lazily
        once per ``(p, g)``; every digit multiplies, zero digits by 1.
        """
        count_op("modexp")
        p = self.p
        e = exponent % self.q
        mask = (1 << _COMB_BITS) - 1
        acc = 1
        for row in _comb_rows(p, self.g):
            acc = acc * row[e & mask] % p
            e >>= _COMB_BITS
        return acc

    def mul(self, a: int, b: int) -> int:
        """Group multiplication modulo p."""
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse modulo p."""
        return modinv(a, self.p)

    def random_exponent(self, rng: Optional[SystemRandomSource] = None) -> int:
        """A uniform secret exponent in ``[1, q)``."""
        rng = rng or SystemRandomSource()
        return rng.randrange(1, self.q)

    def element_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        width = (self.p.bit_length() + 7) // 8
        if not 0 <= a < self.p:
            raise ParameterError("element out of range")
        return a.to_bytes(width, "big")

    @property
    def element_size(self) -> int:
        """Encoded element size in bytes."""
        return (self.p.bit_length() + 7) // 8
