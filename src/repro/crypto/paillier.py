"""The Paillier cryptosystem (additively homomorphic).

This is the substrate of the homoPM baseline (Zhang et al., INFOCOM 2012),
which the paper benchmarks S-MATCH against.  We implement the standard
scheme with ``g = n + 1`` (so encryption is one modexp for the randomizer
plus cheap multiplication) and CRT-accelerated decryption.

Homomorphic operations:

* ``add`` — ciphertext multiplication encrypts the plaintext sum,
* ``add_plain`` — multiply by ``g^k`` to add a constant,
* ``mul_plain`` — ciphertext exponentiation encrypts a plaintext-scalar
  product (the "modular multiplication on the ciphertexts" the paper's
  server-side homoPM cost comes from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import CiphertextError, ParameterError
from repro.ntheory.modular import lcm, modexp, modinv
from repro.ntheory.primes import generate_prime
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["PaillierPublicKey", "PaillierKeyPair", "PaillierCiphertext"]


@dataclass(frozen=True)
class PaillierCiphertext:
    """A Paillier ciphertext bound to its public key."""

    value: int
    public_key: "PaillierPublicKey"

    def __mul__(self, other: "PaillierCiphertext") -> "PaillierCiphertext":
        return self.public_key.add(self, other)

    @property
    def wire_bits(self) -> int:
        """Size on the wire: an element of Z_{n^2}."""
        return 2 * self.public_key.n.bit_length()


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key ``n`` (with ``g = n + 1``)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 15 or self.n % 2 == 0:
            raise ParameterError("invalid Paillier modulus")

    @property
    def n_squared(self) -> int:
        """The ciphertext modulus n^2."""
        return self.n * self.n

    @property
    def g(self) -> int:
        """The Paillier generator (n + 1)."""
        return self.n + 1

    def _check_plaintext(self, m: int) -> int:
        m %= self.n
        return m

    def encrypt(
        self, m: int, rng: Optional[SystemRandomSource] = None
    ) -> PaillierCiphertext:
        """``c = g^m * r^n mod n^2`` with fresh randomness ``r``."""
        rng = rng or SystemRandomSource()
        m = self._check_plaintext(m)
        n, n2 = self.n, self.n_squared
        while True:
            r = rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                break
        # g^m = (1 + n)^m = 1 + m*n mod n^2 — one multiplication, no modexp
        gm = (1 + m * n) % n2
        c = gm * modexp(r, n, n2) % n2
        count_op("paillier_encrypt")
        return PaillierCiphertext(value=c, public_key=self)

    def _check_cipher(self, c: PaillierCiphertext) -> int:
        if c.public_key != self:
            raise CiphertextError("ciphertext from a different key")
        if not 0 < c.value < self.n_squared:
            raise CiphertextError("ciphertext out of range")
        return c.value

    def add(
        self, a: PaillierCiphertext, b: PaillierCiphertext
    ) -> PaillierCiphertext:
        """Homomorphic addition: Enc(m1) * Enc(m2) = Enc(m1 + m2)."""
        count_op("paillier_mulmod")
        value = self._check_cipher(a) * self._check_cipher(b) % self.n_squared
        return PaillierCiphertext(value=value, public_key=self)

    def add_plain(self, a: PaillierCiphertext, k: int) -> PaillierCiphertext:
        """Enc(m) -> Enc(m + k) for a public constant ``k``."""
        count_op("paillier_mulmod")
        k = self._check_plaintext(k)
        gk = (1 + k * self.n) % self.n_squared
        value = self._check_cipher(a) * gk % self.n_squared
        return PaillierCiphertext(value=value, public_key=self)

    def mul_plain(self, a: PaillierCiphertext, k: int) -> PaillierCiphertext:
        """Enc(m) -> Enc(m * k) via ciphertext exponentiation."""
        value = modexp(self._check_cipher(a), self._check_plaintext(k), self.n_squared)
        return PaillierCiphertext(value=value, public_key=self)

    def rerandomize(
        self, a: PaillierCiphertext, rng: Optional[SystemRandomSource] = None
    ) -> PaillierCiphertext:
        """Refresh the randomizer without changing the plaintext."""
        rng = rng or SystemRandomSource()
        n, n2 = self.n, self.n_squared
        while True:
            r = rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                break
        value = self._check_cipher(a) * modexp(r, n, n2) % n2
        return PaillierCiphertext(value=value, public_key=self)


@dataclass(frozen=True)
class PaillierKeyPair:
    """Key pair with the standard ``lambda/mu`` decryption parameters."""

    public: PaillierPublicKey
    lam: int
    mu: int

    @classmethod
    def generate(
        cls, bits: int = 1024, rng: Optional[SystemRandomSource] = None
    ) -> "PaillierKeyPair":
        """Generate a key with a ``bits``-bit modulus ``n = p * q``."""
        if bits < 64:
            raise ParameterError(f"Paillier modulus too small: {bits} bits")
        rng = rng or SystemRandomSource()
        while True:
            p = generate_prime(bits // 2, rng)
            q = generate_prime(bits - bits // 2, rng)
            if p == q:
                continue
            n = p * q
            if n.bit_length() != bits or math.gcd(n, (p - 1) * (q - 1)) != 1:
                continue
            lam = lcm(p - 1, q - 1)
            # mu = (L(g^lam mod n^2))^-1 mod n, where L(x) = (x-1)/n
            glam = modexp(n + 1, lam, n * n)
            l_value = (glam - 1) // n
            mu = modinv(l_value, n)
            return cls(public=PaillierPublicKey(n=n), lam=lam, mu=mu)

    @classmethod
    def from_primes(cls, p: int, q: int) -> "PaillierKeyPair":
        """Build a key pair from two known primes (fixture/bench support)."""
        if p == q:
            raise ParameterError("Paillier primes must differ")
        n = p * q
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            raise ParameterError("invalid prime pair for Paillier")
        lam = lcm(p - 1, q - 1)
        glam = modexp(n + 1, lam, n * n)
        mu = modinv((glam - 1) // n, n)
        return cls(public=PaillierPublicKey(n=n), lam=lam, mu=mu)

    def decrypt(self, c: PaillierCiphertext) -> int:
        """Recover the plaintext in ``[0, n)``."""
        pk = self.public
        value = pk._check_cipher(c)
        count_op("paillier_decrypt")
        x = modexp(value, self.lam, pk.n_squared)
        l_value = (x - 1) // pk.n
        return l_value * self.mu % pk.n

    def decrypt_signed(self, c: PaillierCiphertext) -> int:
        """Decrypt, mapping the upper half of Z_n to negative integers."""
        m = self.decrypt(c)
        if m > self.public.n // 2:
            m -= self.public.n
        return m
