"""Random-order attribute chaining (paper Section VI, "Attribute Chaining").

After the entropy increase, the attributes are "chained (i.e., combined)
separately in random order.  The randomization is done to prevent an attacker
from obtaining the position of a specific attribute in the chain" — otherwise
the attacker can brute-force the few bits of a single low-entropy attribute
instead of the whole chain.

The chain order is derived pseudorandomly from the user's profile key, so a
user's position assignment is stable across uploads (and reproducible in
tests) while remaining unknown to the server.  Because all matching operates
on *sums* over the chain (Definition 4), users in the same key group do not
need to agree on the permutation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ParameterError
from repro.utils.bits import pack_blocks, unpack_blocks
from repro.obs.instrument import count_op
from repro.utils.rand import DeterministicStream

__all__ = ["AttributeChainer"]


class AttributeChainer:
    """Permutes and packs k-bit attribute blocks into a chain."""

    def __init__(self, key: bytes, num_attributes: int, k: int) -> None:
        if num_attributes < 1:
            raise ParameterError("need at least one attribute")
        if k < 1:
            raise ParameterError("k must be >= 1")
        self.num_attributes = num_attributes
        self.k = k
        stream = DeterministicStream(key, b"smatch-chain-perm")
        self._perm: Tuple[int, ...] = tuple(
            stream.permutation(num_attributes)
        )
        inverse = [0] * num_attributes
        for out_pos, in_pos in enumerate(self._perm):
            inverse[in_pos] = out_pos
        self._inverse: Tuple[int, ...] = tuple(inverse)

    @property
    def permutation(self) -> Tuple[int, ...]:
        """``permutation[i]`` is the attribute placed at chain position i."""
        return self._perm

    def chain(self, mapped_values: Sequence[int]) -> List[int]:
        """Reorder entropy-increased values into chain order."""
        if len(mapped_values) != self.num_attributes:
            raise ParameterError(
                f"expected {self.num_attributes} values, "
                f"got {len(mapped_values)}"
            )
        count_op("chain")
        limit = 1 << self.k
        for v in mapped_values:
            if not 0 <= v < limit:
                raise ParameterError(f"value {v} does not fit in {self.k} bits")
        return [mapped_values[i] for i in self._perm]

    def unchain(self, chained: Sequence[int]) -> List[int]:
        """Invert :meth:`chain`."""
        if len(chained) != self.num_attributes:
            raise ParameterError("wrong chain length")
        return [chained[i] for i in self._inverse]

    def pack(self, chained: Sequence[int]) -> int:
        """Concatenate chain blocks into one integer (MSB = position 0)."""
        if len(chained) != self.num_attributes:
            raise ParameterError("wrong chain length")
        return pack_blocks(chained, self.k)

    def unpack(self, packed: int) -> List[int]:
        """Split a packed chain integer back into blocks."""
        return unpack_blocks(packed, self.k, self.num_attributes)
