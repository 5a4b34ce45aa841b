"""The big-jump one-to-N entropy-increase mapping (paper Section VI).

Each raw attribute value ``a_j`` (with empirical probability ``p_j``) is
mapped to one of ``s_j ~ p_j * Delta`` k-bit strings chosen uniformly, so the
mapped distribution is close to uniform (every mapped string has probability
about ``1/Delta``).  The strings assigned to value ``j`` live in the slot
``[ base_j, base_j + R ]`` where ``base_j = floor(j * 2^k / n)`` and
``R`` is half the slot width — leaving a guaranteed *big jump* between the
regions of consecutive values, and keeping the slots ordered by the raw
value so order-preserving encryption of mapped values still compares raw
values correctly.

Slot parameters are computed **lazily and in closed form** — a mapping over
millions of raw values (the numeric attribute domains of the clustered
populations) costs O(1) memory, not O(n).  Only the probability vector is
held, and the uniform case holds nothing at all.

Three properties the paper claims, all enforced/measured here:

1. entropy increases under the one-to-N mapping (`analytic_entropy_bits`),
2. different attributes are unified to the same k-bit measurement,
3. matching results survive the mapping for distance-close profiles
   (slot ordering + bounded in-slot spread; see the scheme tests).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.profile import ProfileSchema
from repro.errors import ParameterError
from repro.obs.instrument import count_op
from repro.utils.rand import SystemRandomSource

__all__ = ["AttributeMapping", "BigJumpMapper"]

_PROB_SCALE = 10**12  # integer probability arithmetic; delta may exceed floats


class AttributeMapping:
    """Big-jump mapping for a single attribute.

    Args:
        probs: empirical probability of each raw value, indexed by value
            (the provider publishes these aggregate statistics; they are the
            same Table-II statistics the entropy analysis uses).  Pass
            ``None`` with ``n_values`` for a uniform distribution without
            materializing the vector.
        k: output size in bits; every mapped value is a k-bit string.
        delta: the ``Delta`` of the paper — the target number of effective
            uniform strings.  Defaults to the slot capacity, which maximizes
            the entropy gain.
        n_values: required when ``probs`` is ``None``.
    """

    def __init__(
        self,
        probs: Optional[Sequence[float]],
        k: int,
        delta: Optional[int] = None,
        n_values: Optional[int] = None,
    ) -> None:
        if probs is None:
            if n_values is None or n_values < 1:
                raise ParameterError("uniform mapping needs n_values >= 1")
            n = n_values
            self._probs: Optional[Tuple[float, ...]] = None
            self._uniform_p = 1.0 / n
        else:
            n = len(probs)
            if n < 1:
                raise ParameterError("attribute needs at least one value")
            total = sum(probs)
            if any(p < 0 for p in probs) or not math.isclose(
                total, 1.0, rel_tol=0, abs_tol=1e-6
            ):
                raise ParameterError(
                    "probabilities must be >= 0 and sum to 1"
                )
            self._probs = tuple(probs)
            self._uniform_p = 0.0
        if k < max(1, (2 * n - 1).bit_length()):
            raise ParameterError(f"plaintext size {k} too small for {n} values")
        self.k = k
        self.n_values = n
        self._space = 1 << k
        slot_width = self._space // n
        self._usable = max(1, slot_width // 2)  # R: jump >= width - R
        if delta is None:
            delta = self._usable
        if delta < 1:
            raise ParameterError("delta must be >= 1")
        self.delta = delta
        self._count_cache: Dict[float, Tuple[int, int]] = {}

    @classmethod
    def uniform(
        cls, n_values: int, k: int, delta: Optional[int] = None
    ) -> "AttributeMapping":
        """A uniform-distribution mapping with O(1) memory."""
        return cls(None, k, delta=delta, n_values=n_values)

    # -- lazy slot geometry ------------------------------------------------------

    @property
    def probs(self) -> Tuple[float, ...]:
        """The probability vector (materialized on demand for uniform)."""
        if self._probs is not None:
            return self._probs
        return tuple([self._uniform_p] * self.n_values)

    def _prob_of(self, value: int) -> float:
        if self._probs is not None:
            return self._probs[value]
        return self._uniform_p

    def _count_spacing(self, p: float) -> Tuple[int, int]:
        """(candidate count s_j, spacing) for probability p, cached."""
        cached = self._count_cache.get(p)
        if cached is not None:
            return cached
        count = (int(p * _PROB_SCALE) * self.delta) // _PROB_SCALE
        count = max(1, min(self._usable, count))
        spacing = max(1, self._usable // count)
        self._count_cache[p] = (count, spacing)
        return count, spacing

    def _base(self, value: int) -> int:
        return (value * self._space) // self.n_values

    def _slot(self, value: int) -> Tuple[int, int, int]:
        """(base, spacing, count) of a raw value's slot."""
        count, spacing = self._count_spacing(self._prob_of(value))
        return self._base(value), spacing, count

    def _slot_last(self, value: int) -> int:
        base, spacing, count = self._slot(value)
        return base + spacing * (count - 1)

    # -- mapping ------------------------------------------------------------------

    def check_value(self, value: int) -> int:
        """Validate that a raw value is in range; returns it."""
        if not 0 <= value < self.n_values:
            raise ParameterError(f"raw value {value} out of range")
        return value

    def map_value(
        self, value: int, rng: Optional[SystemRandomSource] = None
    ) -> int:
        """Map a raw value to a uniformly chosen k-bit string in its slot."""
        self.check_value(value)
        count_op("entropy_map")
        rng = rng or SystemRandomSource()
        base, spacing, count = self._slot(value)
        return base + rng.randrange(0, count) * spacing

    def unmap_value(self, mapped: int) -> int:
        """Recover the raw value a mapped string belongs to."""
        if not 0 <= mapped < self._space:
            raise ParameterError(f"mapped value {mapped} out of range")
        # invert base(j) = floor(j * space / n): the candidate index
        j = min(self.n_values - 1, (mapped * self.n_values) // self._space)
        while j > 0 and self._base(j) > mapped:
            j -= 1
        while j + 1 < self.n_values and self._base(j + 1) <= mapped:
            j += 1
        base, spacing, count = self._slot(j)
        offset = mapped - base
        if (
            offset < 0
            or offset % spacing != 0
            or offset // spacing >= count
        ):
            raise ParameterError(f"{mapped} is not a valid mapped string")
        return j

    def candidates(self, value: int) -> List[int]:
        """All mapped strings of a raw value (for tests; may be large)."""
        base, spacing, count = self._slot(self.check_value(value))
        return [base + u * spacing for u in range(count)]

    # -- analysis --------------------------------------------------------------------

    def analytic_entropy_bits(self) -> float:
        """Exact entropy of the mapped distribution: sum p_j log2(s_j/p_j).

        Grouped by distinct probability, so the cost is O(distinct values of
        p), not O(n).
        """
        if self._probs is None:
            count, _ = self._count_spacing(self._uniform_p)
            return math.log2(count) - math.log2(self._uniform_p)
        entropy = 0.0
        for p, multiplicity in Counter(self._probs).items():
            if p > 0:
                count, _ = self._count_spacing(p)
                entropy += (
                    multiplicity * p * (math.log2(count) - math.log2(p))
                )
        return entropy

    def min_jump(self) -> int:
        """Smallest gap between consecutive value regions (the big jump).

        O(distinct probabilities): the gap after value j is
        ``base(j+1) - last(j)``, and ``base`` increments by one of two
        adjacent integers, so it suffices to minimize over distinct slot
        shapes with the smaller increment.
        """
        if self.n_values == 1:
            return self._space - self._slot_last(0)
        min_increment = self._space // self.n_values
        worst = None
        probs = (
            {self._uniform_p} if self._probs is None else set(self._probs)
        )
        for p in probs:
            count, spacing = self._count_spacing(p)
            gap = min_increment - spacing * (count - 1)
            worst = gap if worst is None else min(worst, gap)
        return worst


class BigJumpMapper:
    """Per-schema collection of attribute mappings.

    ``InitData`` step 1 of the paper: applies the big-jump mapping to every
    attribute of a profile, unifying them to the same k-bit measurement.
    """

    def __init__(
        self,
        schema: ProfileSchema,
        distributions: Sequence[Optional[Sequence[float]]],
        k: int,
        delta: Optional[int] = None,
    ) -> None:
        if len(distributions) != len(schema):
            raise ParameterError(
                "need one probability vector per schema attribute"
            )
        self.schema = schema
        self.k = k
        mappings = []
        for spec, probs in zip(schema.attributes, distributions):
            if probs is None:
                mapping = AttributeMapping.uniform(spec.cardinality, k, delta)
            else:
                mapping = AttributeMapping(probs, k, delta)
            if mapping.n_values != spec.cardinality:
                raise ParameterError(
                    f"distribution for {spec.name!r} has "
                    f"{mapping.n_values} values, expected {spec.cardinality}"
                )
            mappings.append(mapping)
        self.mappings: Tuple[AttributeMapping, ...] = tuple(mappings)

    @classmethod
    def uniform(
        cls, schema: ProfileSchema, k: int, delta: Optional[int] = None
    ) -> "BigJumpMapper":
        """A mapper assuming uniform raw-value distributions (O(1) memory
        per attribute, even for multi-million-value numeric domains)."""
        return cls(schema, [None] * len(schema), k, delta)

    def map_profile(
        self, values: Sequence[int], rng: Optional[SystemRandomSource] = None
    ) -> List[int]:
        """Map every attribute value of a profile (one-to-N, random pick)."""
        values = self.schema.check_values(values)
        rng = rng or SystemRandomSource()
        return [
            mapping.map_value(v, rng)
            for mapping, v in zip(self.mappings, values)
        ]

    def unmap_profile(self, mapped: Sequence[int]) -> List[int]:
        """Invert the mapping for every attribute value."""
        if len(mapped) != len(self.mappings):
            raise ParameterError("wrong number of mapped values")
        return [
            mapping.unmap_value(v)
            for mapping, v in zip(self.mappings, mapped)
        ]

    def analytic_entropy_bits(self) -> List[float]:
        """Per-attribute entropy of the mapped distributions."""
        return [m.analytic_entropy_bits() for m in self.mappings]

    def mean_entropy_bits(self) -> float:
        """Mean per-attribute mapped entropy."""
        per_attr = self.analytic_entropy_bits()
        return sum(per_attr) / len(per_attr)
