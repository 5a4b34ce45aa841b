"""Shared-memory result-arena edge cases (repro.parallel.arena).

The transport's safety properties under test: a record that exactly fills
its slot commits; an overfull slot falls back to pickle cleanly (counted,
never raising); a worker killed mid-write surfaces the existing typed
:class:`~repro.errors.WorkerCrashError` and the pool recovers; torn or
missing commits are detected from the slot header rather than decoded; and
no shared-memory segment outlives its batch — the whole module runs under
a leak check on ``/dev/shm``.
"""

from __future__ import annotations

import glob
import os
import pickle
from dataclasses import dataclass

import pytest

from repro.errors import ParameterError, WorkerCrashError
from repro.obs.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
)
from repro.parallel import ProcessBackend, TaskEnvelope
from repro.parallel.arena import (
    _RECORD,
    ArenaRef,
    ArenaWriter,
    LazyWireRecord,
    ResultArena,
    register_wire_codec,
)


def _segments() -> list:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return sorted(glob.glob("/dev/shm/smarena_*"))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test in this module must unlink what it links."""
    before = _segments()
    yield
    assert _segments() == before


@dataclass(frozen=True)
class Pair:
    """A tiny wire-encodable record type for arena tests."""

    left: int
    right: int

    def to_wire_bytes(self) -> bytes:
        return self.left.to_bytes(4, "big") + self.right.to_bytes(4, "big")

    @classmethod
    def from_wire_bytes(cls, raw: bytes) -> "Pair":
        return cls(
            int.from_bytes(raw[:4], "big"), int.from_bytes(raw[4:], "big")
        )


_TAG_PAIR = 201

register_wire_codec(Pair, _TAG_PAIR, Pair.to_wire_bytes, Pair.from_wire_bytes)

_PAIR_RECORD_LEN = _RECORD.size + 8


def _capturing_registry():
    return enable_metrics(MetricsRegistry())


def _counters(registry) -> dict:
    disable_metrics()
    return registry.snapshot()["counters"]


# -- slot geometry: exact fill and overflow fallback ----------------------------


class TestSlotCapacity:
    def test_record_exactly_filling_the_slot_commits(self):
        with ResultArena(slots=1, slot_bytes=2 * _PAIR_RECORD_LEN) as arena:
            desc = arena.slot_descriptor(0)
            writer = ArenaWriter(desc)
            first = writer.put_record(Pair(1, 2))
            second = writer.put_record(Pair(3, 4))  # fills the slot exactly
            assert isinstance(first, ArenaRef)
            assert isinstance(second, ArenaRef)
            writer.seal()
            resolved = arena.resolve([first, second], desc, "exact-fill")
            assert resolved == [Pair(1, 2), Pair(3, 4)]

    def test_overflowing_record_falls_back_to_pickle(self):
        registry = _capturing_registry()
        try:
            with ResultArena(slots=1, slot_bytes=_PAIR_RECORD_LEN) as arena:
                desc = arena.slot_descriptor(0)
                writer = ArenaWriter(desc)
                fits = writer.put_record(Pair(1, 2))
                overflow = writer.put_record(Pair(3, 4))  # one byte too many
                assert isinstance(fits, ArenaRef)
                assert overflow == Pair(3, 4)  # the original object, as-is
                writer.seal()
                resolved = arena.resolve([fits, overflow], desc, "overflow")
                assert resolved == [Pair(1, 2), Pair(3, 4)]
        finally:
            counters = _counters(registry)
        assert counters["smatch_parallel_shm_fallbacks_total"] == 1
        assert counters["smatch_parallel_shm_bytes_total"] == _PAIR_RECORD_LEN

    def test_unregistered_type_falls_back(self):
        registry = _capturing_registry()
        try:
            with ResultArena(slots=1, slot_bytes=256) as arena:
                writer = ArenaWriter(arena.slot_descriptor(0))
                value = {"no": "codec"}
                assert writer.put_record(value) is value
        finally:
            counters = _counters(registry)
        assert counters["smatch_parallel_shm_fallbacks_total"] == 1

    def test_geometry_validated(self):
        with pytest.raises(ParameterError):
            ResultArena(slots=0)
        with pytest.raises(ParameterError):
            ResultArena(slots=1, slot_bytes=_RECORD.size)


# -- commit-protocol failure detection ------------------------------------------


class TestCommitDetection:
    def test_unsealed_slot_is_a_worker_crash(self):
        with ResultArena(slots=2, slot_bytes=256) as arena:
            desc = arena.slot_descriptor(0)
            writer = ArenaWriter(desc)
            ref = writer.put_record(Pair(1, 2))
            # no seal(): the worker died before its commit point
            with pytest.raises(WorkerCrashError, match="never committed"):
                arena.resolve([ref], desc, "unsealed")

    def test_stale_generation_is_a_worker_crash(self):
        with ResultArena(slots=1, slot_bytes=256) as arena:
            first = arena.slot_descriptor(0)
            writer = ArenaWriter(first)
            writer.put_record(Pair(1, 2))
            writer.seal()
            # ring position reused by chunk 1, but its writer never sealed:
            # the header still shows generation 1
            second = arena.slot_descriptor(1)
            with pytest.raises(WorkerCrashError, match="never committed"):
                arena.resolve([ArenaRef(0)], second, "stale")

    def test_torn_commit_counts_are_detected(self):
        import struct

        with ResultArena(slots=1, slot_bytes=64) as arena:
            desc = arena.slot_descriptor(0)
            header = struct.Struct(">QLL")
            # claims more payload than the slot can hold
            header.pack_into(arena._shm.buf, 0, desc.generation, 1, 65)
            with pytest.raises(WorkerCrashError, match="torn commit"):
                arena.resolve([ArenaRef(0)], desc, "overclaim")
            # claims a record but commits too few bytes for its header
            header.pack_into(arena._shm.buf, 0, desc.generation, 1, 2)
            with pytest.raises(WorkerCrashError, match="torn commit"):
                arena.resolve([ArenaRef(0)], desc, "short")
            # committed record carries a tag no codec claims
            arena._shm.buf[header.size] = 0xFE
            header.pack_into(
                arena._shm.buf, 0, desc.generation, 1, _RECORD.size
            )
            with pytest.raises(WorkerCrashError, match="corrupt"):
                arena.resolve([ArenaRef(0)], desc, "badtag")


# -- lazy views ------------------------------------------------------------------


class TestLazyWireRecord:
    def _view(self, pair: Pair) -> LazyWireRecord:
        return LazyWireRecord(pair.to_wire_bytes(), Pair.from_wire_bytes)

    def test_equality_reflects_both_directions(self):
        view = self._view(Pair(5, 6))
        assert view == Pair(5, 6)
        assert Pair(5, 6) == view
        assert view != Pair(5, 7)
        assert Pair(5, 7) != view
        assert view == self._view(Pair(5, 6))

    def test_attribute_access_materializes_once(self):
        view = self._view(Pair(5, 6))
        assert "pending" in repr(view)  # repr never decodes
        assert view.left == 5
        assert "decoded" in repr(view)
        assert view.materialize() is view.materialize()

    def test_hash_matches_the_decoded_value(self):
        assert hash(self._view(Pair(5, 6))) == hash(Pair(5, 6))
        assert {self._view(Pair(5, 6)): "x"}[Pair(5, 6)] == "x"

    def test_repickling_ships_the_materialized_value(self):
        revived = pickle.loads(pickle.dumps(self._view(Pair(5, 6))))
        assert isinstance(revived, Pair)
        assert revived == Pair(5, 6)

    def test_encode_fields_splices_without_decoding(self):
        from repro.utils.serial import FieldWriter

        view = self._view(Pair(5, 6))
        writer = FieldWriter()
        view.encode_fields(writer)
        assert writer.getvalue() == Pair(5, 6).to_wire_bytes()
        assert "pending" in repr(view)  # the splice never materialized

    def test_upload_message_bytes_identical_through_the_view(self):
        # the serialize-once contract end to end: an undecoded arena view
        # of an EncryptedProfile produces the exact UploadMessage bytes the
        # eager object would, without ever running the decoder
        from repro.core.profile import Profile, ProfileSchema
        from repro.core.scheme import (
            EncryptedProfile,
            SMatch,
            SMatchParams,
        )
        from repro.net.messages import UploadMessage
        from repro.utils.rand import SystemRandomSource

        schema = ProfileSchema.uniform(["a", "b", "c"], 1 << 10)
        scheme = SMatch(
            SMatchParams(schema=schema, theta=8, plaintext_bits=32),
            rng=SystemRandomSource(17),
        )
        payload, _ = scheme.enroll(
            Profile(1, schema, (3, 5, 7)), rng=SystemRandomSource(18)
        )
        view = LazyWireRecord(
            payload.to_wire_bytes(), EncryptedProfile.from_wire_bytes
        )
        assert (
            UploadMessage(payload=view).encode()
            == UploadMessage(payload=payload).encode()
        )
        assert "pending" in repr(view)


# -- codec registry --------------------------------------------------------------


class TestCodecRegistry:
    def test_reregistration_is_idempotent(self):
        register_wire_codec(
            Pair, _TAG_PAIR, Pair.to_wire_bytes, Pair.from_wire_bytes
        )

    def test_conflicts_rejected(self):
        with pytest.raises(ParameterError):
            register_wire_codec(
                Pair, 202, Pair.to_wire_bytes, Pair.from_wire_bytes
            )

        class Other:
            pass

        with pytest.raises(ParameterError):
            register_wire_codec(
                Other, _TAG_PAIR, Pair.to_wire_bytes, Pair.from_wire_bytes
            )

    def test_tag_range_validated(self):
        for bad in (0, 256, -1):
            with pytest.raises(ParameterError):
                register_wire_codec(
                    Pair, bad, Pair.to_wire_bytes, Pair.from_wire_bytes
                )


# -- end-to-end through the process backend --------------------------------------


def _emit_pairs(context, chunk, arena=None):
    out = []
    for value in chunk:
        pair = Pair(value, value * value)
        out.append(arena.put_record(pair) if arena is not None else pair)
    return out


def _die_mid_write(context, chunk, arena=None):
    if arena is not None:
        arena.put_record(Pair(chunk[0], 0))
    os._exit(13)  # before seal(): the slot never commits


class TestProcessBackendTransport:
    def test_results_arrive_through_the_arena(self):
        envelope = TaskEnvelope(
            fn=_emit_pairs, label="pairs", shm_results=True
        )
        expected = [[Pair(v, v * v) for v in chunk] for chunk in ([1, 2], [3])]
        with ProcessBackend(2, mp_context="fork") as backend:
            results = backend.map_chunks(envelope, [[1, 2], [3]])
        assert results == expected
        assert all(
            isinstance(record, LazyWireRecord)
            for chunk in results
            for record in chunk
        )

    def test_shm_disabled_returns_plain_objects(self):
        # an envelope that does not declare shm_results gets no arena
        # writer and its results ride the ordinary future pickle
        envelope = TaskEnvelope(fn=_emit_pairs, label="pairs")
        with ProcessBackend(2, mp_context="fork") as backend:
            results = backend.map_chunks(envelope, [[1, 2], [3]])
        assert results == [[Pair(1, 1), Pair(2, 4)], [Pair(3, 9)]]
        assert all(
            isinstance(record, Pair)
            for chunk in results
            for record in chunk
        )

    def test_worker_killed_mid_write_surfaces_and_pool_recovers(self):
        with ProcessBackend(2, mp_context="fork") as backend:
            crash = TaskEnvelope(
                fn=_die_mid_write, label="mid-write", shm_results=True
            )
            with pytest.raises(WorkerCrashError):
                backend.map_chunks(crash, [[1], [2], [3]])
            # the batch segment was unlinked on the failure path and the
            # discarded pool restarts cleanly
            healthy = TaskEnvelope(
                fn=_emit_pairs, label="recovery", shm_results=True
            )
            assert backend.map_chunks(healthy, [[4]]) == [[Pair(4, 16)]]
