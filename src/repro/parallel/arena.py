"""Zero-copy shared-memory result transport for the process backend.

PR 5 measured that pickling ``EncryptedProfile`` results dominates
process-backend enrollment at small chunk sizes: every hot-path result pays
``pickle.dumps`` in the worker, a pipe copy, and ``pickle.loads`` plus
object reconstruction in the parent.  This module replaces that tax with a
``multiprocessing.shared_memory`` **result arena**:

* The parent creates one segment per batch, divided into a ring of
  fixed-size slots — one slot per in-flight chunk (the backend's bounded
  submission window guarantees a slot is collected before its ring position
  is reused, so writers never race).
* Workers append **tagged, length-prefixed records** in the registered wire
  codec (:func:`register_wire_codec`; enrollment registers the
  ``EncryptedProfile`` layout shared with :mod:`repro.net.messages`) and
  return cheap integer :class:`ArenaRef` placeholders through the normal
  future path.
* Each slot carries a header with a **generation counter** and **commit
  counters** (record count, used bytes) written *last* (:meth:`ArenaWriter.
  seal`), so a half-written slot from a crashed worker is detectable: the
  parent surfaces the existing typed
  :class:`~repro.errors.WorkerCrashError` instead of decoding garbage or
  deadlocking, and the batch's ``finally`` unlinks the segment either way.
* The parent swaps each :class:`ArenaRef` for a :class:`LazyWireRecord`
  view over a one-shot snapshot of the slot — the record is decoded on
  first attribute access, never re-encoded, and compares equal to the
  eagerly-built object (dataclass equality reflects through the proxy), so
  the byte-identical-output contract of seeded enrollment is preserved.

Values with no registered codec — or records that would overflow their slot
— **fall back to pickle transparently**: ``put_record`` simply returns the
original object (which then rides the ordinary future-result pickle) and
counts the event via ``smatch_parallel_shm_fallbacks_total``.
"""

from __future__ import annotations

import os
import struct
import threading
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ParameterError, WorkerCrashError
from repro.obs.metrics import (
    M_PARALLEL_SHM_BYTES,
    M_PARALLEL_SHM_FALLBACKS,
    M_PARALLEL_SHM_OCCUPANCY,
    metric_inc,
    metric_set,
)
from repro.obs.trace import _local as _trace_state  # fast hot-path span guard
from repro.obs.trace import span

__all__ = [
    "ArenaRef",
    "ArenaWriter",
    "LazyWireRecord",
    "ResultArena",
    "SlotDescriptor",
    "register_wire_codec",
    "wire_codec_for",
]

#: Slot header: generation (8 bytes), committed record count (4), used
#: payload bytes (4).  Written once, by :meth:`ArenaWriter.seal`, after all
#: record bytes — the commit point of the slot.
_HEADER = struct.Struct(">QLL")

#: Record header inside a slot: codec tag (1 byte) + payload length (4).
_RECORD = struct.Struct(">BL")

#: Default slot capacity.  Enrollment records are a few hundred bytes, so
#: one slot holds thousands of profiles per chunk; oversize records fall
#: back to pickle rather than failing.
DEFAULT_SLOT_BYTES = 1 << 20


# -- the wire-codec registry -----------------------------------------------------

_ENCODERS: Dict[type, Tuple[int, Callable[[Any], bytes]]] = {}
_DECODERS: Dict[int, Callable[[bytes], Any]] = {}
#: guards the codec tables: registration happens at import time in the
#: common case, but callers on several threads may trigger lazy registering
#: imports concurrently, and the check-then-insert below must be atomic
_codec_lock = threading.Lock()


def register_wire_codec(
    cls: type,
    tag_id: int,
    encode: Callable[[Any], bytes],
    decode: Callable[[bytes], Any],
) -> None:
    """Register the arena codec for ``cls`` under a one-byte ``tag_id``.

    Registration is idempotent for an identical ``(cls, tag_id)`` pairing
    and rejects conflicting re-use of either, so parent and worker
    processes (which each import the registering module independently)
    always agree on the tag table.

    ``encode`` must produce the type's net-layer field-sequence encoding
    (its ``to_wire_bytes``): :meth:`LazyWireRecord.encode_fields` splices
    the stored bytes verbatim into outgoing messages, so the arena bytes
    and the wire bytes have to be the same layout.
    """
    if not 1 <= tag_id <= 0xFF:
        # 0 never names a codec: it is what a zeroed, never-written record
        # header reads as
        raise ParameterError("codec tag must be in 1..255")
    with _codec_lock:
        registered = _ENCODERS.get(cls)
        if registered is not None and registered[0] != tag_id:
            raise ParameterError(
                f"{cls.__name__} already registered under tag {registered[0]}"
            )
        if tag_id in _DECODERS and registered is None:
            raise ParameterError(f"codec tag {tag_id} already taken")
        _ENCODERS[cls] = (tag_id, encode)
        _DECODERS[tag_id] = decode


def wire_codec_for(value: Any) -> Optional[Tuple[int, Callable[[Any], bytes]]]:
    """The ``(tag, encode)`` pair for ``value``'s exact type, if registered."""
    return _ENCODERS.get(type(value))


# -- shared-memory attachment ----------------------------------------------------


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    On Python 3.13+ ``track=False`` keeps the attach out of the resource
    tracker entirely.  Before that, attaching re-registers the name — but
    pool workers share the parent's tracker process, so the re-register is
    a set-add no-op and the parent's ``unlink`` still balances the books;
    never *unregister* here, as that would clobber the parent's entry and
    leak the segment on a parent crash.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


#: Worker-side attachment cache: one arena serves a whole batch, so a
#: single-entry cache keyed by segment name covers every chunk the worker
#: runs without re-mmapping, and frees the previous batch's mapping.
_ATTACH_CACHE: List[Tuple[str, shared_memory.SharedMemory]] = []
#: guards the attach cache: process-pool workers are single-threaded, but
#: a parent-side writer may attach from several threads, and an unguarded
#: pop/close would hand one thread a mapping another just freed
_attach_lock = threading.Lock()


def _attach_cached(name: str) -> shared_memory.SharedMemory:
    with _attach_lock:
        if _ATTACH_CACHE and _ATTACH_CACHE[0][0] == name:
            return _ATTACH_CACHE[0][1]
        # the span wraps only a real mmap attach (once per batch per
        # worker), not the cache hit every chunk takes
        with span("arena.attach", segment=name):
            shm = _attach(name)
        if _ATTACH_CACHE:
            _ATTACH_CACHE.pop()[1].close()
        _ATTACH_CACHE.append((name, shm))
        return shm


# -- records and views -----------------------------------------------------------


class ArenaRef:
    """Placeholder for one arena record: the record's index in its slot.

    Instances ride the ordinary (tiny) future-result pickle back to the
    parent, which swaps them for :class:`LazyWireRecord` views.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self) -> Tuple[Any, Tuple[int]]:
        return (ArenaRef, (self.index,))

    def __repr__(self) -> str:
        return f"ArenaRef({self.index})"


_UNSET = object()


class LazyWireRecord:
    """A decode-on-first-access view of one committed arena record.

    Holds the record's bytes (a snapshot taken before the slot is reused)
    and materializes the value through the registered decoder the first
    time an attribute is touched.  Equality, hashing, and attribute access
    all forward to the materialized value — dataclass ``__eq__`` returns
    ``NotImplemented`` against the proxy, so Python reflects the comparison
    here and ``proxy == real`` holds exactly when the decoded bytes match.
    """

    __slots__ = ("_raw", "_decode", "_value")

    def __init__(self, raw: bytes, decode: Callable[[bytes], Any]) -> None:
        # plain slot assignment: only __getattr__ (missing-attribute
        # lookup) is overridden, so normal access never recurses
        self._raw = raw
        self._decode = decode
        self._value = _UNSET

    def materialize(self) -> Any:
        """The decoded value (decoded once, then cached)."""
        value = self._value
        if value is _UNSET:
            value = self._decode(self._raw)
            self._value = value
        return value

    def __getattr__(self, name: str) -> Any:
        return getattr(self.materialize(), name)

    def encode_fields(self, writer: Any) -> None:
        """Re-emit the record's wire bytes without decoding them.

        Arena codecs encode with the type's own net-layer field sequence
        (``to_wire_bytes``), so an undecoded record splices verbatim into
        an outgoing message — the serialize-once half of the zero-copy
        contract: a result is wire-encoded exactly once, in the worker,
        no matter how many times the parent forwards it.
        """
        writer.write_raw_fields(self._raw)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, LazyWireRecord):
            other = other.materialize()
        return bool(self.materialize() == other)

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __reduce__(self) -> Tuple[Any, Tuple[Any]]:
        # a re-pickled view ships the materialized value, not the proxy
        return (_identity, (self.materialize(),))

    def __repr__(self) -> str:
        # never decodes (and never reprs potential key material)
        state = "decoded" if self._value is not _UNSET else "pending"
        return f"<LazyWireRecord {state}, {len(self._raw)} bytes>"


def _identity(value: Any) -> Any:
    return value


class SlotDescriptor:
    """Everything a worker needs to write one chunk's records: segment
    name, ring slot, expected generation, and the slot geometry."""

    __slots__ = ("name", "slot", "generation", "slot_bytes", "slots")

    def __init__(
        self, name: str, slot: int, generation: int, slot_bytes: int, slots: int
    ) -> None:
        self.name = name
        self.slot = slot
        self.generation = generation
        self.slot_bytes = slot_bytes
        self.slots = slots

    def __reduce__(self) -> Tuple[Any, Tuple[str, int, int, int, int]]:
        return (
            SlotDescriptor,
            (self.name, self.slot, self.generation, self.slot_bytes, self.slots),
        )


# -- worker side -----------------------------------------------------------------


class ArenaWriter:
    """Worker-side append cursor over one slot of the result arena.

    Records are committed all-at-once by :meth:`seal`: the payload bytes
    land first, the header (generation + counts) last, so a crash mid-chunk
    leaves the slot's previous generation visible and the parent detects
    the missing commit instead of reading a torn record.
    """

    def __init__(self, desc: SlotDescriptor) -> None:
        shm = _attach_cached(desc.name)
        self._desc = desc
        self._buf = shm.buf
        self._base = _HEADER.size * desc.slots + desc.slot_bytes * desc.slot
        self._cursor = 0
        self._records = 0
        self._sealed = False

    def put_record(self, value: Any) -> Any:
        """Write ``value`` into the slot; returns an :class:`ArenaRef`.

        Falls back to returning ``value`` unchanged — so it rides the
        ordinary pickle path — when its type has no registered wire codec
        or the encoded record would overflow the slot; both fallbacks are
        counted via ``smatch_parallel_shm_fallbacks_total``.
        """
        codec = wire_codec_for(value)
        if codec is None:
            metric_inc(M_PARALLEL_SHM_FALLBACKS)
            return value
        tag, encode = codec
        if getattr(_trace_state, "tracer", None) is None:
            # skip span setup on the per-record path while tracing is off
            blob = encode(value)
        else:
            with span("arena.encode", tag=tag):
                blob = encode(value)
        record_len = _RECORD.size + len(blob)
        if self._cursor + record_len > self._desc.slot_bytes:
            metric_inc(M_PARALLEL_SHM_FALLBACKS)
            return value
        start = self._base + self._cursor
        _RECORD.pack_into(self._buf, start, tag, len(blob))
        self._buf[start + _RECORD.size : start + record_len] = blob
        self._cursor += record_len
        self._records += 1
        return ArenaRef(self._records - 1)

    def seal(self) -> None:
        """Commit the slot: header written last, exactly once.

        Also flushes the chunk's byte tally to
        ``smatch_parallel_shm_bytes_total`` in one increment — per-record
        counting costs a registry lookup on every hot-path write.
        """
        if self._sealed:
            return
        self._sealed = True
        if self._cursor:
            metric_inc(M_PARALLEL_SHM_BYTES, self._cursor)
        _HEADER.pack_into(
            self._buf,
            _HEADER.size * self._desc.slot,
            self._desc.generation,
            self._records,
            self._cursor,
        )


def _substitute(node: Any, records: List[Tuple[int, bytes]]) -> Any:
    """Swap every :class:`ArenaRef` in ``node`` for a lazy record view.

    Walks the containers task functions actually return (lists, tuples,
    dicts); anything else — including records a chunk fell back on —
    passes through untouched.
    """
    # exact-type checks first: chunk results are plain lists of plain
    # tuples, and the walk runs once per record on the parent's critical
    # path.  Subclasses (and dicts) take the isinstance fallbacks below.
    cls = node.__class__
    if cls is ArenaRef:
        tag_id, payload = records[node.index]
        return LazyWireRecord(payload, _DECODERS[tag_id])
    if cls is list:
        return [_substitute(item, records) for item in node]
    if cls is tuple:
        return tuple([_substitute(item, records) for item in node])
    if cls is dict:
        return {key: _substitute(item, records) for key, item in node.items()}
    if isinstance(node, ArenaRef):
        tag_id, payload = records[node.index]
        return LazyWireRecord(payload, _DECODERS[tag_id])
    if isinstance(node, list):
        return [_substitute(item, records) for item in node]
    if isinstance(node, tuple):
        return tuple(_substitute(item, records) for item in node)
    if isinstance(node, dict):
        return {key: _substitute(item, records) for key, item in node.items()}
    return node


# -- parent side -----------------------------------------------------------------


class ResultArena:
    """Parent-side owner of one batch's shared-memory result segment.

    Layout: ``slots`` headers (:data:`_HEADER` each) followed by ``slots``
    fixed-size payload regions.  Chunk ``i`` writes slot ``i % slots`` with
    generation ``i // slots + 1``; the backend's bounded in-flight window
    (``slots`` covers every chunk in flight) plus ordered collection
    guarantee the previous tenant of a ring position was collected before
    reuse.
    """

    def __init__(
        self, slots: int, slot_bytes: int = DEFAULT_SLOT_BYTES
    ) -> None:
        if slots < 1:
            raise ParameterError("arena needs at least one slot")
        if slot_bytes < _RECORD.size + 1:
            raise ParameterError("slot_bytes too small for any record")
        self.slots = slots
        self.slot_bytes = slot_bytes
        size = _HEADER.size * slots + slot_bytes * slots
        self._shm = shared_memory.SharedMemory(
            create=True, size=size, name=f"smarena_{os.urandom(8).hex()}"
        )
        # zero every header so generation 0 means "never committed"
        self._shm.buf[: _HEADER.size * slots] = bytes(_HEADER.size * slots)
        # SharedMemory.buf is a property; cache the memoryview (same
        # object, no extra export) so per-chunk collection skips it
        self._buf = self._shm.buf
        self._high_water = 0
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def slot_descriptor(self, chunk_index: int) -> SlotDescriptor:
        """The write target for submission ``chunk_index``."""
        return SlotDescriptor(
            name=self.name,
            slot=chunk_index % self.slots,
            generation=chunk_index // self.slots + 1,
            slot_bytes=self.slot_bytes,
            slots=self.slots,
        )

    def _collect(self, desc: SlotDescriptor, label: str) -> List[Tuple[int, bytes]]:
        """Snapshot one committed slot as ``(tag, payload)`` records.

        Raises :class:`~repro.errors.WorkerCrashError` when the slot header
        does not carry the expected generation (the worker never reached
        its commit point) or the committed counts are inconsistent with the
        slot geometry (a torn or corrupt commit).
        """
        generation, count, used = _HEADER.unpack_from(
            self._buf, _HEADER.size * desc.slot
        )
        if generation != desc.generation:
            raise WorkerCrashError(
                f"shared-memory slot {desc.slot} for {label!r} holds "
                f"generation {generation}, expected {desc.generation}: "
                f"worker never committed its records"
            )
        if used > desc.slot_bytes:
            raise WorkerCrashError(
                f"shared-memory slot {desc.slot} for {label!r} claims "
                f"{used} bytes of {desc.slot_bytes}: torn commit"
            )
        base = _HEADER.size * self.slots + self.slot_bytes * desc.slot
        # records are copied out one by one (`bytes` below), so the views
        # outlive the ring position without a whole-slot snapshot
        buf = self._buf
        records: List[Tuple[int, bytes]] = []
        offset = 0
        record_size = _RECORD.size
        unpack_record = _RECORD.unpack_from
        for _ in range(count):
            if offset + record_size > used:
                raise WorkerCrashError(
                    f"shared-memory slot {desc.slot} for {label!r}: record "
                    f"header past committed bytes (torn commit)"
                )
            tag, length = unpack_record(buf, base + offset)
            offset += record_size
            if tag not in _DECODERS or offset + length > used:
                raise WorkerCrashError(
                    f"shared-memory slot {desc.slot} for {label!r}: "
                    f"record {len(records)} is corrupt (torn commit)"
                )
            start = base + offset
            records.append((tag, bytes(buf[start : start + length])))
            offset += length
        if used > self._high_water:
            self._high_water = used
            metric_set(M_PARALLEL_SHM_OCCUPANCY, used)
        return records

    def resolve(self, value: Any, desc: SlotDescriptor, label: str) -> Any:
        """Swap every :class:`ArenaRef` in ``value`` for a lazy view.

        Walks the containers task functions actually return (lists, tuples,
        dicts); records the chunk fell back on pass through untouched.
        """
        if getattr(_trace_state, "tracer", None) is None:
            # skip span setup on the per-chunk path while tracing is off
            records = self._collect(desc, label)
        else:
            with span("arena.collect", slot=desc.slot):
                records = self._collect(desc, label)
        return _substitute(value, records)

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "ResultArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
