"""Per-layer tracing, recorded from the benchmark's side of each boundary.

:class:`LayerTracer` wraps the public entry points of each layer (class
attributes and module-level functions) for the duration of a traced phase
and restores them afterwards, so the untraced phases run the program
exactly as shipped.  Every wrapped call records a span — id, parent id,
name, start and duration in integer microseconds — and each workload
operation is one root span, so a layer's self time is its span minus the
parts its child spans cover.  Spans go through ``repro.obs.analysis``
(``folded_stacks`` and ``top_table``, both built on ``build_forest``) in
bounded chunks, and the folded self times of every chunk must add up to the
recorded durations of its root spans.

Durations come from microsecond-truncated *timestamps* (not truncated
durations), so nested spans never overhang their parents and truncation
error does not pile up in the parents' self time.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.net.channel
import repro.net.messages
import repro.server.sharding.snapshot
import repro.server.sharding.wal
from repro.core.chaining import AttributeChainer
from repro.core.entropy import BigJumpMapper
from repro.core.verification import Verifier
from repro.crypto.modes import EtMCipher
from repro.crypto.ope import OPE
from repro.crypto.oprf import RsaOprfClient
from repro.net.channel import SecureChannel
from repro.net.messages import QueryRequest, QueryResult, UploadMessage
from repro.obs.analysis import folded_stacks, top_table
from repro.obs.instrument import counting
from repro.rs.fuzzy import FuzzyExtractor
from repro.server.keyservice import KeyGenService
from repro.server.matcher import ServerMatcher
from repro.server.service import SMatchServer
from repro.server.sharding.state import ShardDurability, ShardState
from repro.server.sharding.tier import ShardedTier
from repro.server.sharding.wal import ShardWal
from repro.server.storage import ProfileStore

#: Flush recorded spans through the analysis layer once this many pile up
#: (between operations), bounding the traced run's memory.
FLUSH_RECORDS = 40_000

Hook = Callable[[Counter, Tuple[Any, ...], Any], None]


def _count_bytes(key: str) -> Hook:
    def hook(tallies: Counter, args: Tuple[Any, ...], result: Any) -> None:
        tallies[key] += result if isinstance(result, int) else len(result)

    return hook


def _count_wal_bytes(tallies: Counter, args: Tuple[Any, ...], result: Any) -> None:
    # one framed record: the (length, crc32) header plus the payload
    tallies["wal.bytes"] += repro.server.sharding.wal._FRAME.size + len(args[1])


def _count_replayed(tallies: Counter, args: Tuple[Any, ...], result: Any) -> None:
    tallies["recovery.replayed_records"] += len(result[1])


def _count_snapshot_bytes(
    tallies: Counter, args: Tuple[Any, ...], result: Any
) -> None:
    tallies["snapshot.bytes_written"] += os.path.getsize(result)


#: (owner, attribute, span name or None for a tally-only wrapper, hook).
#: decode_message is looked up as a module global by each caller, so it is
#: wrapped in every module that imported it.
TARGETS: List[Tuple[Any, str, Optional[str], Optional[Hook]]] = [
    (FuzzyExtractor, "key_material", "rs.key_material", None),
    (RsaOprfClient, "blind", "oprf.client", None),
    (RsaOprfClient, "finalize", "oprf.client", None),
    (KeyGenService, "handle_message", "keyservice.evaluate", None),
    (BigJumpMapper, "map_profile", "entropy.map", None),
    (AttributeChainer, "chain", "chaining.chain", None),
    (OPE, "encrypt", "ope.encrypt", None),
    (Verifier, "auth", "verification.auth", None),
    (Verifier, "verify", "verification.vf", None),
    (EtMCipher, "seal", "aead.seal", None),
    (EtMCipher, "open", "aead.open", None),
    (SecureChannel, "send", "channel.send", _count_bytes("channel.bytes")),
    (SecureChannel, "recv", "channel.recv", None),
    (UploadMessage, "encode", "codec.encode", _count_bytes("codec.bytes")),
    (QueryRequest, "encode", "codec.encode", _count_bytes("codec.bytes")),
    (QueryResult, "encode", "codec.encode", _count_bytes("codec.bytes")),
    (repro.net.messages, "decode_message", "codec.decode", None),
    (repro.net.channel, "decode_message", "codec.decode", None),
    (repro.server.sharding.wal, "decode_message", "codec.decode", None),
    (repro.server.sharding.snapshot, "decode_message", "codec.decode", None),
    (SMatchServer, "handle_upload", "service.handle_upload", None),
    (SMatchServer, "handle_query", "service.handle_query", None),
    (ServerMatcher, "match", "matcher.match", None),
    (ProfileStore, "put", "store.put", None),
    (ShardedTier, "put_batch", "tier.route", None),
    (ShardedTier, "query", "tier.route", None),
    (ShardState, "apply_ops", "shard.apply", None),
    (ShardWal, "append_record", "wal.append", _count_wal_bytes),
    (ShardWal, "commit", "wal.commit", None),
    (ShardDurability, "snapshot", "snapshot", None),
    (repro.server.sharding.snapshot, "write_snapshot", None, _count_snapshot_bytes),
    (ShardState, "__init__", "recovery", None),
    (ShardDurability, "recover", None, _count_replayed),
]


class LayerTracer:
    """Span recorder plus the aggregate of everything flushed so far."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.tallies: Counter = Counter()
        self.ops: Counter = Counter()
        self.rows: Dict[str, Dict[str, int]] = {}
        self.root_us = 0
        self.folded_us = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._origin = perf_counter_ns()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int], int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, perf_counter_ns()

    def _close(self, name: str, span_id: int, parent: Optional[int], start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        start_us = (start - self._origin) // 1000
        self.records.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_us": start_us,
                "duration_us": (end - self._origin) // 1000 - start_us,
            }
        )

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """One workload operation: a root span."""
        opened = self._open()
        try:
            yield
        finally:
            self._close("op." + name, *opened)

    def _wrap(self, original: Callable, name: Optional[str], hook: Optional[Hook]) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = original(*args, **kwargs)
            else:
                opened = tracer._open()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(name, *opened)
            if hook is not None:
                hook(tracer.tallies, args, result)
            return result

        return traced

    @contextmanager
    def traced(self) -> Iterator[None]:
        """Install every wrapper and count program ops; undo on exit."""
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        try:
            with counting() as counter:
                yield
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self.ops.update(counter.counts)
            self.flush()

    # -- analysis -------------------------------------------------------------

    def maybe_flush(self) -> None:
        """Flush between operations once the record buffer is large."""
        if len(self.records) >= FLUSH_RECORDS and not self._stack:
            self.flush()

    def flush(self) -> None:
        """Fold buffered spans into per-name rows through repro.obs.analysis."""
        if not self.records:
            return
        self.root_us += sum(
            record["duration_us"] for record in self.records if record["parent"] is None
        )
        self.folded_us += sum(folded_stacks(self.records).values())
        for row in top_table(self.records):
            acc = self.rows.setdefault(
                row["name"], {"calls": 0, "self_us": 0, "total_us": 0}
            )
            for key in acc:
                acc[key] += row[key]
        self.records.clear()

    def self_us(self, name: str) -> int:
        """Summed self time of every span called ``name``."""
        return self.rows.get(name, {}).get("self_us", 0)

    def calls(self, name: str) -> int:
        """How many spans called ``name`` were recorded."""
        return self.rows.get(name, {}).get("calls", 0)

    def render(self, per_op: int) -> str:
        """The self-time table by layer, per operation, largest first."""
        rows = sorted(self.rows.items(), key=lambda kv: (-kv[1]["self_us"], kv[0]))
        width = max([len(name) for name, _ in rows] + [5])
        lines = [
            f"{'layer'.ljust(width)}  {'self_us/op':>11}  {'calls/op':>9}  {'share':>6}"
        ]
        for name, row in rows:
            lines.append(
                f"{name.ljust(width)}  {row['self_us'] / per_op:11.2f}  "
                f"{row['calls'] / per_op:9.3f}  "
                f"{100 * row['self_us'] / max(1, self.root_us):5.1f}%"
            )
        lines.append(
            f"folded self time {self.folded_us} us, roots {self.root_us} us"
        )
        return "\n".join(lines)


class NoTrace:
    """The untraced stand-in: operations are not wrapped in spans."""

    def op(self, name: str):
        return nullcontext()

    def traced(self):
        return nullcontext()

    def maybe_flush(self) -> None:
        pass
