"""One shard's live state: store + matcher + WAL/snapshot durability.

A :class:`ShardState` is the unit that runs inside a shard worker process
(or inline, the default): its own
:class:`~repro.server.storage.ProfileStore` and
:class:`~repro.server.matcher.ServerMatcher`, plus an optional
:class:`ShardDurability` wiring the write-ahead log and snapshot chain
underneath every mutation.

The batch protocol (:meth:`ShardState.apply_ops`) is a list of plain
tuples — the picklable shape the coordinator ships across the process
boundary:

``("put", profile)``
    insert/replace one encrypted profile (WAL-logged);
``("remove", user_id)``
    delete one profile — **tolerant** of an already-absent user, so
    at-least-once redelivery after a crash converges;
``("query", user_id, k)``
    kNN match → a tuple of :class:`~repro.net.messages.ResultEntry`
    (empty for an unknown user or singleton group);
``("query_within", user_id, max_distance)``
    MAX-distance match, same result shape;
``("manifest",)``
    ``((user_id, key_index), ...)`` — the routing table the coordinator
    rebuilds from after reopening a durable tier;
``("export_group", key_index)``
    one group's stored profiles — the rebalance path;
``("sizes",)``
    the shard's group sizes;
``("snapshot",)``
    force a snapshot now (tests and explicit compaction);
``("crash",)``
    hard-kill the process via ``os._exit`` — the recovery-drill hook the
    kill-shard-mid-churn tests use; never emitted by the coordinator.

Write-ahead ordering: each mutation is appended to the WAL buffer *before*
it is applied, and the whole batch is made durable by one fsync'd
:meth:`~repro.server.sharding.wal.ShardWal.commit` after the last op.  A
crash anywhere before the commit loses the entire batch (the process dies
with it), so the coordinator's retry-once-on-crash policy plus tolerant
replay gives exactly the convergence the equivalence tests pin.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union, cast

from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError
from repro.net.messages import ResultEntry
from repro.obs.metrics import (
    M_SHARD_OPS,
    M_SHARD_QUERIES,
    M_SHARD_RECOVERIES,
    M_SHARD_WAL_REPLAYED,
    metric_inc,
)
from repro.server.matcher import ServerMatcher
from repro.server.sharding.snapshot import GroupTable, SnapshotStore
from repro.server.sharding.wal import (
    OP_PUT,
    ShardWal,
    decode_op,
    encode_put,
    encode_remove,
    replay_wal,
)
from repro.server.storage import ProfileStore

__all__ = ["ShardDurability", "ShardState"]

#: Shard op: a plain tuple, first element the op name (see module docs).
ShardOp = Tuple[object, ...]

#: Snapshot cadence defaults: snapshot after this many WAL records, and
#: compact the delta chain into a full snapshot once it grows this long.
DEFAULT_SNAPSHOT_EVERY = 256
DEFAULT_FULL_EVERY = 4


class ShardDurability:
    """The WAL + snapshot-chain pair of one shard directory.

    Single-writer: exactly one live :class:`ShardState` may own a shard
    directory at a time (the tier guarantees this — one worker per shard).
    :meth:`recover` is the only entry point that opens the log, so the
    torn-tail truncation and the snapshot-chain fold always happen
    together, in the right order.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        fsync: bool = True,
        full_every: int = DEFAULT_FULL_EVERY,
    ) -> None:
        if full_every < 1:
            raise ParameterError("full_every must be >= 1")
        self._snapshots = SnapshotStore(directory)
        self._fsync = fsync
        self._full_every = full_every
        self._seq = self._snapshots.latest_seq()
        self._wal: Optional[ShardWal] = None

    @property
    def directory(self) -> pathlib.Path:
        """The shard directory (snapshots + live WAL segment)."""
        return self._snapshots.directory

    def recover(self) -> Tuple[GroupTable, Tuple[bytes, ...]]:
        """``(snapshot groups, WAL tail records)`` and open the live log.

        The WAL tail is scanned *before* :class:`ShardWal` truncates any
        torn tail away, so the returned records are exactly the committed
        suffix the caller replays on top of the snapshot chain.
        """
        groups, seq = self._snapshots.load_chain()
        self._seq = seq
        tail = replay_wal(self._snapshots.wal_path(seq))
        self._wal = ShardWal(self._snapshots.wal_path(seq), fsync=self._fsync)
        return groups, tail.records

    def _live_wal(self) -> ShardWal:
        if self._wal is None:
            raise ParameterError("durability not recovered (or closed)")
        return self._wal

    def log_put(self, payload: EncryptedProfile) -> None:
        """Buffer a put record (durable at the next :meth:`commit`)."""
        self._live_wal().append_record(encode_put(payload))

    def log_remove(self, user_id: int) -> None:
        """Buffer a remove record (durable at the next :meth:`commit`)."""
        self._live_wal().append_record(encode_remove(user_id))

    def commit(self) -> int:
        """Make all buffered records durable; returns the record count."""
        return self._live_wal().commit()

    def rollback(self) -> None:
        """Drop buffered, uncommitted records after a failed batch."""
        if self._wal is not None:
            self._wal.rollback()

    def snapshot(
        self, store: ProfileStore, dirty: Set[bytes], force_full: bool = False
    ) -> None:
        """Write the next snapshot in the chain and rotate the WAL.

        A delta carries only the ``dirty`` groups (full membership each)
        plus tombstones for the ones that emptied; the chain compacts into
        a full snapshot when it reaches ``full_every`` files (and the very
        first snapshot is always full — a chain needs a full base).
        """
        is_full = (
            force_full
            or self._seq == 0
            or self._snapshots.chain_length() >= self._full_every
        )
        groups: GroupTable = {}
        tombstones: List[bytes] = []
        if is_full:
            for key_index, members in store.groups():
                groups[key_index] = dict(members)
        else:
            for key_index in dirty:
                members = store.group_by_index(key_index)
                if members:
                    groups[key_index] = members
                else:
                    tombstones.append(key_index)
        new_seq = self._seq + 1
        self._live_wal().close()
        self._wal = None
        self._snapshots.write(new_seq, self._seq, is_full, groups, tombstones)
        self._seq = new_seq
        self._wal = ShardWal(
            self._snapshots.wal_path(new_seq), fsync=self._fsync
        )

    def close(self) -> None:
        """Commit and close the live WAL segment (idempotent)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None


class ShardState:
    """One shard's store + matcher, with optional durability underneath."""

    def __init__(
        self,
        shard_id: int,
        order_method: str = "rank",
        directory: Optional[Union[str, pathlib.Path]] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        full_every: int = DEFAULT_FULL_EVERY,
        fsync: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ParameterError("snapshot_every must be >= 1")
        self.shard_id = shard_id
        self.store = ProfileStore()
        self.matcher = ServerMatcher(self.store, order_method=order_method)
        self._dirty: Set[bytes] = set()
        self._snapshot_every = snapshot_every
        self._records_since_snapshot = 0
        self._durability: Optional[ShardDurability] = None
        if directory is not None:
            durability = ShardDurability(
                directory, fsync=fsync, full_every=full_every
            )
            self._durability = durability
            self._recover(durability)

    def _recover(self, durability: ShardDurability) -> None:
        groups, tail = durability.recover()
        for members in groups.values():
            for payload in members.values():
                self.store.put(payload)
        for raw in tail:
            op, value = decode_op(raw)
            if op == OP_PUT:
                self.store.put(cast(EncryptedProfile, value))
            else:
                user_id = cast(int, value)
                # tolerant: a redelivered remove of an absent user is a no-op
                if self.store.contains(user_id):
                    self.store.remove(user_id)
        # replayed records count toward the snapshot cadence so a shard
        # that crashes right before every snapshot still converges to one
        self._records_since_snapshot = len(tail)
        if groups or tail:
            metric_inc(M_SHARD_WAL_REPLAYED, len(tail))
            metric_inc(M_SHARD_RECOVERIES)

    # -- mutations -------------------------------------------------------------

    def _put(self, payload: EncryptedProfile) -> None:
        durability = self._durability
        if durability is None:
            self.store.put(payload)
            return
        # dirty groups only feed the next delta snapshot
        if self.store.contains(payload.user_id):
            self._dirty.add(self.store.get(payload.user_id).key_index)
        durability.log_put(payload)
        self.store.put(payload)
        self._dirty.add(payload.key_index)

    def _remove(self, user_id: int) -> None:
        if not self.store.contains(user_id):
            return  # tolerant: replay/redelivery idempotence
        if self._durability is not None:
            self._dirty.add(self.store.get(user_id).key_index)
            self._durability.log_remove(user_id)
        self.store.remove(user_id)

    # -- queries ---------------------------------------------------------------

    def _entries(self, matches: Sequence[int]) -> Tuple[ResultEntry, ...]:
        return tuple(
            ResultEntry(user_id=uid, auth=self.store.get(uid).auth)
            for uid in matches
        )

    def _query(self, user_id: int, k: int) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(self.matcher.match(user_id, k))
        except MatchingError:
            return ()  # unknown user or singleton group: empty result

    def _query_within(
        self, user_id: int, max_distance: int
    ) -> Tuple[ResultEntry, ...]:
        try:
            return self._entries(
                self.matcher.match_within(user_id, max_distance)
            )
        except MatchingError:
            return ()

    # -- the batch protocol ----------------------------------------------------

    def apply_ops(self, ops: Sequence[ShardOp]) -> List[object]:
        """Apply one op batch in order; one result slot per op.

        Mutations are WAL-buffered as they apply and committed once at the
        end of the batch; a failed op rolls the uncommitted buffer back
        before the error propagates, so the log never holds records from a
        batch the coordinator saw fail.
        """
        results: List[object] = []
        mutations = 0
        queries = 0
        try:
            for op in ops:
                kind = op[0]
                if kind == "put":
                    self._put(cast(EncryptedProfile, op[1]))
                    mutations += 1
                    results.append(None)
                elif kind == "remove":
                    self._remove(int(op[1]))  # type: ignore[arg-type]
                    mutations += 1
                    results.append(None)
                elif kind == "query":
                    queries += 1
                    results.append(
                        self._query(int(op[1]), int(op[2]))  # type: ignore[arg-type]
                    )
                elif kind == "query_within":
                    queries += 1
                    results.append(
                        self._query_within(int(op[1]), int(op[2]))  # type: ignore[arg-type]
                    )
                elif kind == "manifest":
                    results.append(
                        tuple(
                            (uid, key_index)
                            for key_index, members in self.store.groups()
                            for uid in sorted(members)
                        )
                    )
                elif kind == "export_group":
                    key_index = cast(bytes, op[1])
                    results.append(
                        tuple(
                            self.store.group_by_index(key_index).values()
                        )
                    )
                elif kind == "sizes":
                    results.append(tuple(self.store.group_sizes()))
                elif kind == "snapshot":
                    self.snapshot_now()
                    results.append(None)
                elif kind == "crash":
                    os._exit(21)  # recovery-drill hook: die mid-batch
                else:
                    raise ParameterError(f"unknown shard op {kind!r}")
        except BaseException:
            if self._durability is not None:
                self._durability.rollback()
            raise
        if self._durability is not None:
            committed = self._durability.commit()
            self._records_since_snapshot += committed
            if self._records_since_snapshot >= self._snapshot_every:
                self.snapshot_now()
        if mutations:
            metric_inc(M_SHARD_OPS, mutations)
        if queries:
            metric_inc(M_SHARD_QUERIES, queries)
        return results

    def snapshot_now(self, full: bool = False) -> None:
        """Snapshot immediately (no-op without durability)."""
        if self._durability is None:
            return
        self._durability.snapshot(self.store, self._dirty, force_full=full)
        self._dirty.clear()
        self._records_since_snapshot = 0

    def close(self) -> None:
        """Flush and close the durability layer (idempotent)."""
        if self._durability is not None:
            self._durability.close()
