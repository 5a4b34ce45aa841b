"""Incremental, group-granular shard snapshots.

A snapshot captures shard state at a sequence number and **truncates the
WAL**: records up to that point are folded in and their log segment is
deleted.  Snapshots are *incremental* — a delta snapshot carries only the
groups that changed since its parent (each as its full membership) plus
tombstones for groups that emptied, chained back to the last **full**
snapshot.  Every ``full_every`` deltas the chain is compacted into a fresh
full snapshot and older files are reclaimed.

On-disk layout per shard directory::

    snap-00000003.bin    # chain: full or delta, self-describing
    wal-00000003.log     # ops accepted after snapshot 3

Recovery = load the chain (base full snapshot, then deltas in sequence
order, replacing or deleting whole groups) + replay the live WAL tail.
The invariants (docs/PERFORMANCE.md §6):

* a group's membership after recovery equals the last snapshotted
  membership with the WAL tail's put/remove records applied in order;
* replay is idempotent, so a batch redelivered after a worker crash
  cannot double-apply;
* corruption fails loudly as a typed
  :class:`~repro.errors.PersistenceError` — a digest mismatch or a broken
  chain never silently serves wrong matches.

All files are digest-protected and written atomically (tmp + rename +
directory fsync), so a crash mid-snapshot leaves the previous chain
intact.
"""

from __future__ import annotations

import os
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.scheme import EncryptedProfile
from repro.crypto.kdf import sha256
from repro.errors import PersistenceError
from repro.net.messages import UploadMessage, decode_message
from repro.obs.metrics import M_SHARD_SNAPSHOTS, metric_inc
from repro.utils.ct import constant_time_eq
from repro.utils.serial import FieldReader, FieldWriter

__all__ = [
    "SnapshotStore",
    "atomic_write",
    "fsync_directory",
    "load_snapshot",
    "write_snapshot",
]

_MAGIC = b"SMATCH-SHARD-SNAP"
_VERSION = 1

_SNAP_RE = re.compile(r"^snap-(\d{8})\.bin$")

#: Groups for one shard: key index -> {user id: profile}.
GroupTable = Dict[bytes, Dict[int, EncryptedProfile]]


@dataclass(frozen=True)
class _SnapshotFile:
    """One decoded snapshot: a full base or a delta over ``parent_seq``."""

    seq: int
    parent_seq: int  # predecessor sequence; linkage-checked only on deltas
    full: bool
    groups: GroupTable
    tombstones: Tuple[bytes, ...]


def _encode_snapshot(
    seq: int,
    parent_seq: int,
    full: bool,
    groups: GroupTable,
    tombstones: Iterable[bytes],
) -> bytes:
    body = FieldWriter()
    body.write_int(seq)
    body.write_int(parent_seq)
    body.write_int(1 if full else 0)
    body.write_int(len(groups))
    for key_index in sorted(groups):
        members = groups[key_index]
        body.write_bytes(key_index)
        body.write_int(len(members))
        for uid in sorted(members):
            body.write_bytes(UploadMessage(payload=members[uid]).encode())
    stones = sorted(tombstones)
    body.write_int(len(stones))
    for key_index in stones:
        body.write_bytes(key_index)
    payload = body.getvalue()

    out = FieldWriter()
    out.write_bytes(_MAGIC)
    out.write_int(_VERSION)
    out.write_bytes(sha256(b"shard-snapshot-digest", payload))
    out.write_bytes(payload)
    return out.getvalue()


def load_snapshot(path: Union[str, pathlib.Path]) -> _SnapshotFile:
    """Decode one snapshot file, validating magic, version, and digest."""
    file_path = pathlib.Path(path)
    reader = FieldReader(file_path.read_bytes())
    try:
        if reader.read_bytes() != _MAGIC:
            raise PersistenceError(
                f"{file_path.name}: not an S-MATCH shard snapshot"
            )
        fmt = reader.read_int()
        if fmt != _VERSION:
            raise PersistenceError(
                f"{file_path.name}: unsupported snapshot format {fmt}"
            )
        expected = reader.read_bytes()
        payload = reader.read_bytes()
        reader.expect_end()
    except PersistenceError:
        raise
    except Exception as exc:
        raise PersistenceError(
            f"{file_path.name}: malformed snapshot framing"
        ) from exc
    if not constant_time_eq(sha256(b"shard-snapshot-digest", payload), expected):
        raise PersistenceError(
            f"{file_path.name}: snapshot digest mismatch — file corrupted"
        )
    body = FieldReader(payload)
    seq = body.read_int()
    parent_seq = body.read_int()
    full = body.read_int() == 1
    groups: GroupTable = {}
    for _ in range(body.read_int()):
        key_index = body.read_bytes()
        members: Dict[int, EncryptedProfile] = {}
        for _ in range(body.read_int()):
            message = decode_message(body.read_bytes())
            if not isinstance(message, UploadMessage):
                raise PersistenceError(
                    f"{file_path.name}: snapshot carries a non-upload record"
                )
            members[message.payload.user_id] = message.payload
        groups[key_index] = members
    tombstones = tuple(body.read_bytes() for _ in range(body.read_int()))
    body.expect_end()
    return _SnapshotFile(
        seq=seq,
        parent_seq=parent_seq,
        full=full,
        groups=groups,
        tombstones=tombstones,
    )


def fsync_directory(directory: Union[str, pathlib.Path]) -> None:
    """Make a directory's entries (creates, renames) durable."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write(path: Union[str, pathlib.Path], data: bytes) -> None:
    """Replace ``path`` with ``data``: tmp + fsync + rename + directory fsync.

    A crash at any point leaves either the old file or the new one.
    """
    final = pathlib.Path(path)
    tmp = final.with_name(final.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    fsync_directory(final.parent)


def write_snapshot(
    directory: Union[str, pathlib.Path],
    seq: int,
    parent_seq: int,
    full: bool,
    groups: GroupTable,
    tombstones: Iterable[bytes],
) -> pathlib.Path:
    """Atomically write ``snap-<seq>.bin`` into ``directory``."""
    final = pathlib.Path(directory) / f"snap-{seq:08d}.bin"
    atomic_write(
        final, _encode_snapshot(seq, parent_seq, full, groups, tombstones)
    )
    metric_inc(M_SHARD_SNAPSHOTS)
    return final


class SnapshotStore:
    """The snapshot chain of one shard directory.

    Owns sequencing and retention: :meth:`latest_seq` names the live WAL
    segment, :meth:`write` appends a delta (or compacting full) snapshot,
    and :meth:`load_chain` folds the chain back into a group table for
    recovery.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> pathlib.Path:
        """The shard directory this chain lives in."""
        return self._dir

    def _sequence_numbers(self) -> List[int]:
        seqs = []
        for entry in self._dir.iterdir():
            match = _SNAP_RE.match(entry.name)
            if match:
                seqs.append(int(match.group(1)))
        return sorted(seqs)

    def latest_seq(self) -> int:
        """The newest snapshot sequence (0 when none exist)."""
        seqs = self._sequence_numbers()
        return seqs[-1] if seqs else 0

    def chain_length(self) -> int:
        """Snapshot files currently on disk (1 full base + its deltas)."""
        return len(self._sequence_numbers())

    def wal_path(self, seq: int) -> pathlib.Path:
        """The WAL segment holding ops accepted after snapshot ``seq``."""
        return self._dir / f"wal-{seq:08d}.log"

    def write(
        self,
        seq: int,
        parent_seq: int,
        full: bool,
        groups: GroupTable,
        tombstones: Iterable[bytes],
    ) -> pathlib.Path:
        """Write snapshot ``seq`` and reclaim superseded files.

        The superseded WAL segment (``wal-<parent_seq>``) is deleted —
        its records are folded into this snapshot — and a full snapshot
        additionally reclaims every older snapshot in the chain.
        """
        path = write_snapshot(
            self._dir, seq, parent_seq, full, groups, tombstones
        )
        stale_wal = self.wal_path(parent_seq)
        if stale_wal.exists():
            stale_wal.unlink()
        if full:
            for old_seq in self._sequence_numbers():
                if old_seq < seq:
                    (self._dir / f"snap-{old_seq:08d}.bin").unlink()
                    old_wal = self.wal_path(old_seq)
                    if old_wal.exists():
                        old_wal.unlink()
        return path

    def load_chain(self) -> Tuple[GroupTable, int]:
        """``(groups, latest_seq)`` after folding the snapshot chain.

        Deltas apply oldest-to-newest on top of the newest full snapshot:
        each replaces its changed groups wholesale and deletes its
        tombstoned ones.  A chain whose links do not connect (a delta
        whose parent is missing) is corruption and raises.
        """
        seqs = self._sequence_numbers()
        groups: GroupTable = {}
        if not seqs:
            return groups, 0
        snapshots = [
            load_snapshot(self._dir / f"snap-{seq:08d}.bin") for seq in seqs
        ]
        base_pos: Optional[int] = None
        for pos in range(len(snapshots) - 1, -1, -1):
            if snapshots[pos].full:
                base_pos = pos
                break
        if base_pos is None:
            raise PersistenceError(
                f"{self._dir.name}: snapshot chain has no full base"
            )
        previous_seq = 0
        for snap in snapshots[base_pos:]:
            if not snap.full and snap.parent_seq != previous_seq:
                raise PersistenceError(
                    f"{self._dir.name}: snapshot chain broken at "
                    f"seq {snap.seq} (parent {snap.parent_seq}, "
                    f"expected {previous_seq})"
                )
            for key_index, members in snap.groups.items():
                groups[key_index] = dict(members)
            for key_index in snap.tombstones:
                groups.pop(key_index, None)
            previous_seq = snap.seq
        return groups, seqs[-1]
