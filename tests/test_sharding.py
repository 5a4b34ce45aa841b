"""Tests for the sharded, durable server tier (repro.server.sharding).

Covers the four layers bottom-up — placement ring, WAL, snapshot chain,
shard state — then the coordinator-level contracts: the cross-shard
equivalence matrix (a bare store + matcher reference vs shards=1 vs
shards=N vs process-backed shards vs a durable reopen, byte-identical
``QueryResult`` encodings) and kill-a-shard-mid-churn crash recovery
against that reference.
"""

import dataclasses
import os

import pytest

from repro.errors import (
    MatchingError,
    ParameterError,
    PersistenceError,
    ProtocolError,
    WorkerCrashError,
)
from repro.net.messages import (
    QueryRequest,
    QueryResult,
    ResultEntry,
    UploadMessage,
)
from repro.server.matcher import ServerMatcher
from repro.server.service import SMatchServer
from repro.server.sharding import (
    PlacementMap,
    ShardState,
    ShardWal,
    ShardedTier,
    SnapshotStore,
)
from repro.server.sharding.snapshot import load_snapshot, write_snapshot
from repro.server.sharding.wal import (
    OP_PUT,
    OP_REMOVE,
    decode_op,
    encode_put,
    encode_remove,
    replay_wal,
)
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource


def _drifted(payload, bump=1):
    """A re-upload of the same user whose OPE chain drifted slightly."""
    return dataclasses.replace(
        payload, chain=tuple(c + bump for c in payload.chain)
    )


def _moved(payload, key_index):
    """A re-upload whose fuzzy key landed in a different group."""
    return dataclasses.replace(payload, key_index=key_index)


@pytest.fixture(scope="module")
def payloads(enrolled):
    _, _, uploads, _ = enrolled
    return [uploads[uid] for uid in sorted(uploads)]


# -- placement -----------------------------------------------------------------


class TestPlacement:
    def test_deterministic_across_instances(self, payloads):
        a = PlacementMap.build(4)
        b = PlacementMap.decode(PlacementMap.build(4).encode())
        for payload in payloads:
            assert a.shard_of(payload.key_index) == b.shard_of(
                payload.key_index
            )

    def test_codec_roundtrip(self):
        original = PlacementMap.build(3, version=7, vnodes=16)
        decoded = PlacementMap.decode(original.encode())
        assert decoded == original

    def test_every_shard_owns_keys(self):
        rng = SystemRandomSource(seed=5)
        placement = PlacementMap.build(4)
        owners = {
            placement.shard_of(rng.randbytes(32)) for _ in range(256)
        }
        assert owners == {0, 1, 2, 3}

    def test_rebalanced_bumps_version_only_explicitly(self):
        placement = PlacementMap.build(2)
        successor = placement.rebalanced(4)
        assert successor.version == placement.version + 1
        assert successor.shards == 4
        # the original is immutable and untouched
        assert placement.shards == 2

    def test_moved_keys_only_reports_movers(self):
        rng = SystemRandomSource(seed=6)
        keys = [rng.randbytes(32) for _ in range(64)]
        placement = PlacementMap.build(2)
        same = placement.rebalanced(2)
        assert placement.moved_keys(same, keys) == {}
        grown = placement.rebalanced(3)
        moved = placement.moved_keys(grown, keys)
        assert moved  # something must land on the new shard
        for key, (old, new) in moved.items():
            assert old != new
            assert placement.shard_of(key) == old
            assert grown.shard_of(key) == new

    def test_validation(self):
        with pytest.raises(ParameterError):
            PlacementMap.build(0)
        with pytest.raises(ParameterError):
            PlacementMap.build(2).shard_of(b"short")
        with pytest.raises(ProtocolError):
            PlacementMap.decode(b"\x00\x00\x00\x04junk")


# -- WAL -----------------------------------------------------------------------


class TestWal:
    def test_append_commit_replay_roundtrip(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_remove(payloads[0].user_id))
            assert wal.commit() == 2
        replayed = replay_wal(path)
        assert not replayed.torn_tail
        op, profile = decode_op(replayed.records[0])
        assert op == OP_PUT and profile == payloads[0]
        op, uid = decode_op(replayed.records[1])
        assert op == OP_REMOVE and uid == payloads[0].user_id

    def test_uncommitted_appends_are_not_durable(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        wal = ShardWal(path, fsync=False)
        wal.append_record(encode_put(payloads[0]))
        wal.commit()
        wal.append_record(encode_put(payloads[1]))
        wal.rollback()
        wal.close()
        assert len(replay_wal(path).records) == 1

    def test_torn_tail_truncated_on_reopen(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.commit()
        intact = path.read_bytes()
        # crash mid-append: half a frame header lands on disk
        path.write_bytes(intact + b"\x00\x00")
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert replayed.valid_bytes == len(intact)
        assert len(replayed.records) == 1
        # reopening rolls the file back to the last commit point and the
        # next append continues from a clean boundary
        with ShardWal(path, fsync=False) as wal:
            assert wal.records_written == 1
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        replayed = replay_wal(path)
        assert not replayed.torn_tail
        assert len(replayed.records) == 2

    def test_truncated_final_body_is_torn_not_corrupt(
        self, payloads, tmp_path
    ):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert len(replayed.records) == 1

    def test_corrupt_crc_on_final_frame_is_torn_write(
        self, payloads, tmp_path
    ):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.commit()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        replayed = replay_wal(path)
        assert replayed.torn_tail
        assert replayed.records == ()

    def test_midlog_corruption_is_a_typed_error(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            wal.append_record(encode_put(payloads[0]))
            wal.append_record(encode_put(payloads[1]))
            wal.commit()
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # inside the first frame, with a frame following
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            replay_wal(path)

    def test_absurd_length_is_a_typed_error(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" + b"x" * 64)
        with pytest.raises(PersistenceError):
            replay_wal(path)

    def test_duplicate_replay_is_idempotent(self, payloads, tmp_path):
        path = tmp_path / "wal.log"
        with ShardWal(path, fsync=False) as wal:
            for payload in payloads[:4]:
                wal.append_record(encode_put(payload))
            wal.append_record(encode_remove(payloads[0].user_id))
            wal.commit()
        records = replay_wal(path).records
        store = ProfileStore()
        for _ in range(2):  # at-least-once redelivery
            for raw in records:
                op, value = decode_op(raw)
                if op == OP_PUT:
                    store.put(value)
                elif store.contains(value):
                    store.remove(value)
        assert len(store) == 3
        assert not store.contains(payloads[0].user_id)

    def test_unknown_op_is_a_typed_error(self):
        from repro.utils.serial import FieldWriter

        w = FieldWriter()
        w.write_int(99)
        with pytest.raises(PersistenceError):
            decode_op(w.getvalue())


# -- snapshots -----------------------------------------------------------------


def _group_table(payloads):
    groups = {}
    for payload in payloads:
        groups.setdefault(payload.key_index, {})[payload.user_id] = payload
    return groups


class TestSnapshots:
    def test_chain_folds_deltas_and_tombstones(self, payloads, tmp_path):
        store = SnapshotStore(tmp_path)
        groups = _group_table(payloads[:6])
        store.write(1, 0, True, groups, ())
        keys = list(groups)
        changed = {keys[0]: dict(groups[keys[0]])}
        removed_uid = next(iter(changed[keys[0]]))
        del changed[keys[0]][removed_uid]
        tombstones = [keys[-1]]
        if not changed[keys[0]]:
            # the member was its group's last: emptied groups travel as
            # tombstones, never as empty delta entries
            tombstones.append(keys[0])
            changed = {}
        store.write(2, 1, False, changed, tombstones)
        folded, seq = store.load_chain()
        assert seq == 2
        assert keys[-1] not in folded
        assert removed_uid not in folded.get(keys[0], {})

    def test_full_snapshot_compacts_the_chain(self, payloads, tmp_path):
        store = SnapshotStore(tmp_path)
        groups = _group_table(payloads[:4])
        store.write(1, 0, True, groups, ())
        store.write(2, 1, False, {}, ())
        store.write(3, 2, True, groups, ())
        assert store.chain_length() == 1
        assert store.latest_seq() == 3
        folded, seq = store.load_chain()
        assert seq == 3 and folded == groups

    def test_digest_corruption_is_a_typed_error(self, payloads, tmp_path):
        path = write_snapshot(
            tmp_path, 1, 0, True, _group_table(payloads[:3]), ()
        )
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_chain_without_full_base_is_a_typed_error(
        self, payloads, tmp_path
    ):
        write_snapshot(tmp_path, 2, 1, False, _group_table(payloads[:2]), ())
        with pytest.raises(PersistenceError):
            SnapshotStore(tmp_path).load_chain()

    def test_broken_chain_linkage_is_a_typed_error(self, payloads, tmp_path):
        groups = _group_table(payloads[:2])
        write_snapshot(tmp_path, 1, 0, True, groups, ())
        write_snapshot(tmp_path, 3, 2, False, groups, ())  # parent 2 missing
        with pytest.raises(PersistenceError):
            SnapshotStore(tmp_path).load_chain()


# -- shard state recovery ------------------------------------------------------


class TestShardStateRecovery:
    def test_snapshot_plus_tail_replay(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path, fsync=False)
        state.apply_ops([("put", p) for p in payloads[:6]])
        state.snapshot_now()
        # post-snapshot churn lives only in the WAL tail
        state.apply_ops(
            [
                ("put", _drifted(payloads[0])),
                ("remove", payloads[5].user_id),
                ("put", payloads[6]),
            ]
        )
        state.close()

        recovered = ShardState(0, directory=tmp_path, fsync=False)
        assert len(recovered.store) == 6
        assert not recovered.store.contains(payloads[5].user_id)
        assert recovered.store.get(payloads[0].user_id) == _drifted(
            payloads[0]
        )
        recovered.close()

    def test_snapshot_truncates_the_log(self, payloads, tmp_path):
        state = ShardState(0, directory=tmp_path, fsync=False)
        state.apply_ops([("put", p) for p in payloads[:5]])
        wal_files = list(tmp_path.glob("wal-*.log"))
        assert len(wal_files) == 1 and wal_files[0].stat().st_size > 0
        state.apply_ops([("snapshot",)])
        wal_files = list(tmp_path.glob("wal-*.log"))
        assert len(wal_files) == 1 and wal_files[0].stat().st_size == 0
        assert list(tmp_path.glob("snap-*.bin"))
        state.close()

    def test_snapshot_cadence_is_automatic(self, payloads, tmp_path):
        state = ShardState(
            0, directory=tmp_path, snapshot_every=4, fsync=False
        )
        state.apply_ops([("put", p) for p in payloads[:8]])
        assert SnapshotStore(tmp_path).latest_seq() >= 1
        state.close()

    def test_group_move_marks_both_groups_dirty(self, payloads, tmp_path):
        a, b = payloads[0], payloads[1]
        state = ShardState(0, directory=tmp_path, fsync=False)
        state.apply_ops([("put", a), ("put", b)])
        state.snapshot_now()
        # a's fuzzy key drifts into b's group: delta must cover both the
        # emptied old group (tombstone) and the grown new group
        state.apply_ops([("put", _moved(a, b.key_index))])
        state.snapshot_now()
        state.close()
        recovered = ShardState(0, directory=tmp_path, fsync=False)
        assert recovered.store.get(a.user_id).key_index == b.key_index
        assert len(recovered.store.group_by_index(b.key_index)) == 2
        assert recovered.store.group_by_index(a.key_index) == {}
        recovered.close()


# -- the equivalence matrix ----------------------------------------------------


def _churn_workload(payloads):
    """(mutations, queried-uids): upload all, drift some, move one, drop some."""
    uids = [p.user_id for p in payloads]
    other_key = payloads[-1].key_index
    ops = [("put", p) for p in payloads]
    ops += [("put", _drifted(p)) for p in payloads[::3]]
    ops += [("put", _moved(payloads[2], other_key))]
    ops += [("remove", uids[7]), ("remove", uids[11])]
    remaining = [u for u in uids if u not in (uids[7], uids[11])]
    return ops, remaining


def _reference_entries(store, matcher, uid, k=3, max_distance=None):
    """A single store + matcher's answer: the engine the tier shards."""
    try:
        if max_distance is not None:
            ids = matcher.match_within(uid, max_distance)
        else:
            ids = matcher.match(uid, k)
    except MatchingError:
        ids = []  # unknown user or singleton group: empty result
    return tuple(ResultEntry(user_id=u, auth=store.get(u).auth) for u in ids)


def _legacy_results(payloads, k=3):
    """The churn workload's encoded results from the reference engine."""
    store = ProfileStore()
    matcher = ServerMatcher(store)
    ops, remaining = _churn_workload(payloads)
    for op in ops:
        if op[0] == "put":
            store.put(op[1])
        else:
            store.remove(op[1])
    return {
        uid: QueryResult(
            query_id=uid,
            timestamp=3,
            entries=_reference_entries(store, matcher, uid, k=k),
        ).encode()
        for uid in remaining
    }


def _tier_results(tier, payloads, k=3):
    ops, remaining = _churn_workload(payloads)
    puts = []
    for op in ops:
        if op[0] == "put":
            puts.append(op[1])
        else:
            tier.put_batch(puts)
            puts = []
            tier.remove(op[1])
    if puts:
        tier.put_batch(puts)
    out = {}
    bulk = tier.query_bulk(remaining, k=k)
    for uid in remaining:
        single = tier.query(uid, k=k)
        assert single == bulk[uid]
        out[uid] = QueryResult(
            query_id=uid, timestamp=3, entries=bulk[uid]
        ).encode()
    return out


class TestEquivalenceMatrix:
    @pytest.fixture(scope="class")
    def oracle(self, payloads):
        return _legacy_results(payloads)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_inline_shards_match_legacy(self, payloads, oracle, shards):
        with ShardedTier(shards=shards, mode="inline") as tier:
            assert _tier_results(tier, payloads) == oracle

    def test_process_shards_match_legacy(self, payloads, oracle, tmp_path):
        with ShardedTier(
            shards=2, mode="process", data_dir=tmp_path, fsync=False
        ) as tier:
            assert _tier_results(tier, payloads) == oracle

    def test_durable_tier_reopen_matches_legacy(
        self, payloads, oracle, tmp_path
    ):
        with ShardedTier(
            shards=3, mode="inline", data_dir=tmp_path, fsync=False
        ) as tier:
            results = _tier_results(tier, payloads)
            assert results == oracle
        # cold reopen: snapshot chain + WAL tail + manifest routing rebuild
        with ShardedTier(
            shards=3, mode="inline", data_dir=tmp_path, fsync=False
        ) as reopened:
            _, remaining = _churn_workload(payloads)
            for uid in remaining:
                entries = reopened.query(uid, k=3)
                assert (
                    QueryResult(
                        query_id=uid, timestamp=3, entries=entries
                    ).encode()
                    == oracle[uid]
                )

    def test_default_server_matches_reference(self, payloads, oracle):
        # SMatchServer() is a one-shard inline tier behind handle_message
        with SMatchServer(query_k=3) as server:
            ops, remaining = _churn_workload(payloads)
            for op in ops:
                if op[0] == "put":
                    server.handle_message(UploadMessage(payload=op[1]))
                else:
                    server.tier.remove(op[1])
            assert server.tier.shards == 1
            for uid in remaining:
                result = server.handle_message(
                    QueryRequest(query_id=uid, timestamp=3, user_id=uid)
                )
                assert result.encode() == oracle[uid]

    def test_sharded_server_behind_handle_message(self, payloads, oracle):
        with SMatchServer(query_k=3, shards=3, shard_mode="inline") as server:
            ops, remaining = _churn_workload(payloads)
            for op in ops:
                if op[0] == "put":
                    server.handle_message(UploadMessage(payload=op[1]))
                else:
                    server.tier.remove(op[1])
            for uid in remaining:
                result = server.handle_message(
                    QueryRequest(query_id=uid, timestamp=3, user_id=uid)
                )
                assert result.encode() == oracle[uid]
            assert server.uploads_accepted == sum(
                1 for op in ops if op[0] == "put"
            )


# -- crash recovery ------------------------------------------------------------


class TestCrashRecovery:
    def test_kill_shard_mid_churn_converges_to_oracle(
        self, payloads, tmp_path
    ):
        oracle = _legacy_results(payloads)
        with ShardedTier(
            shards=2,
            mode="process",
            data_dir=tmp_path,
            fsync=False,
            snapshot_every=8,
        ) as tier:
            ops, remaining = _churn_workload(payloads)
            half = len(ops) // 2
            crashed = False

            def run(op):
                if op[0] == "put":
                    tier.put(op[1])
                else:
                    tier.remove(op[1])

            for op in ops[:half]:
                run(op)
            # hard-kill shard 0 mid-churn; the crash op dies on the retry
            # too, so the typed error escapes — exactly once
            try:
                tier._shards[0].apply([("crash",)])
            except WorkerCrashError:
                crashed = True
            assert crashed
            # churn continues: the next batch restarts the worker, which
            # recovers from its snapshot chain + WAL tail
            for op in ops[half:]:
                run(op)
            bulk = tier.query_bulk(remaining, k=3)
            for uid in remaining:
                assert (
                    QueryResult(
                        query_id=uid, timestamp=3, entries=bulk[uid]
                    ).encode()
                    == oracle[uid]
                )

    def test_crash_between_batches_loses_nothing(self, payloads, tmp_path):
        with ShardedTier(
            shards=1, mode="process", data_dir=tmp_path, fsync=False
        ) as tier:
            tier.put_batch(payloads[:10])
            with pytest.raises(WorkerCrashError):
                tier._shards[0].apply([("crash",)])
            sizes = tier.shard_sizes()
            assert sum(sizes[0]) == 10


# -- tier lifecycle ------------------------------------------------------------


class TestTierLifecycle:
    def test_placement_mismatch_refused_on_reopen(self, payloads, tmp_path):
        with ShardedTier(
            shards=2, mode="inline", data_dir=tmp_path, fsync=False
        ) as tier:
            tier.put_batch(payloads[:4])
        with pytest.raises(ParameterError):
            ShardedTier(shards=4, mode="inline", data_dir=tmp_path)

    def test_rebalance_is_explicit_and_versioned(self, payloads, tmp_path):
        tier = ShardedTier(
            shards=2, mode="inline", data_dir=tmp_path, fsync=False
        )
        tier.put_batch(payloads)
        before = {
            uid: tier.query(uid, k=3) for uid in (p.user_id for p in payloads)
        }
        old_version = tier.placement.version
        tier.rebalance(4)
        assert tier.placement.version == old_version + 1
        assert tier.shards == 4
        total = sum(sum(sizes) for sizes in tier.shard_sizes().values())
        assert total == len(payloads)
        for uid, entries in before.items():
            assert tier.query(uid, k=3) == entries
        tier.close()
        # the successor map is what a reopen must now be asked for
        reopened = ShardedTier(
            shards=4, mode="inline", data_dir=tmp_path, fsync=False
        )
        assert len(reopened) == len(payloads)
        reopened.close()

    def test_rebalance_down_drains_dropped_shards(self, payloads):
        tier = ShardedTier(shards=3, mode="inline")
        tier.put_batch(payloads)
        tier.rebalance(1)
        assert tier.shards == 1
        sizes = tier.shard_sizes()
        assert sum(sizes[0]) == len(payloads)
        tier.close()

    def test_unknown_users(self, payloads):
        with ShardedTier(shards=2, mode="inline") as tier:
            tier.put_batch(payloads[:3])
            assert tier.query(999_999, k=3) == ()
            assert tier.query_bulk([999_999], k=3) == {999_999: ()}
            with pytest.raises(MatchingError):
                tier.remove(999_999)

    def test_import_profiles_matches_uploads(self, payloads):
        uids = [p.user_id for p in payloads]
        with ShardedTier(shards=3, mode="inline") as uploaded:
            for payload in payloads:
                uploaded.put(payload)
            expected = {uid: uploaded.query(uid, k=3) for uid in uids}
        with ShardedTier(shards=2, mode="inline") as imported:
            imported.import_profiles(payloads)
            assert len(imported) == len(payloads)
            total = sum(sum(s) for s in imported.shard_sizes().values())
            assert total == len(payloads)
            assert {uid: imported.query(uid, k=3) for uid in uids} == expected

    def test_validation(self):
        with pytest.raises(ParameterError):
            ShardedTier(shards=0)
        with pytest.raises(ParameterError):
            ShardedTier(shards=1, mode="quantum")

    def test_max_distance_queries_route_too(self, payloads):
        store = ProfileStore()
        matcher = ServerMatcher(store)
        for payload in payloads:
            store.put(payload)
        with ShardedTier(shards=3, mode="inline") as tier:
            tier.put_batch(payloads)
            for payload in payloads[:8]:
                assert tier.query(
                    payload.user_id, max_distance=4
                ) == _reference_entries(
                    store, matcher, payload.user_id, max_distance=4
                )


# -- fsync discipline ----------------------------------------------------------


@pytest.fixture
def sync_log(monkeypatch):
    """Every ``os.fsync`` (by inode) and ``os.replace`` (by target name)."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestFsync:
    def test_placement_synced_before_and_after_its_rename(
        self, payloads, tmp_path, sync_log
    ):
        tier = ShardedTier(
            shards=2, mode="inline", data_dir=tmp_path, fsync=False
        )
        tier.put_batch(payloads)
        tier.rebalance(3)
        tier.close()
        file_inode = (tmp_path / "placement.bin").stat().st_ino
        dir_inode = tmp_path.stat().st_ino
        renames = [
            n for n, event in enumerate(sync_log)
            if event == ("replace", "placement.bin")
        ]
        assert len(renames) == 2  # the initial map and the rebalanced one
        last = renames[-1]
        assert ("fsync", file_inode) in sync_log[renames[0] + 1 : last]
        assert sync_log[last + 1] == ("fsync", dir_inode)

    def test_new_wal_segment_syncs_its_directory(self, tmp_path, sync_log):
        dir_inode = tmp_path.stat().st_ino
        ShardWal(tmp_path / "wal-00000000.log", fsync=True).close()
        assert sync_log == [("fsync", dir_inode)]
        sync_log.clear()
        # reopening an existing segment creates no directory entry
        ShardWal(tmp_path / "wal-00000000.log", fsync=True).close()
        assert sync_log == []
        # and fsync=False never syncs, new segment or not
        ShardWal(tmp_path / "wal-00000001.log", fsync=False).close()
        assert sync_log == []

    def test_snapshot_rotation_syncs_the_new_segment(
        self, payloads, tmp_path, sync_log
    ):
        state = ShardState(0, directory=tmp_path, fsync=True)
        state.apply_ops([("put", p) for p in payloads[:3]])
        sync_log.clear()
        state.snapshot_now()
        state.close()
        dir_inode = tmp_path.stat().st_ino
        rename = sync_log.index(("replace", "snap-00000001.bin"))
        # the snapshot rename and the new WAL segment each sync the directory
        assert sync_log[rename + 1] == ("fsync", dir_inode)
        assert sync_log[rename + 2 :].count(("fsync", dir_inode)) == 1
