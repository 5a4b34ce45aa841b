"""Fuzz-style robustness tests: hostile bytes never crash the parsers.

Every decoder that reads server state back from disk — the shard snapshot,
the WAL frames and op records, the placement map — either raises a typed
:mod:`repro.errors` error or, for a WAL whose tail was torn, recovers a
clean prefix of what was committed.  Nothing else may escape.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.modes import AeadCiphertext, EtMCipher
from repro.errors import ReproError
from repro.server.sharding import PlacementMap, ShardWal
from repro.server.sharding.snapshot import load_snapshot, write_snapshot
from repro.server.sharding.wal import (
    decode_op,
    encode_put,
    encode_remove,
    replay_wal,
)
from repro.utils.serial import FieldReader


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def snapshot_bytes(enrolled, scratch):
    """A full snapshot of two groups plus a tombstone, as file bytes."""
    _, _, uploads, _ = enrolled
    first, second = list(uploads.values())[:2]
    groups = {
        first.key_index: {first.user_id: first},
        second.key_index: {second.user_id: second},
    }
    path = write_snapshot(scratch, 1, 0, True, groups, [b"\x07" * 32])
    return path.read_bytes()


@pytest.fixture(scope="module")
def wal_log(enrolled, scratch):
    """(file bytes, committed records) of a three-record WAL."""
    _, _, uploads, _ = enrolled
    payload = next(iter(uploads.values()))
    records = [
        encode_put(payload),
        encode_remove(payload.user_id),
        encode_put(dataclasses.replace(payload, chain=payload.chain[::-1])),
    ]
    path = scratch / "source.log"
    with ShardWal(path, fsync=False) as wal:
        for record in records:
            wal.append_record(record)
    return path.read_bytes(), tuple(records)


def _load_snapshot(directory, raw):
    path = directory / "candidate.bin"
    path.write_bytes(raw)
    return load_snapshot(path)


def _replay(directory, raw):
    path = directory / "candidate.log"
    path.write_bytes(raw)
    return replay_wal(path)


def _corrupt(raw, pos, xor):
    data = bytearray(raw)
    data[pos % len(data)] ^= xor
    return bytes(data)


class TestPersistenceFuzz:
    """The shard snapshot: the server's on-disk state format."""

    @given(st.binary(max_size=300))
    @settings(max_examples=80)
    def test_random_bytes_rejected_cleanly(self, scratch, raw):
        try:
            _load_snapshot(scratch, raw)
        except ReproError:
            pass

    @given(
        pos=st.integers(min_value=0, max_value=4000),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=80)
    def test_single_byte_corruption_detected(
        self, scratch, snapshot_bytes, pos, xor
    ):
        # the digest covers every byte that is not framing, so no single
        # corrupted byte may decode into a snapshot
        with pytest.raises(ReproError):
            _load_snapshot(scratch, _corrupt(snapshot_bytes, pos, xor))

    @given(cut=st.integers(min_value=0, max_value=4000))
    @settings(max_examples=60)
    def test_truncation_detected(self, scratch, snapshot_bytes, cut):
        cut %= len(snapshot_bytes)
        with pytest.raises(ReproError):
            _load_snapshot(scratch, snapshot_bytes[:cut])

    def test_intact_snapshot_decodes(self, scratch, snapshot_bytes):
        snap = _load_snapshot(scratch, snapshot_bytes)
        assert snap.full and len(snap.groups) == 2
        assert snap.tombstones == (b"\x07" * 32,)


class TestWalFuzz:
    @given(cut=st.integers(min_value=0, max_value=6000))
    @settings(max_examples=80)
    def test_truncated_log_recovers_a_committed_prefix(
        self, scratch, wal_log, cut
    ):
        raw, records = wal_log
        cut %= len(raw) + 1
        replay = _replay(scratch, raw[:cut])
        assert replay.records == records[: len(replay.records)]
        assert replay.valid_bytes <= cut
        assert replay.torn_tail == (replay.valid_bytes != cut)

    @given(
        pos=st.integers(min_value=0, max_value=6000),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=80)
    def test_bit_flip_raises_or_recovers_a_prefix(
        self, scratch, wal_log, pos, xor
    ):
        raw, records = wal_log
        try:
            replay = _replay(scratch, _corrupt(raw, pos, xor))
        except ReproError:
            return
        # the CRC never lets a damaged record through: what survives is
        # a prefix of the committed records, cut at the damage
        assert replay.torn_tail
        assert replay.records == records[: len(replay.records)]

    @given(st.binary(max_size=400))
    @settings(max_examples=80)
    def test_random_log_bytes_rejected_cleanly(self, scratch, raw):
        try:
            replay = _replay(scratch, raw)
        except ReproError:
            return
        for record in replay.records:
            try:
                decode_op(record)
            except ReproError:
                pass

    @given(st.binary(max_size=300))
    @settings(max_examples=80)
    def test_random_op_records_rejected_cleanly(self, raw):
        try:
            decode_op(raw)
        except ReproError:
            pass

    @given(
        pos=st.integers(min_value=0, max_value=4000),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60)
    def test_corrupted_op_record_raises_or_decodes(self, wal_log, pos, xor):
        _, records = wal_log
        try:
            decode_op(_corrupt(records[0], pos, xor))
        except ReproError:
            pass


class TestPlacementFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=80)
    def test_random_bytes_rejected_cleanly(self, raw):
        try:
            PlacementMap.decode(raw)
        except ReproError:
            pass

    @given(
        pos=st.integers(min_value=0, max_value=200),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=80)
    def test_corruption_raises_or_decodes_a_valid_map(self, pos, xor):
        raw = PlacementMap.build(3, version=2).encode()
        try:
            placement = PlacementMap.decode(_corrupt(raw, pos, xor))
        except ReproError:
            return
        assert placement.shard_of(b"\x01" * 32) < placement.shards

    @given(cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40)
    def test_truncation_rejected(self, cut):
        raw = PlacementMap.build(3, version=2).encode()
        with pytest.raises(ReproError):
            PlacementMap.decode(raw[: cut % len(raw)])

    def test_oversized_ring_rejected(self):
        # a map claiming a million shards must fail decoding rather than
        # hash a million ring points (the ring is passed in to skip that)
        huge = PlacementMap(version=1, shards=1 << 20, vnodes=1, _ring=((0, 0),))
        with pytest.raises(ReproError):
            PlacementMap.decode(huge.encode())


class TestAeadFuzz:
    @given(st.binary(min_size=48, max_size=200))
    @settings(max_examples=60)
    def test_random_ciphertexts_never_open(self, raw):
        cipher = EtMCipher(b"fuzz-key")
        sealed = AeadCiphertext.decode(raw)
        with pytest.raises(ReproError):
            cipher.open(sealed)

    @given(st.binary(max_size=47))
    @settings(max_examples=30)
    def test_short_ciphertexts_rejected(self, raw):
        with pytest.raises(ReproError):
            AeadCiphertext.decode(raw)


class TestFieldReaderFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=80)
    def test_reader_never_overreads(self, raw):
        reader = FieldReader(raw)
        try:
            while not reader.at_end():
                reader.read_bytes()
        except ReproError:
            pass
