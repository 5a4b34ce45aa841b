"""Tests for server-state persistence.

The server's on-disk state is the durable tier's per-shard snapshot chain
plus write-ahead log (:mod:`repro.server.sharding`).  These tests pin the
snapshot codec's round trip, its corruption handling, and a server that
is closed, reopened from disk and churned.
"""

import dataclasses

import pytest

from repro.errors import PersistenceError
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.matcher import ServerMatcher
from repro.server.service import SMatchServer
from repro.server.sharding.snapshot import load_snapshot, write_snapshot
from repro.server.storage import ProfileStore
from repro.utils.serial import FieldReader, FieldWriter


@pytest.fixture
def loaded_store(enrolled):
    _, _, uploads, _ = enrolled
    store = ProfileStore()
    for payload in uploads.values():
        store.put(payload)
    return store


def _save(store, directory):
    """Write ``store`` as one full snapshot; returns its path."""
    groups = {key_index: members for key_index, members in store.groups()}
    return write_snapshot(directory, 1, 0, True, groups, ())


def _restore(path):
    restored = ProfileStore()
    for members in load_snapshot(path).groups.values():
        for payload in members.values():
            restored.put(payload)
    return restored


def _query(server, uid, query_id=1):
    return server.handle_query(
        QueryRequest(query_id=query_id, timestamp=0, user_id=uid)
    )


class TestRoundtrip:
    def test_bytes_roundtrip(self, loaded_store, tmp_path):
        restored = _restore(_save(loaded_store, tmp_path))
        assert len(restored) == len(loaded_store)
        assert restored.group_sizes() == loaded_store.group_sizes()
        for uid, payload in loaded_store.all_profiles().items():
            assert restored.get(uid) == payload

    def test_file_roundtrip(self, loaded_store, tmp_path):
        path = _save(loaded_store, tmp_path)
        assert path.name == "snap-00000001.bin"
        assert not path.with_name(path.name + ".tmp").exists()
        restored = _restore(path)
        assert restored.all_profiles() == loaded_store.all_profiles()

    def test_empty_store(self, tmp_path):
        assert len(_restore(_save(ProfileStore(), tmp_path))) == 0

    def test_restored_server_answers_queries(self, enrolled, tmp_path):
        _, users, uploads, _ = enrolled
        server = SMatchServer(query_k=3, data_dir=tmp_path)
        for payload in uploads.values():
            server.handle_upload(UploadMessage(payload=payload))
        uids = [user.profile.user_id for user in users]
        original = [_query(server, uid).encode() for uid in uids]
        server.close()

        with SMatchServer(query_k=3, data_dir=tmp_path) as fresh:
            assert [_query(fresh, uid).encode() for uid in uids] == original


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "snap-00000001.bin"
        path.write_bytes(b"\x00\x00\x00\x04junk")
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_flipped_payload_bit_detected(self, loaded_store, tmp_path):
        path = _save(loaded_store, tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_wrong_version(self, loaded_store, tmp_path):
        path = _save(loaded_store, tmp_path)
        # the format version follows the magic field; rewrite it
        reader = FieldReader(path.read_bytes())
        magic = reader.read_bytes()
        reader.read_int()
        digest = reader.read_bytes()
        payload = reader.read_bytes()
        w = FieldWriter()
        w.write_bytes(magic)
        w.write_int(99)
        w.write_bytes(digest)
        w.write_bytes(payload)
        path.write_bytes(w.getvalue())
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_truncated_file(self, loaded_store, tmp_path):
        path = _save(loaded_store, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistenceError):
            load_snapshot(path)


class TestReopen:
    """close -> reopen from disk -> churn -> query."""

    def test_reopen_churn_query(self, enrolled, tmp_path):
        _, _, uploads, _ = enrolled
        store = ProfileStore()
        for payload in uploads.values():
            store.put(payload)
        members = next(
            (members for _, members in store.groups() if len(members) >= 3),
            None,
        )
        if members is None:
            pytest.skip("population produced no group with 3+ members")
        uid_query, uid_remove, uid_drift = sorted(members)[:3]

        server = SMatchServer(query_k=3, data_dir=tmp_path)
        for payload in uploads.values():
            server.handle_upload(UploadMessage(payload=payload))
        _query(server, uid_query)  # warm the group index before closing
        server.close()

        with SMatchServer(query_k=3, data_dir=tmp_path) as reopened:
            _query(reopened, uid_query)
            reopened.tier.remove(uid_remove)
            drifted = dataclasses.replace(
                members[uid_drift],
                chain=tuple(c + 1 for c in members[uid_drift].chain),
            )
            reopened.handle_upload(UploadMessage(payload=drifted))
            churned = _query(reopened, uid_query, query_id=2)

        # oracle: a cold matcher over the same final contents
        store.remove(uid_remove)
        store.put(drifted)
        oracle = ServerMatcher(store)
        assert [e.user_id for e in churned.entries] == oracle.match(
            uid_query, 3
        )
        assert uid_remove not in {e.user_id for e in churned.entries}
