"""The three workloads: one closed-loop caller driving the public surfaces.

Each workload builds its world in :meth:`setup` (timed by the runner as
``setup_s``), then answers :meth:`step` — one operation, timed phase by
phase with ``perf_counter_ns`` — until the run's time is up.  Output checks
run after the timed phases of the operation they check, and
:meth:`finish` runs the end-of-run drills (``durable_churn``'s close and
reopen).  A step returns ``""`` when its outputs check out and a reason
otherwise; a typed program error counts as a failed operation too.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import shutil
from time import perf_counter_ns
from typing import Dict, List, MutableSequence, Tuple

import repro.net.messages as messages
from repro.client.remote_keygen import RemoteKeygenClient
from repro.core.scheme import EncryptedProfile
from repro.net.channel import SecureChannel
from repro.net.messages import QueryRequest, UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.server.keyservice import KeyGenService
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

from world import (
    QUERY_K,
    GroupModel,
    build_base_world,
    drifted,
    result_mismatch,
    tiled_population,
)

#: Phase names; every operation appends one sample to some of them.
PHASES = ("enroll_us", "upload_us", "query_us", "verify_us")

#: Keyservice rate-limit window: each session is a new window on the
#: simulated clock, as if every phone ran one session per window.
KEYSERVICE_WINDOW_S = 3600


def _warm(server: SMatchServer, model: GroupModel) -> None:
    """Query one member of every group so no match index is cold."""
    for number, members in enumerate(model.groups.values()):
        uid = next(iter(members))
        server.handle_query(QueryRequest(query_id=number, timestamp=0, user_id=uid))


def _describe(model: GroupModel) -> Dict[str, int]:
    sizes = sorted(len(members) for members in model.groups.values())
    return {
        "profiles": len(model),
        "groups": len(sizes),
        "group_size_median": sizes[len(sizes) // 2],
        "group_size_max": sizes[-1],
    }


@dataclasses.dataclass
class Phone:
    """One user's device: its profile, OPRF client and two channels."""

    name: str
    profile: object
    keygen: RemoteKeygenClient
    keyservice_side: SecureChannel  # the key service's end of the phone's channel
    to_server: SecureChannel
    server_side: SecureChannel


class ClientSession:
    """Figure 2 for one phone at a time, over secure in-memory channels."""

    name = "client_session"

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.ope_cache = None

    def setup(self) -> None:
        """Enroll the base population, preload and warm the server, pair phones."""
        base = build_base_world(self.seed)
        self.scheme = base.scheme
        self.ope_cache = base.scheme.ope_cache
        self.server = SMatchServer(query_k=QUERY_K)
        for uid in sorted(base.uploads):
            self.server.handle_upload(UploadMessage(payload=base.uploads[uid]))
        self.model = GroupModel([base.uploads[uid] for uid in sorted(base.uploads)])
        _warm(self.server, self.model)
        self.keyservice = KeyGenService(oprf_server=base.scheme.oprf_server)
        network = InMemoryNetwork()
        keyservice_end = network.endpoint("keyservice")
        server_end = network.endpoint("server")
        keys = random.Random(self.seed ^ 0xC4A7)
        self.phones: Dict[int, Phone] = {}
        for user in base.users:
            uid = user.profile.user_id
            # only phones whose group can fill a k-result list: every session
            # then verifies QUERY_K entries, so Vf work per session is fixed
            if len(self.model.group_of(uid)) <= QUERY_K:
                continue
            end = network.endpoint(f"phone-{uid}")
            key_a, key_b = keys.randbytes(32), keys.randbytes(32)
            to_keyservice = SecureChannel(
                end, "keyservice", key_a, rng=SystemRandomSource(seed=keys.getrandbits(64))
            )
            phone = Phone(
                name=end.name,
                profile=user.profile,
                keygen=RemoteKeygenClient(
                    base.scheme.params.fuzzy_params,
                    to_keyservice,
                    rng=SystemRandomSource(seed=keys.getrandbits(64)),
                ),
                keyservice_side=SecureChannel(
                    keyservice_end, end.name, key_a,
                    rng=SystemRandomSource(seed=keys.getrandbits(64)),
                ),
                to_server=SecureChannel(
                    end, "server", key_b, rng=SystemRandomSource(seed=keys.getrandbits(64))
                ),
                server_side=SecureChannel(
                    server_end, end.name, key_b,
                    rng=SystemRandomSource(seed=keys.getrandbits(64)),
                ),
            )
            request = phone.keygen.request_public_key()
            self._serve_keyservice(phone, now=0)
            phone.keygen.receive_public_key(request)
            self.phones[uid] = phone
        if not self.phones:
            raise RuntimeError("no key group can fill a k-result list")
        self.phone_ids = sorted(self.phones)
        self.sessions = 0
        self.acked_upload_bytes = 0  # uploads travel sealed; only disk_amp uses it

    def describe(self) -> Dict[str, int]:
        """The preloaded population and how many phones run sessions."""
        return {**_describe(self.model), "phones": len(self.phones)}

    def _serve_keyservice(self, phone: Phone, now: int) -> None:
        side = phone.keyservice_side
        side.send(self.keyservice.handle_message(phone.name, side.recv(), now=now))

    def step(self, rng: random.Random, samples: Dict[str, MutableSequence[int]], trace) -> str:
        uid = rng.choice(self.phone_ids)
        phone = self.phones[uid]
        self.sessions += 1
        number = self.sessions
        scheme = self.scheme
        with trace.op("session"):
            t0 = perf_counter_ns()
            state = phone.keygen.begin_derivation(phone.profile)
            self._serve_keyservice(phone, now=number * KEYSERVICE_WINDOW_S)
            key = phone.keygen.finish_derivation(state)
            payload = EncryptedProfile(
                user_id=uid,
                key_index=key.index,
                chain=scheme.encrypt(phone.profile, key),
                auth=scheme.auth(phone.profile, key),
            )
            t1 = perf_counter_ns()
            phone.to_server.send(UploadMessage(payload=payload))
            ack = self.server.handle_message(phone.server_side.recv())
            t2 = perf_counter_ns()
            phone.to_server.send(
                QueryRequest(query_id=number, timestamp=number, user_id=uid)
            )
            phone.server_side.send(self.server.handle_message(phone.server_side.recv()))
            t3 = perf_counter_ns()
            result = phone.to_server.recv()
            accepted = [
                entry.auth.user_id == entry.user_id and scheme.verify(entry.auth, key)
                for entry in result.entries
            ]
            t4 = perf_counter_ns()
        samples["enroll_us"].append(t1 - t0)
        samples["upload_us"].append(t2 - t1)
        samples["query_us"].append(t3 - t2)
        samples["verify_us"].append(t4 - t3)
        if ack is not None:
            return f"session {number}: upload answered with {type(ack).__name__}"
        moved = key.index != self.model.profiles[uid].key_index
        self.model.put(payload)
        if moved:
            return f"session {number}: phone {uid} derived another group's key"
        if not all(accepted) or len(accepted) != QUERY_K:
            return f"session {number}: Vf accepted {sum(accepted)} of {len(accepted)}"
        return result_mismatch(self.model, uid, result.entries)

    def finish(self, trace) -> Tuple[Dict[str, float], List[str]]:
        return {}, []

    def close(self) -> None:
        self.server.close()


class ServeRead:
    """A ~20k-profile in-memory server fed wire bytes: 90% queries."""

    name = "serve_read"
    upload_share = 0.10
    move_share = 0.0
    check_every = 50  # queries between oracle checks

    def __init__(self, seed: int, work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.ope_cache = None

    def open_server(self) -> SMatchServer:
        return SMatchServer(query_k=QUERY_K)

    def preload(self, payloads: List[EncryptedProfile]) -> None:
        """Upload every profile as wire bytes.

        The server then holds its own decoded copies, as it does for every
        later upload, so memory does not drift with how many users the run
        happens to re-upload.
        """
        for payload in payloads:
            self.server.handle_message(
                messages.decode_message(UploadMessage(payload=payload).encode())
            )

    def setup(self) -> None:
        """Enroll and tile the population, open, preload and warm the server."""
        base = build_base_world(self.seed)
        payloads = tiled_population(base, self.seed)
        self.server = self.open_server()
        self.preload(payloads)
        self.model = GroupModel(payloads)
        _warm(self.server, self.model)
        self.uids = sorted(self.model.profiles)
        self.group_keys = sorted(self.model.groups)
        self.messages = 0
        self.queries = 0
        self.acked_upload_bytes = 0

    def describe(self) -> Dict[str, int]:
        """The preloaded population."""
        return _describe(self.model)

    def _next_upload(self, rng: random.Random, uid: int) -> EncryptedProfile:
        current = self.model.profiles[uid]
        changes = {"chain": drifted(current.chain, rng)}
        if rng.random() < self.move_share:
            target = rng.choice(self.group_keys)
            if target != current.key_index:
                changes["key_index"] = target
        return dataclasses.replace(current, **changes)

    def step(self, rng: random.Random, samples: Dict[str, MutableSequence[int]], trace) -> str:
        uid = rng.choice(self.uids)
        self.messages += 1
        number = self.messages
        if rng.random() < self.upload_share:
            payload = self._next_upload(rng, uid)
            with trace.op("upload"):
                t0 = perf_counter_ns()
                raw = UploadMessage(payload=payload).encode()
                t1 = perf_counter_ns()
                ack = self.server.handle_message(messages.decode_message(raw))
                t2 = perf_counter_ns()
            samples["enroll_us"].append(t1 - t0)
            samples["upload_us"].append(t2 - t1)
            self.model.put(payload)
            self.acked_upload_bytes += len(raw)
            if ack is not None:
                return f"message {number}: upload answered with {type(ack).__name__}"
            return ""
        request = QueryRequest(query_id=number, timestamp=number, user_id=uid).encode()
        with trace.op("query"):
            t0 = perf_counter_ns()
            raw = self.server.handle_message(messages.decode_message(request)).encode()
            t1 = perf_counter_ns()
            result = messages.decode_message(raw)
            t2 = perf_counter_ns()
        samples["query_us"].append(t1 - t0)
        samples["verify_us"].append(t2 - t1)
        self.queries += 1
        if result.query_id != number:
            return f"message {number}: result carries query id {result.query_id}"
        if self.queries % self.check_every:
            return ""
        return result_mismatch(self.model, uid, result.entries)

    def finish(self, trace) -> Tuple[Dict[str, float], List[str]]:
        return {}, []

    def close(self) -> None:
        self.server.close()


class DurableChurn(ServeRead):
    """The same population on a 2-shard durable tier: 80% uploads."""

    name = "durable_churn"
    upload_share = 0.80
    move_share = 0.10
    #: users whose query results must survive the close/reopen byte for byte
    durability_sample = 64
    shards = 2

    def open_server(self) -> SMatchServer:
        return SMatchServer(
            query_k=QUERY_K,
            shards=self.shards,
            shard_mode="inline",
            data_dir=self.data_dir,
        )

    def setup(self) -> None:
        self.data_dir = self.work_dir / "data"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        super().setup()

    def preload(self, payloads: List[EncryptedProfile]) -> None:
        """Bulk-load decoded copies of the profiles' wire bytes."""
        wires = [UploadMessage(payload=payload).encode() for payload in payloads]
        self.preload_bytes = sum(map(len, wires))
        self.server.tier.import_profiles(
            [messages.decode_message(raw).payload for raw in wires]
        )

    def _sample_results(self, users: List[int]) -> List[bytes]:
        return [
            self.server.handle_message(
                QueryRequest(query_id=n, timestamp=0, user_id=uid)
            ).encode()
            for n, uid in enumerate(users)
        ]

    def finish(self, trace) -> Tuple[Dict[str, float], List[str]]:
        """Close and reopen from ``data_dir``; check nothing acknowledged is lost.

        ``trace`` records the reopen only (its own tracer in traced runs).
        """
        users = random.Random(self.seed ^ 0xD00D).sample(self.uids, self.durability_sample)
        before = self._sample_results(users)
        problems = []
        for n, uid in enumerate(users):
            reason = result_mismatch(
                self.model, uid, messages.decode_message(before[n]).entries
            )
            if reason:
                problems.append("before close: " + reason)
        with trace.traced(), trace.op("reopen"):
            t0 = perf_counter_ns()
            self.server.close()
            self.server = self.open_server()
            recover_ns = perf_counter_ns() - t0
        if len(self.server.tier) != len(self.model):
            problems.append(
                f"reopened with {len(self.server.tier)} profiles, model has {len(self.model)}"
            )
        after = self._sample_results(users)
        lost = sum(a != b for a, b in zip(before, after))
        if lost:
            problems.append(f"{lost} of {len(users)} results changed across reopen")
        disk = sum(f.stat().st_size for f in self.data_dir.rglob("*") if f.is_file())
        return {
            "recover_s": recover_ns / 1e9,
            "disk_amp": disk / (self.preload_bytes + self.acked_upload_bytes),
        }, problems

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClientSession, ServeRead, DurableChurn)}
