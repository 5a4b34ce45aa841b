"""Cross-backend equivalence and failure-surfacing tests (repro.parallel).

The contract under test: for seeded work, every backend — serial, thread,
process — produces **byte-identical** results for any worker count and any
chunking, because chunk boundaries are a pure function of (batch size,
chunk_size) and results are collected in submission order.  On top of that:
the batched OPRF path returns identical evaluations across backends, a
crashing worker surfaces a typed :class:`~repro.errors.WorkerCrashError`
without deadlocking (and the pool recovers), and the resolution /
deprecation plumbing behaves.
"""

from __future__ import annotations

import os

import pytest

from repro.core.profile import Profile, ProfileSchema
from repro.core.scheme import SMatch, SMatchParams
from repro.crypto.oprf import RsaOprfServer
from repro.errors import (
    ParallelError,
    ParameterError,
    WorkerCrashError,
)
from repro.net.oprf_messages import BatchedBlindEvalRequest
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    TaskEnvelope,
    ThreadBackend,
    balanced_chunk_size,
    default_backend,
    partition_chunks,
    resolve_backend,
    set_default_backend,
)
from repro.server.keyservice import KeyGenService
from repro.server.matcher import ServerMatcher
from repro.server.storage import ProfileStore
from repro.utils.rand import SystemRandomSource

SCHEMA = ProfileSchema.uniform(["a", "b", "c"], 1 << 12)


def _scheme() -> SMatch:
    return SMatch(
        SMatchParams(schema=SCHEMA, theta=8, plaintext_bits=64),
        rng=SystemRandomSource(41),
    )


@pytest.fixture(scope="module")
def profiles():
    return [
        Profile(i, SCHEMA, (40 + i, 400 + 3 * i, 4000 + 7 * i))
        for i in range(1, 10)
    ]


def _assert_same(result_a, result_b):
    uploads_a, keys_a = result_a
    uploads_b, keys_b = result_b
    assert set(uploads_a) == set(uploads_b)
    for uid in uploads_a:
        assert uploads_a[uid] == uploads_b[uid]
        assert keys_a[uid].key == keys_b[uid].key
        assert keys_a[uid].index == keys_b[uid].index


# -- deterministic partitioning ------------------------------------------------


class TestPartitioning:
    def test_contiguous_chunks(self):
        assert partition_chunks([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert partition_chunks([], 3) == []

    def test_chunk_size_validated(self):
        with pytest.raises(ParameterError):
            partition_chunks([1], 0)

    def test_balanced_chunk_size(self):
        assert balanced_chunk_size(10, 4) == 3
        assert balanced_chunk_size(0, 4) == 1
        assert balanced_chunk_size(5, 1) == 5
        with pytest.raises(ParameterError):
            balanced_chunk_size(5, 0)


# -- cross-backend enrollment equivalence --------------------------------------


class TestEnrollmentEquivalence:
    @pytest.fixture(scope="class")
    def serial_result(self, profiles):
        return _scheme().enroll_population(profiles, backend="serial", seed=77)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_thread_backend_matches_serial(
        self, profiles, serial_result, workers, chunk_size
    ):
        result = _scheme().enroll_population(
            profiles,
            backend=ThreadBackend(workers),
            seed=77,
            chunk_size=chunk_size,
        )
        _assert_same(serial_result, result)

    @pytest.mark.parametrize("workers,chunk_size", [(2, None), (2, 2), (3, 1)])
    def test_process_backend_matches_serial(
        self, profiles, serial_result, workers, chunk_size
    ):
        with ProcessBackend(workers, mp_context="fork") as backend:
            assert backend.shm_enabled  # arena transport is the default
            result = _scheme().enroll_population(
                profiles, backend=backend, seed=77, chunk_size=chunk_size
            )
        _assert_same(serial_result, result)

    def test_process_backend_matches_serial_without_shm(
        self, profiles, serial_result
    ):
        # same batch with the arena transport forced off: byte-identical
        # either way, so the transport is pure mechanism
        with ProcessBackend(2, mp_context="fork", shm=False) as backend:
            result = _scheme().enroll_population(
                profiles, backend=backend, seed=77, chunk_size=2
            )
        _assert_same(serial_result, result)

    def test_other_seed_differs(self, profiles, serial_result):
        other = _scheme().enroll_population(
            profiles, backend="serial", seed=78
        )
        uploads_a, _ = serial_result
        uploads_b, _ = other
        assert any(uploads_a[uid] != uploads_b[uid] for uid in uploads_a)

    def test_unseeded_backend_run_deterministic_under_seeded_scheme(
        self, profiles
    ):
        a = _scheme().enroll_population(profiles, backend=ThreadBackend(2))
        b = _scheme().enroll_population(profiles, backend=ThreadBackend(3))
        _assert_same(a, b)


# -- batched OPRF equivalence --------------------------------------------------


class TestBatchedOprfEquivalence:
    @pytest.fixture(scope="class")
    def oprf_and_batch(self):
        rng = SystemRandomSource(3)
        oprf = RsaOprfServer(bits=512, rng=rng)
        blinded = tuple(rng.getrandbits(64) for _ in range(12))
        return oprf, blinded

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: None,  # serial inline path
            lambda: SerialBackend(),
            lambda: ThreadBackend(3),
            lambda: ProcessBackend(2, mp_context="fork"),
        ],
    )
    def test_batched_eval_identical(self, oprf_and_batch, backend_factory):
        oprf, blinded = oprf_and_batch
        reference = tuple(oprf.evaluate_blinded(b) for b in blinded)
        service = KeyGenService(
            oprf_server=oprf,
            max_requests_per_window=100,
            backend=backend_factory(),
            parallel_threshold=4,
        )
        response = service.handle_message(
            "c", BatchedBlindEvalRequest(request_id=1, blinded=blinded)
        )
        assert response.evaluated == reference
        assert service.evaluations_served == len(blinded)

    def test_small_batches_stay_serial(self, oprf_and_batch):
        oprf, blinded = oprf_and_batch

        class ExplodingBackend:
            name = "exploding"
            workers = 4

            def map_chunks(self, envelope, chunks):
                raise AssertionError("small batch must not fan out")

            def close(self):
                pass

        service = KeyGenService(
            oprf_server=oprf,
            max_requests_per_window=100,
            backend=ExplodingBackend(),
            parallel_threshold=8,
        )
        response = service.handle_message(
            "c", BatchedBlindEvalRequest(request_id=1, blinded=blinded[:3])
        )
        assert response.evaluated == tuple(
            oprf.evaluate_blinded(b) for b in blinded[:3]
        )


# -- bulk matching -------------------------------------------------------------


class TestQueryBulk:
    @pytest.fixture(scope="class")
    def server_and_users(self):
        scheme = SMatch(
            SMatchParams(schema=SCHEMA, theta=1, plaintext_bits=64),
            rng=SystemRandomSource(41),
        )
        # identical attribute values -> one key group for everyone
        profiles = [Profile(i, SCHEMA, (40, 400, 4000)) for i in range(1, 9)]
        uploads, _ = scheme.enroll_population(
            profiles, backend="serial", seed=9
        )
        store = ProfileStore()
        matcher = ServerMatcher(store)
        for payload in uploads.values():
            store.put(payload)
        return matcher, sorted(uploads)

    def test_bulk_matches_per_user_match(self, server_and_users):
        matcher, users = server_and_users
        singles = {u: matcher.match(u, 3) for u in users}
        assert matcher.query_bulk(users, 3) == singles

    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_bulk_identical_across_backends(self, server_and_users, chunk_size):
        matcher, users = server_and_users
        serial = matcher.query_bulk(
            users, 3, backend="serial", chunk_size=chunk_size
        )
        threaded = matcher.query_bulk(
            users, 3, backend=ThreadBackend(3), chunk_size=chunk_size
        )
        with ProcessBackend(2, mp_context="fork") as backend:
            processed = matcher.query_bulk(
                users, 3, backend=backend, chunk_size=chunk_size
            )
        assert serial == threaded == processed

    def test_bulk_identical_without_shm_context(self, server_and_users):
        # the shared-segment context shipping is mechanism only: forcing
        # the per-worker pickle path changes nothing about the results
        matcher, users = server_and_users
        serial = matcher.query_bulk(users, 3, backend="serial")
        with ProcessBackend(2, mp_context="fork", shm=False) as backend:
            assert (
                matcher.query_bulk(users, 3, backend=backend) == serial
            )

    def test_unknown_user_rejected_up_front(self, server_and_users):
        from repro.errors import MatchingError

        matcher, users = server_and_users
        with pytest.raises(MatchingError):
            matcher.query_bulk(users + [99999], 3)


# -- failure surfacing ---------------------------------------------------------


def _crash_task(context, chunk):
    os._exit(13)


def _double_task(context, chunk):
    return [value * 2 for value in chunk]


class TestFailureSurfacing:
    def test_worker_crash_raises_typed_error_without_deadlock(self):
        with ProcessBackend(2, mp_context="fork") as backend:
            envelope = TaskEnvelope(fn=_crash_task, label="crash-test")
            with pytest.raises(WorkerCrashError):
                backend.map_chunks(envelope, [[1], [2], [3]])
            # the broken pool was discarded: the next call restarts workers
            healthy = TaskEnvelope(fn=_double_task, label="recovery")
            assert backend.map_chunks(healthy, [[1, 2], [3]]) == [[2, 4], [6]]

    def test_unpicklable_envelope_is_a_typed_error(self):
        local_fn = lambda context, chunk: chunk  # noqa: E731
        with ProcessBackend(2, mp_context="fork") as backend:
            with pytest.raises(ParallelError):
                backend.map_chunks(
                    TaskEnvelope(fn=local_fn, label="unpicklable"), [[1]]
                )

    def test_task_exceptions_propagate_unchanged(self):
        def boom(context, chunk):
            raise ParameterError("inner failure")

        backend = ThreadBackend(2)
        with pytest.raises(ParameterError):
            backend.map_chunks(TaskEnvelope(fn=boom, label="boom"), [[1], [2]])
        backend.close()


# -- resolution and defaults ---------------------------------------------------


class TestResolution:
    def test_names_resolve(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("thread", 3).workers == 3
        assert resolve_backend("process", 2).workers == 2
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            resolve_backend("gpu")
        with pytest.raises(ParameterError):
            resolve_backend(42)

    def test_env_variable_default(self, monkeypatch):
        set_default_backend(None)
        monkeypatch.delenv("SMATCH_BACKEND", raising=False)
        assert default_backend() is None
        monkeypatch.setenv("SMATCH_BACKEND", "thread")
        backend = default_backend()
        assert backend is not None and backend.name == "thread"
        # cached per name across call sites
        assert default_backend() is backend

    def test_explicit_default_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SMATCH_BACKEND", "thread")
        try:
            installed = set_default_backend("serial")
            assert default_backend() is installed
        finally:
            set_default_backend(None)

    def test_workers_validated(self):
        with pytest.raises(ParameterError):
            ThreadBackend(0)
        with pytest.raises(ParameterError):
            ProcessBackend(2, max_inflight=0)


# -- cross-backend telemetry equivalence ---------------------------------------


def _telemetry_scheme() -> SMatch:
    # expansion_bits > 0 gives the OPE descent real split points, so the
    # node cache is exercised and its counters are non-trivially non-zero
    return SMatch(
        SMatchParams(
            schema=SCHEMA, theta=8, plaintext_bits=32, ope_expansion_bits=8
        ),
        rng=SystemRandomSource(41),
    )


@pytest.fixture(scope="module")
def distinct_profiles():
    # every pair far outside theta: each profile lands in its own key
    # group, so the OPE cache namespaces (keyed per ProfileKey) are
    # chunk-local and hit/miss totals cannot depend on which worker's
    # cache served a lookup — the property that makes the counters
    # backend-invariant
    return [
        Profile(
            i,
            SCHEMA,
            (400 * i % 4096, (700 * i + 13) % 4096, (1100 * i + 29) % 4096),
        )
        for i in range(1, 10)
    ]


def _traced_enroll(backend, distinct_profiles):
    """Enroll under a fresh tracer + registry; returns (uploads, counters,
    span records, root ops)."""
    from repro.obs.metrics import (
        MetricsRegistry,
        disable_metrics,
        enable_metrics,
    )
    from repro.obs.trace import tracing

    registry = enable_metrics(MetricsRegistry())
    try:
        with tracing("test.enroll") as tracer:
            uploads, _ = _telemetry_scheme().enroll_population(
                distinct_profiles, backend=backend, seed=99, chunk_size=3
            )
        records = [
            __import__("json").loads(line)
            for line in tracer.to_jsonl().splitlines()
        ]
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    root_ops = next(r["ops"] for r in records if r["parent"] is None)
    return uploads, counters, records, root_ops


class TestTelemetryEquivalence:
    """Counters and span forests are truthful across execution backends.

    ``smatch_parallel_*``, ``smatch_ope_cache_*_total``, and
    ``smatch_enroll_*`` measure the *work*, so a seeded batch must report
    identical totals whether it ran serially, on GIL threads, or fanned
    out to worker processes; only ``smatch_obs_worker_spans_total`` (the
    collection mechanism) legitimately differs, and gauges like cache
    ``entries`` may (one big serial cache vs per-worker caches merged by
    max).  Worker spans splice into the parent trace under the submitting
    span, tagged with the worker's identity.
    """

    _WORK_PREFIXES = ("smatch_parallel_", "smatch_ope_cache_", "smatch_enroll_")
    #: transport-mechanism counters: like smatch_obs_worker_spans_total,
    #: the shared-memory arena tallies measure how results *moved*, not the
    #: work itself, so they legitimately exist only on the process backend
    _MECHANISM_PREFIXES = ("smatch_parallel_shm_",)

    @classmethod
    def _work_counters(cls, counters):
        return {
            name: value
            for name, value in counters.items()
            if name.startswith(cls._WORK_PREFIXES)
            and not name.startswith(cls._MECHANISM_PREFIXES)
        }

    @pytest.fixture(scope="class")
    def serial_telemetry(self, distinct_profiles):
        return _traced_enroll(SerialBackend(), distinct_profiles)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_counters_match_serial(
        self, kind, serial_telemetry, distinct_profiles
    ):
        if kind == "thread":
            backend = ThreadBackend(4)
        else:
            backend = ProcessBackend(4, mp_context="fork")
        with backend:
            uploads, counters, _, root_ops = _traced_enroll(
                backend, distinct_profiles
            )
        s_uploads, s_counters, _, s_root_ops = serial_telemetry
        assert uploads == s_uploads
        assert self._work_counters(counters) == self._work_counters(s_counters)
        # the cache genuinely ran: equality of zeros would prove nothing
        assert counters["smatch_ope_cache_hits_total"] > 0
        assert counters["smatch_parallel_chunks_total"] == 3
        assert counters["smatch_parallel_tasks_total"] == 9
        # ops folded through spliced worker spans reach the root intact
        assert root_ops == s_root_ops

    def test_process_worker_spans_spliced_and_tagged(self, distinct_profiles):
        with ProcessBackend(4, mp_context="fork") as backend:
            _, counters, records, _ = _traced_enroll(
                backend, distinct_profiles
            )
        chunk_spans = [r for r in records if r["name"] == "parallel.chunk"]
        assert len(chunk_spans) == 3  # one per chunk
        map_ids = {r["id"] for r in records if r["name"] == "parallel.map"}
        for record in chunk_spans:
            assert record["parent"] in map_ids
            assert record["attrs"]["worker"].startswith("pid-")
            assert record["attrs"]["label"] == "scheme.enroll_population"
        # every spliced span (chunk roots plus the worker-side subtrees
        # under them) is counted by the collection-mechanism metric
        parents = {r["id"]: r.get("parent") for r in records}
        chunk_ids = {r["id"] for r in chunk_spans}

        def in_worker_subtree(span_id):
            while span_id is not None:
                if span_id in chunk_ids:
                    return True
                span_id = parents.get(span_id)
            return False

        spliced = sum(1 for r in records if in_worker_subtree(r["id"]))
        assert counters["smatch_obs_worker_spans_total"] == spliced >= 3

    def test_thread_worker_spans_not_lost(self, distinct_profiles):
        # regression guard: thread workers run off the submitting thread,
        # so without capture+splice their spans silently vanished
        with ThreadBackend(4) as backend:
            _, counters, records, _ = _traced_enroll(
                backend, distinct_profiles
            )
        chunk_spans = [r for r in records if r["name"] == "parallel.chunk"]
        assert len(chunk_spans) == 3
        for record in chunk_spans:
            assert record["attrs"]["worker"]  # thread name
        assert counters["smatch_obs_worker_spans_total"] >= 3
        # per-chunk enroll work nests under the spliced chunk spans
        chunk_ids = {r["id"] for r in chunk_spans}
        assert any(r["parent"] in chunk_ids for r in records)

    def test_serial_has_no_worker_span_accounting(self, serial_telemetry):
        _, counters, records, _ = serial_telemetry
        assert "smatch_obs_worker_spans_total" not in counters
        assert all("worker" not in r["attrs"] for r in records)

    def test_envelope_obs_false_disables_capture(self, distinct_profiles):
        from repro.obs.trace import tracing

        chunks = partition_chunks(list(range(6)), chunk_size=2)
        envelope = TaskEnvelope(
            fn=lambda _, chunk: [x * x for x in chunk],
            context=None,
            label="square",
            obs=False,
        )
        with ThreadBackend(2) as backend, tracing("off") as tracer:
            results = backend.map_chunks(envelope, chunks)
        assert [x for chunk in results for x in chunk] == [
            x * x for x in range(6)
        ]
        names = {s.name for s in tracer.root.walk()}
        assert "parallel.chunk" not in names

    def test_envelope_obs_true_forces_capture(self, distinct_profiles):
        from repro.obs.trace import tracing

        chunks = partition_chunks(list(range(4)), chunk_size=2)
        envelope = TaskEnvelope(
            fn=lambda _, chunk: list(chunk),
            context=None,
            label="identity",
            obs=True,
        )
        with ThreadBackend(2) as backend, tracing("on") as tracer:
            backend.map_chunks(envelope, chunks)
        names = [s.name for s in tracer.root.walk()]
        assert names.count("parallel.chunk") == 2
