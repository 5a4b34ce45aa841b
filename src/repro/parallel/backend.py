"""Pluggable execution backends for CPU-bound bulk work.

The OPRF/modexp-bound hot paths (full enrollment, server-side batched blind
evaluation, bulk matching) are pure-Python compute, so the GIL serializes
them inside one interpreter.  A :class:`ProcessBackend` breaks out of the
interpreter entirely, at the cost of a process boundary.  Both backends
implement one protocol so call sites choose a *policy*, not a mechanism:

* :class:`SerialBackend` — run chunks inline, in order (the reference
  semantics the process backend must reproduce);
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` with a per-worker
  **warm-start initializer**: the task envelope's context (RSA key
  material, scheme parameters, OPE params) reaches each worker once at pool
  construction and is cached in the worker process, not re-sent per task.

Work arrives as a :class:`TaskEnvelope` — a module-level function plus a
picklable context — applied to deterministic, contiguous chunks of an item
list (:func:`partition_chunks`).  Results always come back in submission
order regardless of completion order, which is what lets seeded enrollment
stay byte-identical across backends (docs/PERFORMANCE.md).

Submission is **bounded**: at most ``2 × workers`` chunks are enqueued on
the pool at any moment, so a million-chunk batch never materializes a
million futures — backpressure is exerted on the producer by collecting the
oldest outstanding future before submitting the next chunk.

Failure surfacing is typed (:mod:`repro.errors`): a worker process dying
abruptly raises :class:`~repro.errors.WorkerCrashError` instead of hanging,
and the broken pool is discarded so the *next* call restarts fresh workers
(counted by ``smatch_parallel_worker_restarts_total``).  Exceptions raised
*inside* a task function propagate unchanged.

Telemetry crosses the fan-out boundary truthfully (docs/OBSERVABILITY.md):
when the submitting thread is tracing, each chunk runs under a worker-local
:class:`~repro.obs.trace.Tracer` whose records ship back with the result
and are spliced into the parent trace under the open ``parallel.map`` span,
tagged with the worker identity; when a metrics registry is enabled, each
worker runs a local :class:`~repro.obs.metrics.MetricsRegistry` whose
mergeable snapshot is folded into the parent registry (counters add, gauges
max), so ``smatch_parallel_*`` and OPE-cache counters agree across the
serial and process backends.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # pragma: no cover - typing_extensions never needed at runtime
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 is unsupported anyway
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls: type) -> type:  # type: ignore[no-redef]
        return cls

from repro.errors import ParallelError, ParameterError, WorkerCrashError
from repro.parallel.arena import ArenaWriter, ResultArena, SlotDescriptor
from repro.obs.metrics import (
    M_OBS_WORKER_SPANS,
    M_PARALLEL_CHUNKS,
    M_PARALLEL_QUEUE_DEPTH,
    M_PARALLEL_TASKS,
    M_PARALLEL_WORKER_RESTARTS,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    metric_inc,
    metric_set,
)
from repro.obs.trace import clear_inherited_tracer, current_tracer, span, tracing

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "balanced_chunk_size",
    "default_backend",
    "partition_chunks",
    "resolve_backend",
    "set_default_backend",
]

#: Names accepted by :func:`resolve_backend` and the ``SMATCH_BACKEND`` env.
BACKEND_NAMES: Tuple[str, ...] = ("serial", "process")

_ENV_VAR = "SMATCH_BACKEND"

#: A chunk task: ``fn(context, chunk) -> result``.  Must be a module-level
#: function for :class:`ProcessBackend` (pickled by reference).
TaskFn = Callable[[Any, Sequence[Any]], Any]


@dataclass(frozen=True)
class TaskEnvelope:
    """One picklable unit of backend work.

    ``fn`` is applied per chunk as ``fn(context, chunk)``.  The ``context``
    carries the warm-start state (key material, parameters) every chunk of
    the batch shares; process backends deliver it to each worker exactly
    once via the pool initializer.  ``label`` names the work in spans and
    error messages (never interpolate task *data* into it).

    Worker-side telemetry capture follows the parent: workers record spans
    exactly when a tracer is active on the submitting thread, and run a
    local metrics registry exactly when one is enabled in the parent.

    ``shm_results`` declares that ``fn`` accepts a third argument — an
    :class:`~repro.parallel.arena.ArenaWriter` (or ``None``) — and will
    route wire-encodable results through the shared-memory result arena of
    a :class:`ProcessBackend`.  The serial backend (same address space,
    nothing to transport) always passes no writer.
    """

    fn: TaskFn
    context: Any = None
    label: str = "task"
    shm_results: bool = False


def partition_chunks(
    items: Sequence[Any], chunk_size: int
) -> List[Sequence[Any]]:
    """Deterministic contiguous chunking: ``items[0:c], items[c:2c], ...``.

    Pure function of ``(len(items), chunk_size)`` — chunk boundaries never
    depend on worker count or scheduling, which is one half of the
    cross-backend determinism contract (the other half is ordered result
    collection).
    """
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    items = list(items)
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


def balanced_chunk_size(num_items: int, workers: int) -> int:
    """One balanced slice per worker (the default chunking policy)."""
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    return max(1, (num_items + workers - 1) // workers)


def _default_workers(workers: Optional[int]) -> int:
    """``workers`` validated, with ``None`` meaning one per CPU core."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    return workers


def _note_batch(num_chunks: int, num_tasks: int) -> None:
    metric_inc(M_PARALLEL_CHUNKS, num_chunks)
    metric_inc(M_PARALLEL_TASKS, num_tasks)


def _apply(
    fn: TaskFn,
    context: Any,
    chunk: Sequence[Any],
    writer: Optional[ArenaWriter],
) -> Any:
    """Run one chunk, sealing its arena slot after the task returns.

    The seal is the slot's commit point: it runs only on success, so a
    crashed or raising worker leaves the slot's previous generation visible
    and the parent surfaces the failure instead of decoding a torn slot.
    """
    if writer is None:
        return fn(context, chunk)
    result = fn(context, chunk, writer)
    writer.seal()
    return result


# -- worker-side telemetry capture ---------------------------------------------


@dataclass(frozen=True)
class _WorkerTelemetry:
    """A chunk result wrapped with the worker's captured telemetry.

    ``spans`` is the worker tracer's depth-first record list (the
    :meth:`~repro.obs.trace.Tracer.span_records` shape) or ``None`` when
    span capture was off; ``metrics`` is the worker registry's mergeable
    view or ``None``; ``worker`` identifies the executing worker process
    (``pid-<n>``).
    """

    result: Any
    spans: Optional[List[Dict[str, Any]]]
    metrics: Optional[Dict[str, Dict[str, Any]]]
    worker: str


def _absorb_result(payload: Any) -> Any:
    """Unwrap a collected result, splicing/merging any worker telemetry.

    Runs on the submitting thread inside the open ``parallel.map`` span, so
    spliced worker roots land under it (and their op counts / byte tallies
    fold up through the enclosing pipeline spans).  Gracefully drops
    telemetry the parent cannot absorb (no tracer / no registry active).
    """
    if not isinstance(payload, _WorkerTelemetry):
        return payload
    if payload.spans:
        tracer = current_tracer()
        if tracer is not None:
            tracer.splice(payload.spans, attrs={"worker": payload.worker})
            metric_inc(M_OBS_WORKER_SPANS, len(payload.spans))
    if payload.metrics is not None:
        registry = active_metrics()
        if registry is not None:
            registry.merge(payload.metrics)
    return payload.result


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution-backend protocol all backends implement."""

    name: str
    workers: int

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply ``envelope.fn(context, chunk)`` to every chunk, in order."""
        ...

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        ...


class SerialBackend:
    """Run every chunk inline on the calling thread — the reference order."""

    name = "serial"
    workers = 1

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply the envelope to each chunk sequentially."""
        chunks = list(chunks)
        with span(
            "parallel.map",
            backend=self.name,
            label=envelope.label,
            chunks=len(chunks),
        ):
            _note_batch(len(chunks), sum(len(c) for c in chunks))
            return [envelope.fn(envelope.context, chunk) for chunk in chunks]

    def close(self) -> None:
        """Nothing pooled; provided for protocol symmetry."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- process backend -----------------------------------------------------------

#: Per-worker-process warm state, installed once by the pool initializer.
_WORKER_CONTEXT: Any = None


def _initialize_worker(context: Any) -> None:
    """Pool initializer: cache the envelope context in this worker process."""
    global _WORKER_CONTEXT
    # written exactly once per worker process by the pool initializer,
    # strictly before any chunk runs, and workers are single-threaded
    _WORKER_CONTEXT = context  # smatch-lint: disable=SML013 — initializer runs before any task


def _run_chunk(
    fn: TaskFn, chunk: Sequence[Any], desc: Optional[SlotDescriptor] = None
) -> Any:
    """Worker-side trampoline: apply the task to the warm-started context."""
    writer = ArenaWriter(desc) if desc is not None else None
    return _apply(fn, _WORKER_CONTEXT, chunk, writer)


def _run_chunk_traced(
    fn: TaskFn,
    chunk: Sequence[Any],
    label: str,
    index: int,
    capture_spans: bool,
    capture_metrics: bool,
    desc: Optional[SlotDescriptor] = None,
) -> _WorkerTelemetry:
    """Run one chunk under worker-local telemetry and wrap the result.

    A worker process has no tracer of the submitting thread and a private
    metrics registry, so it captures locally here and ships the records
    back for parent-side splicing/merging.  Exceptions from ``fn``
    propagate unchanged; the local registry swap is always restored.
    """
    # a fork-started worker inherits the submitting thread's tracer; it is
    # an orphan copy here — clear it so the worker trace opens
    clear_inherited_tracer()
    writer = ArenaWriter(desc) if desc is not None else None
    prior_registry = active_metrics()
    local_registry: Optional[MetricsRegistry] = None
    if capture_metrics:
        local_registry = enable_metrics(MetricsRegistry())
    try:
        if capture_spans:
            with tracing("parallel.chunk", label=label, chunk=index) as tracer:
                result = _apply(fn, _WORKER_CONTEXT, chunk, writer)
            spans: Optional[List[Dict[str, Any]]] = tracer.span_records()
        else:
            result = _apply(fn, _WORKER_CONTEXT, chunk, writer)
            spans = None
    finally:
        if capture_metrics:
            if prior_registry is None:
                disable_metrics()
            else:
                enable_metrics(prior_registry)
    return _WorkerTelemetry(
        result=result,
        spans=spans,
        metrics=(
            local_registry.to_mergeable() if local_registry is not None else None
        ),
        worker=f"pid-{os.getpid()}",
    )


class ProcessBackend:
    """A ``ProcessPoolExecutor`` backend for modexp-bound work.

    The envelope context crosses to each worker exactly once, as the pool
    initializer's argument (inherited without serialization under the
    ``fork`` start method); per-chunk submissions carry only the task
    function reference and the chunk items.  The pool is kept warm across
    ``map_chunks`` calls that reuse the *same* context object, so repeated
    batches against one key/scheme pay pool start-up once.

    Submission is bounded: at most ``2 × workers`` chunks are outstanding,
    and results are collected oldest-first, so they arrive in submission
    order with O(workers) live futures.

    Results of envelopes marked ``shm_results`` move through a per-batch
    shared-memory :class:`~repro.parallel.arena.ResultArena` instead of the
    future-result pickle: workers wire-encode each record once, the parent
    returns lazy decode-on-access views.  Records that overflow their
    :data:`~repro.parallel.arena.DEFAULT_SLOT_BYTES` slot fall back to
    pickle per record.
    """

    name = "process"

    def __init__(
        self, workers: Optional[int] = None, mp_context: Optional[str] = None
    ) -> None:
        self.workers = _default_workers(workers)
        self._max_inflight = 2 * self.workers
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_context: Any = None

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply the envelope across the pool; results in submission order."""
        chunks = list(chunks)
        with span(
            "parallel.map",
            backend=self.name,
            label=envelope.label,
            chunks=len(chunks),
        ):
            _note_batch(len(chunks), sum(len(c) for c in chunks))
            pool = self._pool_for(envelope)
            arena: Optional[ResultArena] = None
            if envelope.shm_results and chunks:
                # one ring slot per possible in-flight chunk: ordered
                # collection frees a ring position before any writer can
                # revisit it
                arena = ResultArena(slots=min(self._max_inflight, len(chunks)))
            try:
                return self._collect(pool, envelope, chunks, arena)
            finally:
                # always unlink the batch segment — also on the
                # WorkerCrashError path, so a dead worker can never leak
                # shared memory
                if arena is not None:
                    arena.close()
                metric_set(M_PARALLEL_QUEUE_DEPTH, 0)

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        envelope: TaskEnvelope,
        chunks: List[Sequence[Any]],
        arena: Optional[ResultArena],
    ) -> List[Any]:
        # worker-side capture follows the parent: spans exactly when the
        # submitting thread traces, a local registry exactly when one is on
        capture_spans = current_tracer() is not None
        capture_metrics = active_metrics() is not None
        results: List[Any] = [None] * len(chunks)
        pending: Deque[Tuple[int, "Future[Any]"]] = deque()
        next_index = 0

        def submit_one() -> None:
            nonlocal next_index
            index = next_index
            next_index += 1
            desc = arena.slot_descriptor(index) if arena is not None else None
            if capture_spans or capture_metrics:
                future = pool.submit(
                    _run_chunk_traced,
                    envelope.fn,
                    chunks[index],
                    envelope.label,
                    index,
                    capture_spans,
                    capture_metrics,
                    desc,
                )
            else:
                future = pool.submit(_run_chunk, envelope.fn, chunks[index], desc)
            pending.append((index, future))

        while next_index < len(chunks) and len(pending) < self._max_inflight:
            submit_one()
        metric_set(M_PARALLEL_QUEUE_DEPTH, len(pending))
        while pending:
            index, future = pending.popleft()
            try:
                value = _absorb_result(future.result())
            except BrokenProcessPool as exc:
                # the pool is unusable: drop it (the next map_chunks call
                # restarts fresh workers) and surface a typed error instead
                # of hanging on futures a dead worker will never complete
                for _, leftover in pending:
                    leftover.cancel()
                pending.clear()
                self.close()
                metric_inc(M_PARALLEL_WORKER_RESTARTS)
                raise WorkerCrashError(
                    f"worker process died while running {envelope.label!r} "
                    f"chunk {index} of {len(chunks)}"
                ) from exc
            if arena is not None:
                value = arena.resolve(
                    value, arena.slot_descriptor(index), envelope.label
                )
            results[index] = value
            if next_index < len(chunks):
                submit_one()
            metric_set(M_PARALLEL_QUEUE_DEPTH, len(pending))
        return results

    def _pool_for(self, envelope: TaskEnvelope) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_context is envelope.context:
            return self._pool
        self.close()
        self._check_picklable(envelope)
        mp_ctx = None
        if self._mp_context is not None:
            import multiprocessing

            mp_ctx = multiprocessing.get_context(self._mp_context)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(envelope.context,),
            mp_context=mp_ctx,
        )
        # hold a strong reference so `is` identity can't be recycled
        self._pool_context = envelope.context
        return self._pool

    @staticmethod
    def _check_picklable(envelope: TaskEnvelope) -> None:
        try:
            pickle.dumps((envelope.fn, envelope.context))
        except Exception as exc:
            # report only type names: envelope contexts may carry key
            # material whose repr must never reach an exception message
            raise ParallelError(
                f"task envelope {envelope.label!r} cannot cross the process "
                f"boundary: fn must be a module-level function and context "
                f"picklable ({type(exc).__name__})"
            ) from exc

    def close(self) -> None:
        """Shut the pool down (idempotent); a later call re-creates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_context = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- name resolution and the process-wide default ------------------------------

BackendSpec = Union[str, ExecutionBackend]


def resolve_backend(
    spec: BackendSpec, workers: Optional[int] = None
) -> ExecutionBackend:
    """An :class:`ExecutionBackend` from a name or a ready instance.

    Accepts ``"serial"`` or ``"process"`` (optionally sized by ``workers``;
    the process backend defaults to ``os.cpu_count()``), or any object
    already implementing the protocol (returned as-is).
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name == "process":
            return ProcessBackend(workers)
        raise ParameterError(
            f"unknown execution backend {spec!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ParameterError(
        f"backend must be a name or an ExecutionBackend, got "
        f"{type(spec).__name__}"
    )


_default_backend: Optional[ExecutionBackend] = None
_env_cache: Dict[str, ExecutionBackend] = {}
#: guards ``_env_cache``: concurrent first calls to ``default_backend``
#: from caller threads must not both resolve (and warm up) the same backend
_backend_lock = threading.Lock()


def set_default_backend(
    spec: Optional[BackendSpec],
) -> Optional[ExecutionBackend]:
    """Install (or with ``None`` clear) the process-wide default backend.

    The default is what ``backend=None`` call sites fall back to; the CLI's
    ``--backend`` flag lands here.  Returns the installed backend.
    """
    global _default_backend
    _default_backend = None if spec is None else resolve_backend(spec)
    return _default_backend


def default_backend() -> Optional[ExecutionBackend]:
    """The process default: ``set_default_backend`` value, else the
    ``SMATCH_BACKEND`` environment variable, else ``None`` (legacy serial
    paths).  Env-resolved backends are cached per name so pool warm-up is
    shared across call sites.
    """
    if _default_backend is not None:
        return _default_backend
    name = os.environ.get(_ENV_VAR, "").strip().lower()
    if not name:
        return None
    with _backend_lock:
        backend = _env_cache.get(name)
        if backend is None:
            backend = _env_cache[name] = resolve_backend(name)
        return backend
