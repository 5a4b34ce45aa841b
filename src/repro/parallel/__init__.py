"""Pluggable execution backends for CPU-bound bulk work.

See :mod:`repro.parallel.backend` for the backend protocol and its two
implementations, :mod:`repro.parallel.tasks` for the picklable task
envelopes wired into the enrollment / OPRF / matching hot paths, and
:mod:`repro.parallel.arena` for the shared-memory result transport the
process backend uses to move wire-encodable results without pickling them.
"""

from repro.parallel.arena import (
    ArenaWriter,
    LazyWireRecord,
    ResultArena,
    register_wire_codec,
)
from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskEnvelope,
    balanced_chunk_size,
    default_backend,
    partition_chunks,
    resolve_backend,
    set_default_backend,
)
from repro.parallel.tasks import (
    BulkMatchContext,
    EnrollSpec,
    bulk_match_chunk,
    enroll_chunk,
    evaluate_blinded_chunk,
)

__all__ = [
    "ArenaWriter",
    "BACKEND_NAMES",
    "BulkMatchContext",
    "EnrollSpec",
    "LazyWireRecord",
    "ResultArena",
    "register_wire_codec",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "balanced_chunk_size",
    "bulk_match_chunk",
    "default_backend",
    "enroll_chunk",
    "evaluate_blinded_chunk",
    "partition_chunks",
    "resolve_backend",
    "set_default_backend",
]
