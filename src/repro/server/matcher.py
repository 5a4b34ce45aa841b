"""The server-side matching engine (paper Algorithm Match).

``Match(v, C)``:

1. ``C' <- EXTRA(h(K_vp), C)`` — extract the querier's key group,
2. ``C' <- SORT(C')`` — order the group by the Definition-4 score,
3. ``pos <- FIND(v, C')`` — locate the querier,
4. return the ``k`` neighbours around ``pos``.

The engine keeps an **incrementally maintained** sorted order per key group
(see docs/PERFORMANCE.md): the first query of a group pays the full
O(|V| log |V|) sort the paper quotes, after which membership changes arrive
as :class:`~repro.server.storage.ProfileStore` events and are folded in by
``bisect.insort`` instead of re-sorting.  A ``uid -> score`` side table
makes FIND a pure O(log |V|) bisection (no linear scan for the querier's
score), and each group carries a generation counter exported as the
``smatch_matcher_group_generation`` gauge.

For the ``rank`` order method a member's score depends on the whole group's
distinct value sets, so the index tracks per-attribute sorted distinct
columns with reference counts: mutations that only touch already-present
values stay fully incremental, while mutations that change a distinct set
mark the group dirty and the next query re-scores from the live columns
(``server_rescore``) — still far cheaper than the from-scratch
``score_table`` rebuild (``server_sort``), which only runs on a cold group.
A dirty group keeps its last clean order untouched alongside the chain
snapshot it was computed from, so the common churn shape — a member leaves
and re-uploads the same payload — lands back on the remembered state and
the rescore is skipped entirely (``server_rescore_skipped``).  The
``value`` method is per-user independent and always fully incremental.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.matching import position_window, score_table
from repro.core.scheme import EncryptedProfile
from repro.errors import MatchingError, ParameterError
from repro.server.storage import ProfileStore
from repro.obs.instrument import count_op
from repro.obs.metrics import (
    M_MATCHER_BULK_QUERIES,
    M_MATCHER_GROUPS_INDEXED,
    M_MATCHER_GROUP_GENERATION,
    metric_inc,
    metric_set,
)
from repro.obs.trace import span

__all__ = ["ServerMatcher"]


class _Column:
    """One attribute position of a group: sorted distinct values, refcounted.

    The dense rank of a value (``rank_sum``'s O()) is its index in the
    sorted distinct list, found by bisection.
    """

    __slots__ = ("values", "counts")

    def __init__(self) -> None:
        self.values: List[int] = []
        self.counts: Dict[int, int] = {}

    def add(self, value: int) -> bool:
        """Track one occurrence; True when the distinct set changed."""
        count = self.counts.get(value, 0)
        self.counts[value] = count + 1
        if count == 0:
            insort(self.values, value)
            return True
        return False

    def remove(self, value: int) -> bool:
        """Drop one occurrence; True when the distinct set changed."""
        count = self.counts[value] - 1
        if count:
            self.counts[value] = count
            return False
        del self.counts[value]
        self.values.pop(bisect_left(self.values, value))
        return True

    def rank(self, value: int) -> int:
        """Dense rank of ``value`` among the distinct column values."""
        return bisect_left(self.values, value)


class _GroupIndex:
    """The incrementally maintained sorted order of one key group."""

    __slots__ = (
        "method",
        "chains",
        "columns",
        "scores",
        "ordered",
        "generation",
        "dirty",
        "_clean_chains",
    )

    def __init__(self, method: str) -> None:
        self.method = method
        self.chains: Dict[int, Tuple[int, ...]] = {}
        self.columns: List[_Column] = []
        self.scores: Dict[int, int] = {}
        self.ordered: List[Tuple[int, int]] = []
        self.generation = 0
        self.dirty = False
        # The chain snapshot ordered/scores were last computed for.  While
        # dirty, both are left untouched; if the group's chains return to
        # this exact state the pending rescore is dropped.
        self._clean_chains: Optional[Dict[int, Tuple[int, ...]]] = None

    def __len__(self) -> int:
        return len(self.chains)

    def add(self, user_id: int, chain: Tuple[int, ...]) -> None:
        """Fold one member in (replacing any previous chain for the id)."""
        if user_id in self.chains:
            self.remove(user_id)
        chain = tuple(chain)
        if self.chains and len(chain) != len(next(iter(self.chains.values()))):
            raise ParameterError("chain length disagrees with the group")
        self.chains[user_id] = chain
        self.generation += 1
        if self.method == "value":
            score = sum(chain)
            self.scores[user_id] = score
            insort(self.ordered, (score, user_id))
            return
        if not self.columns:
            self.columns = [_Column() for _ in chain]
        changed = False
        for column, value in zip(self.columns, chain):
            if column.add(value):
                changed = True
        if changed or self.dirty:
            # a distinct set grew: other members' ranks may shift, so the
            # order is settled lazily at the next query
            self.dirty = True
            return
        score = sum(c.rank(v) for c, v in zip(self.columns, chain))
        self.scores[user_id] = score
        insort(self.ordered, (score, user_id))
        self._clean_chains = dict(self.chains)

    def remove(self, user_id: int) -> None:
        """Fold one member's departure in."""
        chain = self.chains.pop(user_id)
        self.generation += 1
        if self.method == "value":
            self._drop_ordered(user_id)
            return
        for column, value in zip(self.columns, chain):
            if column.remove(value):
                self.dirty = True
        if self.dirty:
            # ordered/scores are deliberately left stale: they still match
            # _clean_chains, so a re-upload of the same chains revalidates
            # them for free; otherwise the next query rescores wholesale
            return
        self._drop_ordered(user_id)
        self._clean_chains = dict(self.chains)

    def _drop_ordered(self, user_id: int) -> None:
        score = self.scores.pop(user_id)
        self.ordered.pop(bisect_left(self.ordered, (score, user_id)))

    def snapshot(self) -> Tuple[List[Tuple[int, int]], Dict[int, int]]:
        """``(ordered, scores)`` after settling any pending rescore."""
        if self.dirty:
            if self.chains == self._clean_chains:
                # churn landed back on the last clean state: ordered/scores
                # were never touched while dirty, so they are still exact
                count_op("server_rescore_skipped")
                self.dirty = False
                return self.ordered, self.scores
            count_op("server_rescore")
            self.scores = {
                uid: sum(c.rank(v) for c, v in zip(self.columns, chain))
                for uid, chain in self.chains.items()
            }
            self.ordered = sorted(
                (score, uid) for uid, score in self.scores.items()
            )
            self.dirty = False
            self._clean_chains = dict(self.chains)
        return self.ordered, self.scores


class ServerMatcher:
    """kNN / MAX-distance matching over a :class:`ProfileStore`."""

    def __init__(self, store: ProfileStore, order_method: str = "rank") -> None:
        if order_method not in ("rank", "value"):
            raise ParameterError("order_method must be 'rank' or 'value'")
        self._store = store
        self._order_method = order_method
        self._groups: Dict[bytes, _GroupIndex] = {}
        self._max_generation = 0
        store.add_listener(self)

    # -- store events ---------------------------------------------------------

    def profile_added(self, key_index: bytes, payload: EncryptedProfile) -> None:
        """Store event: a profile entered (or replaced within) a group."""
        index = self._groups.get(key_index)
        if index is None:
            return  # group not indexed yet: built lazily at first query
        count_op("server_index_update")
        index.add(payload.user_id, payload.chain)
        self._note_generation(index)

    def profile_removed(self, key_index: bytes, user_id: int) -> None:
        """Store event: a profile left a group."""
        index = self._groups.get(key_index)
        if index is None:
            return
        count_op("server_index_update")
        index.remove(user_id)
        if not len(index):
            # a dead group keeps no cached order (the old frozenset cache
            # leaked these entries forever)
            del self._groups[key_index]
            metric_set(M_MATCHER_GROUPS_INDEXED, len(self._groups))
            return
        self._note_generation(index)

    def _note_generation(self, index: _GroupIndex) -> None:
        if index.generation > self._max_generation:
            self._max_generation = index.generation
            metric_set(
                M_MATCHER_GROUP_GENERATION, self._max_generation
            )

    # -- group index ----------------------------------------------------------

    def _group_index(self, key_index: bytes) -> _GroupIndex:
        index = self._groups.get(key_index)
        if index is not None:
            return index
        group = self._store.group_by_index(key_index)
        with span("server.sort", group_size=len(group)):
            count_op("server_sort")
            index = _GroupIndex(self._order_method)
            index.chains = {uid: tuple(ep.chain) for uid, ep in group.items()}
            scores = score_table(index.chains, self._order_method)
            index.scores = dict(scores)
            index.ordered = sorted(
                (score, uid) for uid, score in scores.items()
            )
            if self._order_method == "rank" and index.chains:
                width = len(next(iter(index.chains.values())))
                index.columns = [_Column() for _ in range(width)]
                for chain in index.chains.values():
                    for column, value in zip(index.columns, chain):
                        column.add(value)
                index._clean_chains = dict(index.chains)
        self._groups[key_index] = index
        metric_set(M_MATCHER_GROUPS_INDEXED, len(self._groups))
        return index

    # -- queries --------------------------------------------------------------

    def match(self, query_user: int, k: int) -> List[int]:
        """The k nearest users to ``query_user`` within their key group.

        Implements the paper's position-window selection: after sorting,
        take the ``k`` entries closest to the querier's position (breaking
        the window asymmetry toward smaller score distance).
        """
        if k < 1:
            raise ParameterError("k must be >= 1")
        if not self._store.contains(query_user):
            raise MatchingError(f"unknown user {query_user}")
        payload = self._store.get(query_user)
        ordered, scores = self._group_index(payload.key_index).snapshot()
        count_op("server_search")
        my_score = scores[query_user]
        # FIND(v, C'): the side table gives the score, bisection the
        # position; the window expansion itself is the shared pure function.
        return position_window(ordered, my_score, query_user, k)

    def query_bulk(
        self,
        query_users: Sequence[int],
        k: int,
        backend: Optional[object] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[int, List[int]]:
        """Many-requester fan-out: ``{user: match(user, k)}`` for each user.

        All touched group indexes are settled **once** up front (snapshot),
        then the per-query window expansions — pure functions of the frozen
        ``(score, uid)`` orders — are fanned across an execution backend
        (:mod:`repro.parallel`).  ``backend=None`` falls back to the process
        default (:func:`repro.parallel.default_backend`), else runs serial.
        Results are identical to calling :meth:`match` per user against an
        unchanged store.
        """
        from repro.parallel import (
            BulkMatchContext,
            SerialBackend,
            ShmContext,
            TaskEnvelope,
            balanced_chunk_size,
            bulk_match_chunk,
            default_backend,
            partition_chunks,
            resolve_backend,
        )

        if k < 1:
            raise ParameterError("k must be >= 1")
        query_users = list(query_users)
        for user in query_users:
            if not self._store.contains(user):
                raise MatchingError(f"unknown user {user}")
        exec_backend = (
            resolve_backend(backend)
            if backend is not None
            else (default_backend() or SerialBackend())
        )
        metric_inc(M_MATCHER_BULK_QUERIES, len(query_users))
        with span(
            "server.query_bulk",
            queries=len(query_users),
            backend=exec_backend.name,
        ):
            # Freeze every touched group's settled order once; the group
            # handle is its position in the orders table (key indexes are
            # key-derived hashes and never ship to worker processes).
            orders: Dict[int, Tuple[Tuple[int, int], ...]] = {}
            score_tables: Dict[int, Dict[int, int]] = {}
            memberships: Dict[int, Tuple[int, int]] = {}
            handles: Dict[bytes, int] = {}
            for user in query_users:
                key_index = self._store.get(user).key_index
                handle = handles.get(key_index)
                if handle is None:
                    ordered, scores = self._group_index(key_index).snapshot()
                    handle = handles[key_index] = len(handles)
                    orders[handle] = tuple(ordered)
                    score_tables[handle] = scores
                count_op("server_search")
                memberships[user] = (handle, score_tables[handle][user])
            context = BulkMatchContext(
                orders=orders, memberships=memberships, k=k
            )
            if chunk_size is None:
                chunk_size = balanced_chunk_size(
                    len(query_users), exec_backend.workers
                )
            chunks = partition_chunks(query_users, chunk_size)
            # Shared-memory process backends receive the frozen context as
            # one shared segment each worker decodes once at pool
            # warm-start, instead of the parent pickling the whole
            # score-order table into every worker pipe.  The backend owns
            # the segment (created with the pool, unlinked when the pool is
            # discarded), because its workers spawn lazily and must find
            # the segment however late they start.
            envelope_context: object = context
            if getattr(exec_backend, "shm_enabled", False):
                envelope_context = ShmContext(context)
            envelope = TaskEnvelope(
                fn=bulk_match_chunk,
                context=envelope_context,
                label="server.query_bulk",
            )
            results = exec_backend.map_chunks(envelope, chunks)
        out: Dict[int, List[int]] = {}
        for chunk, chunk_result in zip(chunks, results):
            for user, matches in zip(chunk, chunk_result):
                out[user] = matches
        return out

    def match_within(self, query_user: int, max_distance: int) -> List[int]:
        """MAX-distance matching: all group members within a score radius."""
        if max_distance < 0:
            raise ParameterError("max_distance must be >= 0")
        payload = self._store.get(query_user)
        ordered, scores = self._group_index(payload.key_index).snapshot()
        my_score = scores[query_user]
        count_op("server_search")
        # Scores are ints and ordered holds (score, uid) ascending, so the
        # radius is an index range: 1-tuples sort before any same-score pair.
        lo = bisect_left(ordered, (my_score - max_distance,))
        hi = bisect_left(ordered, (my_score + max_distance + 1,))
        return [
            uid for _, uid in ordered[lo:hi] if uid != query_user
        ]

    def group_generation(self, query_user: int) -> Optional[int]:
        """The mutation generation of a user's group index (None if cold)."""
        if not self._store.contains(query_user):
            return None
        payload = self._store.get(query_user)
        index = self._groups.get(payload.key_index)
        return index.generation if index is not None else None

    def invalidate(self) -> None:
        """Drop all group indexes (tests use this to exercise the cold path)."""
        self._groups.clear()
        metric_set(M_MATCHER_GROUPS_INDEXED, 0)
