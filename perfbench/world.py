"""Seeded inputs for the benchmark: population, tiled server load, oracle.

Everything here is a pure function of the seed.  The server-side oracle
(:class:`GroupModel` and :func:`expected_matches`) imports nothing from
``repro.server``: it keeps its own ``uid -> (group, chain, auth)`` model and
recomputes the paper's Definition 4 order (dense per-attribute ranks summed
per user) and Algorithm Match's position window from scratch.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.core.scheme import EncryptedProfile, SMatch
from repro.crypto.kdf import sha256
from repro.datasets import INFOCOM06
from repro.experiments.common import build_population, build_scheme

#: Users really enrolled (fuzzy keygen, OPRF, OPE, Auth) per world.
BASE_USERS = 200

#: Clusters of at most this many users: large enough that most key groups
#: hold more than ``QUERY_K + 1`` members, so a query returns ``QUERY_K``
#: entries and Vf cost per session does not depend on who asks.
MEAN_CLUSTER = 8.0
MAX_CLUSTER = 14

#: Results per query (the paper's k and the server's default).
QUERY_K = 5

#: Expanded OPE range: at N = M the OPE is the identity and would go
#: unmeasured.
OPE_EXPANSION_BITS = 16

#: The server workloads' key groups: sizes fall geometrically from
#: LARGEST_GROUP by GROUP_DECAY per group (never below 2), about 20.8k
#: profiles in all.  The shape is fixed, not drawn from the seed, because
#: query cost follows group size; the seed picks the chains and the traffic.
GROUPS = 450
LARGEST_GROUP = 210
GROUP_DECAY = 0.99

#: Half-width of the per-value offset that makes tiled copies distinct
#: users, and of the drift applied to a re-upload.
COPY_JITTER = 1 << 20
DRIFT = 1 << 12


@dataclasses.dataclass
class BaseWorld:
    """The enrolled base population and the scheme that enrolled it."""

    scheme: SMatch
    users: List[object]  # datasets._GeneratedUser, uid order
    uploads: Dict[int, EncryptedProfile]


def build_base_world(seed: int) -> BaseWorld:
    """Generate and really enroll ``BASE_USERS`` clustered users."""
    population = build_population(INFOCOM06, seed=seed)
    users = population.generate(
        BASE_USERS, mean_cluster_size=MEAN_CLUSTER, max_cluster_size=MAX_CLUSTER
    )
    scheme = build_scheme(
        INFOCOM06,
        schema=population.schema,
        seed=seed,
        ope_expansion_bits=OPE_EXPANSION_BITS,
        query_k=QUERY_K,
    )
    uploads, _ = scheme.enroll_population(
        [u.profile for u in users], backend="serial", seed=seed
    )
    return BaseWorld(scheme=scheme, users=users, uploads=uploads)


def rebind(payload: EncryptedProfile, user_id: int, **changes) -> EncryptedProfile:
    """A copy of ``payload`` owned by ``user_id`` (authenticator rebound).

    Tiled copies are never verified with Vf, so the authenticator's sealed
    body is reused and only its uid binding follows the new owner.
    """
    return dataclasses.replace(
        payload,
        user_id=user_id,
        auth=dataclasses.replace(payload.auth, user_id=user_id),
        **changes,
    )


def group_sizes() -> List[int]:
    """Members per key group of the server workloads' population."""
    return [max(2, round(LARGEST_GROUP * GROUP_DECAY**g)) for g in range(GROUPS)]


def tiled_population(base: BaseWorld, seed: int) -> List[EncryptedProfile]:
    """The enrolled payloads tiled over :func:`group_sizes` groups.

    Payloads are taken round-robin in uid order, so neighbours in a group
    come from the same profile clusters; every copy gets a fresh uid and a
    jittered chain, so no two members share a chain.
    """
    rng = random.Random(seed ^ 0x7115)
    payloads = [base.uploads[uid] for uid in sorted(base.uploads)]
    tiled: List[EncryptedProfile] = []
    for group, size in enumerate(group_sizes()):
        key_index = sha256(b"perfbench-group", group.to_bytes(4, "big"))
        for _ in range(size):
            copy, position = divmod(len(tiled), len(payloads))
            payload = payloads[position]
            tiled.append(
                rebind(
                    payload,
                    payload.user_id + 1_000_000 * copy,
                    key_index=key_index,
                    chain=tuple(
                        v + rng.randint(-COPY_JITTER, COPY_JITTER)
                        for v in payload.chain
                    ),
                )
            )
    return tiled


def drifted(chain: Sequence[int], rng: random.Random) -> Tuple[int, ...]:
    """A re-upload's chain: one or two attributes moved by a small offset."""
    out = list(chain)
    for position in rng.sample(range(len(out)), rng.randint(1, 2)):
        out[position] += rng.randint(1, DRIFT) * rng.choice((-1, 1))
    return tuple(out)


class GroupModel:
    """The benchmark's own record of what the server should hold."""

    def __init__(self, payloads: Sequence[EncryptedProfile]) -> None:
        self.profiles: Dict[int, EncryptedProfile] = {}
        self.groups: Dict[bytes, Dict[int, Tuple[int, ...]]] = {}
        for payload in payloads:
            self.put(payload)

    def put(self, payload: EncryptedProfile) -> None:
        """Insert or replace one profile (moving it between groups)."""
        previous = self.profiles.get(payload.user_id)
        if previous is not None:
            group = self.groups[previous.key_index]
            del group[payload.user_id]
            if not group:
                del self.groups[previous.key_index]
        self.profiles[payload.user_id] = payload
        self.groups.setdefault(payload.key_index, {})[payload.user_id] = (
            payload.chain
        )

    def group_of(self, user_id: int) -> Dict[int, Tuple[int, ...]]:
        """The chains of ``user_id``'s key group, querier included."""
        return self.groups[self.profiles[user_id].key_index]

    def __len__(self) -> int:
        return len(self.profiles)


def expected_matches(
    chains: Dict[int, Tuple[int, ...]], query_user: int, k: int
) -> List[int]:
    """Definition 4 order plus Algorithm Match's window, from scratch.

    Score = sum over attributes of the dense rank of the user's ciphertext
    among the group's distinct ciphertexts; members are ordered by
    ``(score, uid)``; the ``k`` members nearest the querier's position are
    taken, the nearer score first and the left side on ties.
    """
    users = list(chains)
    scores = dict.fromkeys(users, 0)
    for position in range(len(chains[query_user])):
        column = sorted({chains[u][position] for u in users})
        rank = {value: r for r, value in enumerate(column)}
        for u in users:
            scores[u] += rank[chains[u][position]]
    ordered = sorted((score, u) for u, score in scores.items())
    mine = scores[query_user]
    pos = bisect_left(ordered, (mine, query_user))
    left, right = pos - 1, pos + 1
    chosen: List[int] = []
    while len(chosen) < k and (left >= 0 or right < len(ordered)):
        if right >= len(ordered) or (
            left >= 0
            and mine - ordered[left][0] <= ordered[right][0] - mine
        ):
            chosen.append(ordered[left][1])
            left -= 1
        else:
            chosen.append(ordered[right][1])
            right += 1
    return chosen


def result_mismatch(model: GroupModel, query_user: int, entries) -> str:
    """Why a query result disagrees with the model ('' when it agrees)."""
    expected = expected_matches(model.group_of(query_user), query_user, QUERY_K)
    got = [entry.user_id for entry in entries]
    if got != expected:
        return f"user {query_user}: matched {got}, oracle says {expected}"
    for entry in entries:
        auth = model.profiles[entry.user_id].auth
        if entry.auth.user_id != auth.user_id or (
            entry.auth.sealed.encode() != auth.sealed.encode()
        ):
            return f"user {query_user}: entry {entry.user_id} auth differs"
    return ""
