"""The server against an independent brute-force Definition-4 oracle.

The oracle below shares no code with the server: it keeps a plain dict of
the latest profile per user and answers each query from scratch.  It
filters the querier's key group, scores every member by the sum of its
dense per-attribute ranks (Definition 4), orders the group by
``(score, uid)`` and takes the k nearest around the querier, breaking
equal distances toward the left (Algorithm Match's window).  A seeded churn of
new users, drifted re-uploads, group moves and removes runs through
``SMatchServer.handle_message``; after every round each live user's result
must equal the oracle's, user ids and authenticators alike.
"""

import dataclasses
import random

import pytest

from repro.net.messages import QueryRequest, UploadMessage
from repro.server.service import SMatchServer

K = 3
#: Copies of the enrolled population, spread over this many extra groups.
COPIES = 4
GROUP_TILES = 2


def _group(profiles, query_user):
    mine = profiles[query_user].key_index
    return {u: p for u, p in profiles.items() if p.key_index == mine}


def _scores(group):
    width = len(next(iter(group.values())).chain)
    scores = dict.fromkeys(group, 0)
    for i in range(width):
        distinct = sorted({p.chain[i] for p in group.values()})
        for uid, payload in group.items():
            scores[uid] += distinct.index(payload.chain[i])
    return scores


def oracle_knn(profiles, query_user, k):
    """``[(uid, auth)]`` the server must return for a kNN query."""
    if query_user not in profiles:
        return []
    group = _group(profiles, query_user)
    scores = _scores(group)
    order = sorted((score, uid) for uid, score in scores.items())
    mine = scores[query_user]
    pos = order.index((mine, query_user))
    left, right = pos - 1, pos + 1
    chosen = []
    while len(chosen) < k and (left >= 0 or right < len(order)):
        left_gap = mine - order[left][0] if left >= 0 else None
        right_gap = order[right][0] - mine if right < len(order) else None
        if right_gap is None or (left_gap is not None and left_gap <= right_gap):
            chosen.append(order[left][1])
            left -= 1
        else:
            chosen.append(order[right][1])
            right += 1
    return [(uid, group[uid].auth) for uid in chosen]


def oracle_within(profiles, query_user, radius):
    """``[(uid, auth)]`` for a MAX-distance query, in ``(score, uid)`` order."""
    if query_user not in profiles:
        return []
    group = _group(profiles, query_user)
    scores = _scores(group)
    mine = scores[query_user]
    return [
        (uid, group[uid].auth)
        for score, uid in sorted((s, u) for u, s in scores.items())
        if uid != query_user and abs(score - mine) <= radius
    ]


def _tiled(payloads):
    """The population copied under fresh uids into a few shared groups."""
    tiled = list(payloads)
    keys = sorted({p.key_index for p in payloads})
    for copy in range(1, COPIES):
        for n, payload in enumerate(payloads):
            uid = payload.user_id + 10_000 * copy
            tiled.append(
                dataclasses.replace(
                    payload,
                    user_id=uid,
                    auth=dataclasses.replace(payload.auth, user_id=uid),
                    key_index=keys[(n + copy) % GROUP_TILES],
                )
            )
    return tiled


def _entries(result):
    return [(entry.user_id, entry.auth) for entry in result.entries]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("seed", [11, 12])
def test_server_matches_brute_force_oracle(enrolled, shards, seed):
    _, _, uploads, _ = enrolled
    population = _tiled([uploads[uid] for uid in sorted(uploads)])
    keys = sorted({p.key_index for p in population})
    rng = random.Random(seed)
    profiles = {}
    pending = list(population)
    rng.shuffle(pending)
    query_id = 0
    with SMatchServer(query_k=K, shards=shards) as server:
        for _ in range(6):
            for _ in range(25):
                roll = rng.random()
                if pending and (roll < 0.4 or not profiles):
                    payload = pending.pop()  # a new user
                elif roll < 0.65:
                    current = profiles[rng.choice(sorted(profiles))]
                    payload = dataclasses.replace(
                        current,
                        chain=tuple(
                            c + rng.choice((-2, 0, 0, 1, 3))
                            for c in current.chain
                        ),
                    )
                elif roll < 0.8:
                    current = profiles[rng.choice(sorted(profiles))]
                    payload = dataclasses.replace(
                        current, key_index=rng.choice(keys)
                    )
                else:
                    uid = rng.choice(sorted(profiles))
                    server.tier.remove(uid)
                    del profiles[uid]
                    continue
                server.handle_message(UploadMessage(payload=payload))
                profiles[payload.user_id] = payload
            for uid in sorted(profiles) + [999_999]:
                query_id += 1
                result = server.handle_message(
                    QueryRequest(query_id=query_id, timestamp=0, user_id=uid)
                )
                assert _entries(result) == oracle_knn(profiles, uid, K)
            for uid in sorted(profiles)[::5]:
                result = server.handle_message(
                    QueryRequest(
                        query_id=0, timestamp=0, user_id=uid, max_distance=2
                    )
                )
                assert _entries(result) == oracle_within(profiles, uid, 2)
        assert len(server.tier) == len(profiles)


def test_oracle_window_on_a_hand_worked_group():
    """The oracle itself, on a group small enough to check by hand."""

    @dataclasses.dataclass(frozen=True)
    class Row:
        key_index: bytes
        chain: tuple
        auth: str

    group = {
        1: Row(b"g", (10, 5), "a1"),  # ranks 0 + 0 = 0
        2: Row(b"g", (20, 5), "a2"),  # ranks 1 + 0 = 1
        3: Row(b"g", (20, 9), "a3"),  # ranks 1 + 1 = 2
        4: Row(b"g", (30, 9), "a4"),  # ranks 2 + 1 = 3
        5: Row(b"h", (10, 5), "a5"),  # another group: never returned
    }
    # querier 2 (score 1): 1 and 3 are both one away, the left one first
    assert oracle_knn(group, 2, 2) == [(1, "a1"), (3, "a3")]
    assert oracle_knn(group, 2, 3) == [(1, "a1"), (3, "a3"), (4, "a4")]
    assert oracle_knn(group, 5, 3) == []
    assert oracle_within(group, 3, 1) == [(2, "a2"), (4, "a4")]
