#!/usr/bin/env python3
"""Conference friend finder: the paper's Infocom06 scenario, end to end.

Simulates the setting the Infocom06 dataset came from: conference attendees
run a mobile social app that finds people with similar profiles (position,
country, affiliation, interests).  The full stack is exercised — clustered
population generation, secure channels over an in-memory network, server-side
matching, client-side verification — plus the WiFi latency model to estimate
what a round trip would cost on the paper's 802.11n link.

Run:  python examples/conference_friend_finder.py
"""

from collections import Counter

from repro.client.client import MobileClient
from repro.core.profile import profile_distance
from repro.datasets import INFOCOM06, ClusteredPopulation
from repro.experiments.common import build_scheme
from repro.net.channel import SecureChannel
from repro.net.latency import LatencyModel
from repro.net.messages import UploadMessage
from repro.net.transport import InMemoryNetwork
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

THETA = 8
NUM_ATTENDEES = 78  # the real Infocom06 trace size


def main() -> None:
    rng = SystemRandomSource(seed=6)

    # --- generate the attendee population ------------------------------------
    population = ClusteredPopulation(INFOCOM06, theta=THETA, rng=rng)
    attendees = population.generate(NUM_ATTENDEES)
    clusters = Counter(u.categorical for u in attendees)
    print(
        f"{NUM_ATTENDEES} attendees in {len(clusters)} interest clusters "
        f"(largest: {max(clusters.values())})"
    )

    scheme = build_scheme(INFOCOM06, theta=THETA, schema=population.schema, seed=6)
    server = SMatchServer(query_k=5)
    network = InMemoryNetwork()
    link = LatencyModel()  # the paper's 53 Mbps 802.11n link

    # --- everyone uploads over a secure channel ------------------------------
    server_endpoint = network.endpoint("server")
    clients = {}
    upload_bits = 0
    for user in attendees:
        endpoint = network.endpoint(f"phone-{user.profile.user_id}")
        session_key = rng.randbytes(32)
        phone_ch = SecureChannel(endpoint, "server", session_key)
        server_ch = SecureChannel(server_endpoint, endpoint.name, session_key)
        client = MobileClient(user.profile, scheme, channel=phone_ch)
        sent = client.upload()
        upload_bits += sent * 8
        message = server_ch.recv()
        assert isinstance(message, UploadMessage)
        server.handle_upload(message)
        clients[user.profile.user_id] = (client, server_ch)
    print(
        f"enrolled {server.uploads_accepted} users, "
        f"{sum(map(len, server.tier.shard_sizes().values()))} key groups, "
        f"~{upload_bits / NUM_ATTENDEES:.0f} bits per upload "
        f"({link.transmission_time_s(upload_bits // NUM_ATTENDEES) * 1e3:.2f} ms air time)"
    )

    # --- one attendee looks for similar people -------------------------------
    searcher = attendees[0]
    client, server_ch = clients[searcher.profile.user_id]
    client.send_query(timestamp=1_100)
    response = server.handle_message(server_ch.recv())
    server_ch.send(response)
    outcome = client.receive_results()

    print(f"\nattendee {searcher.profile.user_id} found matches: {outcome.accepted}")
    for uid in outcome.accepted:
        other = attendees[uid - 1]
        dist = profile_distance(searcher.profile, other.profile)
        same_cluster = other.categorical == searcher.categorical
        print(
            f"  user {uid}: profile distance {dist} "
            f"({'same' if same_cluster else 'different'} interest cluster)"
        )
    if outcome.rejected:
        print(f"  rejected (failed verification): {outcome.rejected}")

    # --- sanity: every verified match is actually similar ---------------------
    for uid in outcome.accepted:
        other = attendees[uid - 1]
        assert (
            profile_distance(searcher.profile, other.profile) <= 4 * THETA
        ), "verified matches must be near the searcher"
    print("\nall verified matches are genuinely similar profiles")


if __name__ == "__main__":
    main()
