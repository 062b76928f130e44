"""The topology subsystem: builders, registry, bandwidth FIFO, churn, and
flood-gossip mechanics on hand-wired networks."""

import random

import pytest

from repro.chain.genesis import GenesisConfig
from repro.chain.transaction import Transaction
from repro.chain.wire import wire_encoding
from repro.crypto.addresses import address_from_label
from repro.golden import assert_holds
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.peer import Peer
from repro.net.sim import Simulator
from repro.net.topology import (
    BandwidthModel,
    ChurnPlan,
    KademliaTopology,
    RandomKTopology,
    RegionHubTopology,
    TOPOLOGY_REGISTRY,
    Topology,
    edge_key,
    freeze_bandwidth,
    freeze_churn,
    freeze_topology,
    resolve_topology,
    topology_names,
)

ALICE = address_from_label("alice")
BOB = address_from_label("bob")

PEER_IDS_100 = [f"peer-{index}" for index in range(100)]


RANDOM_K_SEED = 20260807
# clients -> edge count of the graph over the bench roster (2 miners + N
# clients, default k).  The graphs themselves are the golden store's
# ``random_k_adjacency_<clients>`` entries, recorded *before* the fill loop's
# draws were inlined.
RANDOM_K_EDGES = {10: 47, 100: 407, 1000: 4006}


def bench_roster(clients: int):
    return [f"miner-{index}" for index in range(2)] + [
        f"client-{index}" for index in range(clients)
    ]


def adjacency_pairs(topology: Topology):
    return sorted([peer, list(neighbors)] for peer, neighbors in topology.adjacency.items())


def reference_random_k(peer_ids, rng: random.Random, k: int = 8) -> Topology:
    """The fill loop as it was written before the draws were inlined: two
    ``rng.randrange(n)`` calls per attempt.  Kept as the reference."""
    n = len(peer_ids)
    k = min(k, max(n - 1, 0))
    edges = {edge_key(peer_ids[i], peer_ids[(i + 1) % n]) for i in range(n)} if n > 1 else set()
    degree = {peer_id: 0 for peer_id in peer_ids}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    target_edges = (n * k) // 2
    attempts = 0
    while len(edges) < target_edges and attempts < 50 * max(target_edges, 1):
        attempts += 1
        a = peer_ids[rng.randrange(n)]
        b = peer_ids[rng.randrange(n)]
        if a == b or degree[a] >= k or degree[b] >= k or edge_key(a, b) in edges:
            continue
        edges.add(edge_key(a, b))
        degree[a] += 1
        degree[b] += 1
    adjacency = {peer_id: set() for peer_id in peer_ids}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return Topology(
        name="random_k",
        adjacency={peer_id: tuple(sorted(adjacency[peer_id])) for peer_id in sorted(peer_ids)},
    )


class CountingRandom(random.Random):
    """Records every ``getrandbits`` result so a test can count index draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def getrandbits(self, bits):
        value = super().getrandbits(bits)
        self.drawn.append(value)
        return value

    def accepted_draws(self, n: int) -> int:
        """Draws that survived rejection sampling below ``n``."""
        return sum(1 for value in self.drawn if value < n)


def build(name: str, peer_ids, seed: int = 42, **params) -> Topology:
    builder = resolve_topology(name)(**params)
    return builder.build(peer_ids, random.Random(seed))


class TestRegistry:
    def test_the_four_shipped_topologies_are_registered(self):
        assert topology_names() == ["full_mesh", "kademlia", "random_k", "region_hub"]

    def test_unknown_name_raises_value_error_with_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_topology("small_world")
        message = str(excinfo.value)
        assert "small_world" in message
        for name in topology_names():
            assert name in message

    def test_summary_lines_render_for_every_builder(self):
        for name in topology_names():
            summary = TOPOLOGY_REGISTRY.get(name).summary()
            assert summary and isinstance(summary, str)

    def test_bad_builder_params_raise(self):
        with pytest.raises(ValueError):
            RandomKTopology(k=1)
        with pytest.raises(ValueError):
            RegionHubTopology(regions=0)
        with pytest.raises(ValueError):
            RegionHubTopology(slow_factor=0.5)
        with pytest.raises(ValueError):
            KademliaTopology(bucket_size=0)


class TestBuilders:
    @pytest.mark.parametrize("name", ["full_mesh", "random_k", "region_hub", "kademlia"])
    def test_adjacency_is_symmetric_and_connected_at_100_peers(self, name):
        topology = build(name, PEER_IDS_100)
        assert set(topology.adjacency) == set(PEER_IDS_100)
        for peer_id, neighbors in topology.adjacency.items():
            assert peer_id not in neighbors
            assert list(neighbors) == sorted(neighbors)
            for neighbor in neighbors:
                assert peer_id in topology.adjacency[neighbor]
        assert topology.is_connected()

    @pytest.mark.parametrize("name", ["full_mesh", "random_k", "region_hub", "kademlia"])
    def test_same_seed_means_byte_identical_adjacency(self, name):
        first = build(name, PEER_IDS_100, seed=42)
        second = build(name, PEER_IDS_100, seed=42)
        assert first.adjacency == second.adjacency
        assert first.checksum() == second.checksum()

    def test_random_k_different_seeds_differ(self):
        assert (
            build("random_k", PEER_IDS_100, seed=1).adjacency
            != build("random_k", PEER_IDS_100, seed=2).adjacency
        )

    def test_full_mesh_degree(self):
        topology = build("full_mesh", PEER_IDS_100)
        assert all(len(neighbors) == 99 for neighbors in topology.adjacency.values())

    def test_random_k_degrees_bounded_between_ring_and_k(self):
        topology = build("random_k", PEER_IDS_100, k=8)
        degrees = [len(neighbors) for neighbors in topology.adjacency.values()]
        assert min(degrees) >= 2  # the connectivity ring
        assert max(degrees) <= 8
        assert topology.mean_degree > 6  # the random fill got close to k

    def test_random_k_caps_k_at_n_minus_1(self):
        topology = build("random_k", ["a", "b", "c"], k=8)
        assert topology.is_connected()
        assert all(len(neighbors) <= 2 for neighbors in topology.adjacency.values())

    @pytest.mark.parametrize("clients", sorted(RANDOM_K_EDGES))
    def test_random_k_adjacency_is_pinned(self, clients):
        """The inlined ``getrandbits`` fill is proven, not assumed, identical
        to the ``rng.randrange`` loop it replaced: same graph as recorded at
        the commit before the change, same graph as the reference loop, and
        the same number of draws taken from the stream."""
        roster = bench_roster(clients)
        rng = random.Random(RANDOM_K_SEED)
        topology = RandomKTopology().build(roster, rng)
        assert_holds(f"random_k_adjacency_{clients}", adjacency_pairs(topology))
        assert topology.edge_count == RANDOM_K_EDGES[clients]
        reference_rng = random.Random(RANDOM_K_SEED)
        assert topology.adjacency == reference_random_k(roster, reference_rng).adjacency
        assert rng.getstate() == reference_rng.getstate()

    def test_random_k_fill_saturates_at_the_attempt_cap(self):
        """Degree-capped graph: the last edges almost never land, so the fill
        stops at the 50x attempt cap, not the edge target.  4,006 of 4,008
        edges on the bench roster — and exactly ``2 * cap`` index draws."""
        roster = bench_roster(1000)
        target_edges = len(roster) * 8 // 2
        counting = CountingRandom(RANDOM_K_SEED)
        topology = RandomKTopology().build(roster, counting)
        assert topology.edge_count == 4006 < target_edges == 4008
        assert counting.accepted_draws(len(roster)) == 2 * 50 * target_edges

    def test_region_hub_scales_latency_on_hub_links_only(self):
        builder = RegionHubTopology(regions=4, slow_factor=3.0)
        topology = builder.build(PEER_IDS_100, random.Random(42))
        regions = builder.assign_regions(PEER_IDS_100)
        hubs = {region[0] for region in regions}
        assert topology.latency_scale  # hub-hub edges exist
        for (a, b), scale in topology.latency_scale.items():
            assert a in hubs and b in hubs
            assert scale == 3.0
        # Intra-region edges carry no scale entry (factor 1.0).
        member, other = regions[0][1], regions[0][2]
        assert topology.scale_for(member, other) == 1.0

    def test_region_hub_intra_region_is_a_mesh(self):
        builder = RegionHubTopology(regions=3)
        topology = builder.build(PEER_IDS_100, random.Random(42))
        for region in builder.assign_regions(PEER_IDS_100):
            for i in range(len(region)):
                for j in range(i + 1, len(region)):
                    assert region[j] in topology.adjacency[region[i]]

    def test_kademlia_bucket_degree_is_logarithmic(self):
        topology = build("kademlia", PEER_IDS_100, bucket_size=3)
        degrees = [len(neighbors) for neighbors in topology.adjacency.values()]
        # Union of per-bucket picks: far sparser than a mesh, denser than a ring.
        assert max(degrees) < 60
        assert topology.mean_degree >= 3


class TestFreezeHelpers:
    def test_freeze_topology_accepts_bare_names_and_param_dicts(self):
        assert freeze_topology(None) is None
        assert freeze_topology("random_k") == ("random_k", ())
        assert freeze_topology(("random_k", {"k": 6})) == ("random_k", (("k", 6),))

    def test_freeze_topology_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            freeze_topology("hypercube")

    def test_freeze_bandwidth_accepts_bare_rates(self):
        assert freeze_bandwidth(None) is None
        assert freeze_bandwidth(500.0) == (("bytes_per_second", 500.0),)

    def test_freeze_churn_validates_events(self):
        frozen = freeze_churn([("leave", 10.0, "client-1"), ("heal", 20.0)])
        assert frozen == (("leave", 10.0, "client-1"), ("heal", 20.0))
        with pytest.raises(ValueError):
            freeze_churn([("explode", 1.0)])
        with pytest.raises(ValueError):
            freeze_churn([("leave", -1.0, "client-1")])

    def test_churn_plan_sorts_events_by_time(self):
        plan = ChurnPlan.from_events([("heal", 50.0), ("leave", 10.0, "x")])
        assert [event.kind for event in plan.events] == ["leave", "heal"]


def wired_network(adjacency, latency=0.05, **network_kwargs):
    """A Network of fresh peers flooding along an explicit adjacency."""
    return network_on(Topology(name="wired", adjacency=adjacency), latency, **network_kwargs)


def network_on(topology, latency=0.05, **network_kwargs):
    """A Network of fresh peers, one per topology node, flooding along it."""
    simulator = Simulator()
    network = Network(
        simulator, latency=ConstantLatency(latency), seed=7, **network_kwargs
    )
    genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
    peers = {
        peer_id: network.add_peer(Peer(peer_id, genesis)) for peer_id in topology.adjacency
    }
    network.install_topology(topology)
    return simulator, network, peers


def mesh_network(peer_ids, latency=0.05, **network_kwargs):
    """A full-mesh Network (no topology installed) of fresh peers."""
    simulator = Simulator()
    network = Network(
        simulator, latency=ConstantLatency(latency), seed=7, **network_kwargs
    )
    genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
    peers = {peer_id: network.add_peer(Peer(peer_id, genesis)) for peer_id in peer_ids}
    return simulator, network, peers


def record_arrivals(simulator, peer, method):
    """Wrap ``peer.<method>`` to note the simulation time of every call."""
    arrivals = []
    original = getattr(peer, method)

    def recording(*args):
        arrivals.append(simulator.now)
        return original(*args)

    setattr(peer, method, recording)
    return arrivals


def mined_blocks(peer, count):
    """``count`` empty blocks built and imported on ``peer``'s own chain."""
    blocks = []
    for number in range(count):
        block, _ = peer.chain.build_block([], miner=ALICE, timestamp=float(number + 1))
        status, _imported = peer.import_block(block)
        assert status == "imported"
        blocks.append(block)
    return blocks


LINE = {"a": ("b",), "b": ("a", "c"), "c": ("b",)}


class TestFloodGossip:
    def test_transaction_crosses_multiple_hops(self):
        simulator, network, peers = wired_network(LINE)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["a"].submit_transaction(transaction, now=0.0)
        simulator.run()
        assert peers["c"].pool.transactions() == [transaction]
        # a->b and b->c: exactly two delivery hops, no duplicate back-flow.
        assert network.stats.transaction_deliveries == 2
        assert network.stats.transaction_bytes == 2 * len(wire_encoding(transaction))

    def test_block_floods_with_dedup_on_cycles(self):
        ring = {"a": ("b", "d"), "b": ("a", "c"), "c": ("b", "d"), "d": ("a", "c")}
        simulator, network, peers = wired_network(ring)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["a"].submit_transaction(transaction, now=0.0)
        simulator.run()
        block, _ = peers["a"].chain.build_block([transaction], miner=ALICE, timestamp=1.0)
        network.broadcast_block(peers["a"], block)
        simulator.run()
        for peer in peers.values():
            assert peer.chain.head is block
        # On a 4-cycle the flood reaches c from both sides: one import, one dedup.
        assert network.stats.block_duplicates >= 1
        assert all(peer.stats.blocks_rejected == 0 for peer in peers.values())

    def test_redelivered_block_is_deduped_not_rejected(self):
        simulator, network, peers = wired_network(LINE)
        block, _ = peers["a"].chain.build_block([], miner=ALICE, timestamp=1.0)
        network.broadcast_block(peers["a"], block)
        simulator.run()
        duplicates_before = network.stats.block_duplicates
        network.broadcast_block(peers["a"], block)
        simulator.run()
        assert network.stats.block_duplicates > duplicates_before
        assert all(peer.stats.blocks_rejected == 0 for peer in peers.values())
        assert all(peer.chain.height == 1 for peer in peers.values())

    def test_propagation_samples_count_every_remote_import(self):
        simulator, network, peers = wired_network(LINE)
        block, _ = peers["a"].chain.build_block([], miner=ALICE, timestamp=1.0)
        network.broadcast_block(peers["a"], block)
        simulator.run()
        samples = network.propagation_samples()
        assert len(samples) == 2  # b and c; the origin's own import is not a hop
        assert samples[0] == pytest.approx(0.05)
        assert samples[1] == pytest.approx(0.10)
        summary = network.propagation_summary()
        assert summary["block_propagation_p95"] >= summary["block_propagation_p50"]


class TestMembership:
    def test_add_peer_after_install_topology_is_refused(self):
        simulator, network, peers = wired_network(LINE)
        genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
        with pytest.raises(ValueError, match="install_topology"):
            network.add_peer(Peer("d", genesis))
        assert len(network) == 3


class TestFullMeshLinks:
    def test_without_bandwidth_every_sender_shares_one_link_per_peer(self):
        simulator, network, peers = mesh_network(["a", "b", "c"])
        peers["a"].submit_transaction(Transaction(sender=ALICE, nonce=0, to=BOB, value=5), now=0.0)
        peers["b"].submit_transaction(Transaction(sender=BOB, nonce=0, to=ALICE, value=5), now=0.0)
        simulator.run()
        assert network.stats.transaction_deliveries == 4
        assert list(network._mesh_links) == [None]
        assert [link.peer_id for link in network._mesh_links[None]] == ["a", "b", "c"]
        assert network._links_made == {}

    def test_with_bandwidth_each_sender_has_its_own_pipe(self):
        simulator, network, peers = mesh_network(
            ["a", "b", "c"], latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        arrivals = record_arrivals(simulator, peers["c"], "receive_transaction")
        first = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        second = Transaction(sender=ALICE, nonce=1, to=BOB, value=5)
        other = Transaction(sender=BOB, nonce=0, to=ALICE, value=5)
        peers["a"].submit_transaction(first, now=0.0)
        peers["a"].submit_transaction(second, now=0.0)
        peers["b"].submit_transaction(other, now=0.0)
        simulator.run()
        size = len(wire_encoding(first))
        # b -> c does not queue behind a -> c; a's second send does.
        assert sorted(arrivals) == [
            pytest.approx(size / 100.0),
            pytest.approx(size / 100.0),
            pytest.approx(2 * size / 100.0),
        ]
        assert sorted(network._mesh_links) == ["a", "b"]

    def test_a_peer_added_later_gets_a_link_and_the_old_pipes_keep_their_queue(self):
        simulator, network, peers = mesh_network(
            ["a", "b"], latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        first = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        second = Transaction(sender=ALICE, nonce=1, to=BOB, value=5)
        peers["a"].submit_transaction(first, now=0.0)
        genesis = GenesisConfig.for_labels(["alice", "bob"], balance=10**18)
        peers["c"] = network.add_peer(Peer("c", genesis))
        heard_by_b = record_arrivals(simulator, peers["b"], "receive_transaction")
        heard_by_c = record_arrivals(simulator, peers["c"], "receive_transaction")
        peers["a"].submit_transaction(second, now=0.0)
        simulator.run()
        size = len(wire_encoding(first))
        assert heard_by_b == [pytest.approx(size / 100.0), pytest.approx(2 * size / 100.0)]
        assert heard_by_c == [pytest.approx(size / 100.0)]

    def test_an_offline_origin_imports_its_block_and_every_hop_is_a_link_drop(self):
        simulator, network, peers = mesh_network(["a", "b", "c"])
        block, _ = peers["a"].chain.build_block([], miner=ALICE, timestamp=1.0)
        network.set_offline("a")
        network.broadcast_block(peers["a"], block)
        simulator.run()
        assert peers["a"].chain.head is block
        assert network.stats.blocks_dropped_link == 2
        assert peers["b"].chain.height == 0


class TestBandwidthFifo:
    def test_serialisation_delay_is_size_over_rate(self):
        model = BandwidthModel(bytes_per_second=1000.0)
        assert model.serialisation_delay("a", "b", 500) == pytest.approx(0.5)

    def test_per_link_override(self):
        model = BandwidthModel(bytes_per_second=1000.0, per_link=(("a", "b", 100.0),))
        assert model.serialisation_delay("a", "b", 100) == pytest.approx(1.0)
        assert model.serialisation_delay("b", "a", 100) == pytest.approx(0.1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            BandwidthModel(bytes_per_second=0)
        with pytest.raises(ValueError):
            BandwidthModel(per_link=(("a", "b", -1.0),))

    def test_back_to_back_sends_queue_on_the_link(self):
        pair = {"a": ("b",), "b": ("a",)}
        simulator, network, peers = wired_network(
            pair, latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        arrivals = record_arrivals(simulator, peers["b"], "receive_transaction")
        first = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        second = Transaction(sender=ALICE, nonce=1, to=BOB, value=5)
        peers["a"].submit_transaction(first, now=0.0)
        peers["a"].submit_transaction(second, now=0.0)
        simulator.run()
        assert len(arrivals) == 2
        size = len(wire_encoding(first))
        # FIFO: the first fills the pipe for size/rate; the second departs
        # only once the pipe frees, so it arrives one serialisation later.
        assert arrivals[0] == pytest.approx(size / 100.0)
        assert arrivals[1] == pytest.approx(arrivals[0] + len(wire_encoding(second)) / 100.0)

    def test_a_block_and_a_transaction_share_one_link_queue(self):
        pair = {"a": ("b",), "b": ("a",)}
        simulator, network, peers = wired_network(
            pair, latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        block_arrivals = record_arrivals(simulator, peers["b"], "import_block")
        transaction_arrivals = record_arrivals(simulator, peers["b"], "receive_transaction")
        (block,) = mined_blocks(peers["a"], 1)
        network.broadcast_block(peers["a"], block)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["a"].submit_transaction(transaction, now=0.0)
        simulator.run()
        block_time = len(wire_encoding(block)) / 100.0
        assert block_arrivals == [pytest.approx(block_time)]
        assert transaction_arrivals == [
            pytest.approx(block_time + len(wire_encoding(transaction)) / 100.0)
        ]

    def test_the_reverse_direction_does_not_queue(self):
        pair = {"a": ("b",), "b": ("a",)}
        simulator, network, peers = wired_network(
            pair, latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        arrivals = record_arrivals(simulator, peers["a"], "receive_transaction")
        (block,) = mined_blocks(peers["a"], 1)
        network.broadcast_block(peers["a"], block)
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["b"].submit_transaction(transaction, now=0.0)
        simulator.run()
        # a -> b is busy with the block; b -> a is a separate pipe.
        assert arrivals == [pytest.approx(len(wire_encoding(transaction)) / 100.0)]

    def test_a_region_hub_edge_scale_applies_both_ways_and_only_there(self):
        topology = RegionHubTopology(regions=2, slow_factor=4.0).build(
            [f"p{index}" for index in range(6)], random.Random(1)
        )
        # Regions round-robin: p0, p2, p4 and p1, p3, p5; hubs p0 and p1.
        assert dict(topology.latency_scale) == {("p0", "p1"): 4.0}
        for origin, hub, neighbour in (("p0", "p1", "p2"), ("p1", "p0", "p3")):
            simulator, network, peers = network_on(topology, latency=0.1)
            first_heard = {
                peer_id: record_arrivals(simulator, peer, "receive_transaction")
                for peer_id, peer in peers.items()
            }
            transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
            peers[origin].submit_transaction(transaction, now=0.0)
            simulator.run()
            assert first_heard[hub][0] == pytest.approx(0.4)
            assert first_heard[neighbour][0] == pytest.approx(0.1)
            assert all(
                link.scale == (4.0 if {source, link.peer_id} == {"p0", "p1"} else 1.0)
                for source, links in network._out_links.items()
                for link in links
            )

    def test_a_range_sync_request_and_its_response_occupy_their_links(self):
        pair = {"a": ("b",), "b": ("a",)}
        simulator, network, peers = wired_network(
            pair, latency=0.0, bandwidth=BandwidthModel(bytes_per_second=100.0)
        )
        arrivals = record_arrivals(simulator, peers["b"], "import_block")
        blocks = mined_blocks(peers["a"], 3)
        sizes = [len(wire_encoding(block)) for block in blocks]
        network.broadcast_block(peers["a"], blocks[-1])
        simulator.run()
        assert network.stats.sync_requests == 1
        assert peers["b"].chain.head is blocks[-1]
        # The tip lands at t, orphans, and b asks a for blocks 1-2: the
        # request holds b -> a for 64 bytes, then both responses queue on
        # a -> b behind each other.
        t = sizes[-1] / 100.0
        request = 64 / 100.0
        assert arrivals == [
            pytest.approx(t),
            pytest.approx(t + request + sizes[0] / 100.0),
            pytest.approx(t + request + (sizes[0] + sizes[1]) / 100.0),
        ]
        assert network._link("b", peers["a"]).free_at == pytest.approx(t + request)
        assert network._link("a", peers["b"]).free_at == pytest.approx(
            t + (sizes[0] + sizes[1]) / 100.0
        )


class TestChurn:
    def test_partitioned_group_misses_gossip_until_heal(self):
        mesh = {
            "a": ("b", "c", "d"),
            "b": ("a", "c", "d"),
            "c": ("a", "b", "d"),
            "d": ("a", "b", "c"),
        }
        simulator, network, peers = wired_network(mesh)
        network.set_partition([("c", "d")])
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["a"].submit_transaction(transaction, now=0.0)
        simulator.run()
        assert peers["b"].pool.transactions() == [transaction]
        assert peers["c"].pool.transactions() == []
        assert network.stats.transactions_dropped_link > 0
        network.heal_partition()
        other = Transaction(sender=ALICE, nonce=1, to=BOB, value=5)
        peers["a"].submit_transaction(other, now=simulator.now)
        simulator.run()
        assert other in peers["c"].pool.transactions()

    def test_offline_peer_drops_sends_and_deliveries(self):
        simulator, network, peers = wired_network(LINE)
        network.set_offline("b")
        transaction = Transaction(sender=ALICE, nonce=0, to=BOB, value=5)
        peers["a"].submit_transaction(transaction, now=0.0)
        simulator.run()
        # b is the only route to c: nobody hears anything.
        assert peers["b"].pool.transactions() == []
        assert peers["c"].pool.transactions() == []
        network.set_offline("b", offline=False)
        rejoined = Transaction(sender=ALICE, nonce=1, to=BOB, value=5)
        peers["a"].submit_transaction(rejoined, now=simulator.now)
        simulator.run()
        assert rejoined in peers["c"].pool.transactions()

    def test_orphaned_block_triggers_ancestor_sync(self):
        pair = {"a": ("b",), "b": ("a",)}
        simulator, network, peers = wired_network(pair)
        blocks = mined_blocks(peers["a"], 3)
        for block in blocks:
            network._mark_seen("a", block.hash)
        # b hears only the tip: it must orphan it and range-sync the rest from a.
        network.broadcast_block(peers["a"], blocks[-1])
        simulator.run()
        assert network.stats.blocks_orphaned == 1
        assert network.stats.sync_requests == 1
        assert network.stats.sync_blocks == 2
        assert peers["b"].chain.height == 3
        assert peers["b"].chain.head is blocks[-1]

    def test_scheduled_churn_applies_from_the_event_loop(self):
        simulator, network, peers = wired_network(LINE)
        plan = ChurnPlan.from_events(
            [("leave", 5.0, "c"), ("join", 10.0, "c"), ("heal", 12.0)]
        )
        network.schedule_churn(plan)
        simulator.run_until(6.0)
        assert "c" in network._offline
        simulator.run_until(11.0)
        assert "c" not in network._offline
        assert [entry[1] for entry in network.churn_log] == ["leave", "join"]
