"""Events due at one instant run in their declared rank order.

``repro.net.sim.RANKS`` puts block deliveries first, transaction deliveries
second and every other event last, first in, first out within a rank.  The
property drives the bare simulator; the network test shows what the rule is
for: a client acting at the instant a block lands reads the post-block state,
whichever of the two was scheduled first.
"""

from hypothesis import given, settings, strategies as st

from repro.chain.transaction import Transaction
from repro.crypto.addresses import address_from_label
from repro.net.sim import BLOCK_DELIVERY, OTHER, RANKS, TRANSACTION_DELIVERY, Simulator

from .test_topology import mesh_network

ALICE = address_from_label("alice")
BOB = address_from_label("bob")

EVENTS = st.lists(
    st.tuples(st.sampled_from([1.0, 2.0, 2.5]), st.sampled_from([BLOCK_DELIVERY, TRANSACTION_DELIVERY, OTHER])),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(events=EVENTS, data=st.data())
def test_same_instant_events_pop_in_rank_order_then_first_in_first_out(events, data):
    order = data.draw(st.permutations(range(len(events))))
    fired = []

    def block(label):
        fired.append(label)

    def transaction(label):
        fired.append(label)

    def other(label):
        fired.append(label)

    callbacks = {BLOCK_DELIVERY: block, TRANSACTION_DELIVERY: transaction, OTHER: other}
    simulator = Simulator()
    RANKS[block], RANKS[transaction] = BLOCK_DELIVERY, TRANSACTION_DELIVERY
    try:
        for position, label in enumerate(order):
            time, rank = events[label]
            simulator.schedule_at(time, callbacks[rank], (time, rank, position))
        simulator.run()
    finally:
        del RANKS[block], RANKS[transaction]
    assert fired == sorted(fired)
    assert len(fired) == len(events)


def test_a_client_action_at_a_block_delivery_instant_reads_the_post_block_state():
    simulator, network, peers = mesh_network(["a", "b"], latency=0.05)
    heights = []
    # Scheduled before the block is even built: insertion order alone would
    # run it first and read the pre-block chain.
    simulator.schedule_at(0.05, lambda: heights.append(peers["b"].chain.height))
    block, _ = peers["a"].chain.build_block([], miner=ALICE, timestamp=1.0)
    network.broadcast_block(peers["a"], block)
    simulator.run()
    assert network.stats.block_deliveries == 1
    assert heights == [1]


def test_a_client_action_at_a_transaction_delivery_instant_sees_it_pending():
    simulator, network, peers = mesh_network(["a", "b"], latency=0.05)
    pending = []
    simulator.schedule_at(0.05, lambda: pending.append(len(peers["b"].pool.transactions())))
    peers["a"].submit_transaction(Transaction(sender=ALICE, nonce=0, to=BOB, value=5), now=0.0)
    simulator.run()
    assert network.stats.transaction_deliveries == 1
    assert pending == [1]
