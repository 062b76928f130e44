"""The seams a span recorder wraps still see every event.

``bench/trace.py`` times the network layer by swapping class-level wrappers
around ``Simulator.step``, ``Simulator.schedule_at`` and
``Peer.receive_transaction``; its ``net.sim.events`` counts ``step`` calls.
A hot path that reached past one of those methods (a bound method cached at
import time, an inlined heap push) would leave the recorder blind to the
events it skipped.  This wraps the same three methods the same way on a
small ``random_k`` run and checks each one saw every event.
"""

from repro.api import Simulation, build_simulation
from repro.net.peer import Peer
from repro.net.sim import Simulator

SEAMS = ((Simulator, "step"), (Simulator, "schedule_at"), (Peer, "receive_transaction"))


def random_k_spec():
    return (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=3, buy_interval=2.0)
        .miners(2)
        .clients(30)
        .block_interval(13.0)
        .gossip(0.07, 0.05)
        .topology("random_k")
        .bandwidth(1_250_000.0)
        .seed(11)
        .build()
    )


def test_wrapped_seams_see_every_event():
    calls = {name: 0 for _owner, name in SEAMS}
    originals = [(owner, name, owner.__dict__[name]) for owner, name in SEAMS]

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    try:
        for owner, name, function in originals:
            setattr(owner, name, counting(name, function))
        handle = build_simulation(random_k_spec())
        handle.run()
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)
    assert all(owner.__dict__[name] is function for owner, name, function in originals)

    simulator = handle.simulator
    scheduled = next(simulator._sequence)  # one sequence number per scheduled event
    assert simulator.events_processed > 1000
    assert calls["step"] == simulator.events_processed
    assert calls["schedule_at"] == scheduled
    assert calls["receive_transaction"] == handle.network.stats.transaction_deliveries > 0
