"""What a static call reuses must equal what it would have read afresh.

A Sereth peer's RAA provider memoises the committed AMV per state root, and a
peer reuses its next-block context per ``(head, now)``.  Over a real market
run, after every block any peer imports, both must equal fresh reads — and
the run must actually move the committed AMV, or the check proves nothing.
"""

from repro.api import Simulation, build_simulation
from repro.chain.executor import BlockContext
from repro.core.hms.fpv import AMV
from repro.encoding.hexutil import bytes32_from_int, to_bytes32
from repro.net.peer import Peer
from repro.workloads.base import sereth_exchange_address

from .test_hms_incremental import SERETH_ADDRESS, sereth_peer


def fresh_amv(state, contract) -> AMV:
    return AMV(
        address=state.get_storage(contract, bytes32_from_int(0)),
        mark=state.get_storage(contract, bytes32_from_int(1)),
        value=state.get_storage(contract, bytes32_from_int(2)),
    )


def fresh_context(peer: Peer, now: float) -> BlockContext:
    head = peer.chain.head
    return BlockContext(
        number=head.number + 1,
        timestamp=now,
        miner=head.header.miner,
        gas_limit=head.header.gas_limit,
        difficulty=head.header.difficulty,
    )


def test_memoised_reads_equal_fresh_reads_after_every_block(monkeypatch):
    spec = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("market", buys_per_set=2.0, num_buys=60)
        .seed(5)
        .build()
    )
    handle = build_simulation(spec)
    contract = sereth_exchange_address()
    receive_block = Peer.receive_block
    checked, committed_values = [], set()

    def receive_then_compare(peer, block):
        imported = receive_block(peer, block)
        provider = peer.hms_provider(contract)
        if imported and provider is not None:
            now = handle.simulator.now
            amv = provider.committed_amv()
            assert amv == fresh_amv(peer.chain.state, contract)
            assert provider.committed_amv() is amv, "a second read at one head is the memo"
            context = peer.head_context(now)
            assert context == fresh_context(peer, now)
            assert peer.head_context(now) is context
            assert peer.head_context(now + 1.0) == fresh_context(peer, now + 1.0)
            checked.append(block.number)
            committed_values.add(amv.value)
        return imported

    monkeypatch.setattr(Peer, "receive_block", receive_then_compare)
    handle.run()
    assert len(checked) >= 20
    assert len(committed_values) > 3, "sets committed: the memo had to move"


def test_a_state_written_after_its_root_is_read_afresh():
    peer = sereth_peer()
    provider = peer.hms_provider(SERETH_ADDRESS)
    state = peer.chain.state
    state.state_root()
    before = provider.committed_amv()
    state.set_storage(SERETH_ADDRESS, bytes32_from_int(2), to_bytes32(4242))
    assert state.known_root is None
    after = provider.committed_amv()
    assert after.value == to_bytes32(4242) and after != before
    assert after == fresh_amv(state, SERETH_ADDRESS)
