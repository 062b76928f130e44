"""A served process's memos fill to their caps and stop: flat memory.

One session takes a few thousand requests of the load generator's market
mix (READ-UNCOMMITTED ``contract.call`` reads, ``tx.submit`` buys built from
them, ``session.advance``) — about one new keccak input per request, enough
to fill the digest memo — while the ``memos`` probe is sampled through the
same ``obs.probes`` verb an operator would use.
"""

from __future__ import annotations

import random

from repro.api import reset_process_caches
from repro.contracts.sereth import SerethContract
from repro.core.hms.fpv import BUY_FLAG
from repro.encoding.hexutil import from_hex, to_bytes32
from repro.service.server import ServiceConfig, SimulatorService

BUY_ABI = SerethContract.function_by_name("buy").abi
PLACEHOLDER = ["0x" + "00" * 32] * 3
MARKET = {
    "scenario": "semantic_mining",
    "workload": "market",
    "params": {"num_buys": 6, "buys_per_set": 2.0, "submission_interval": 1.0},
    "max_duration": 240.0,
    "accounts": ["flat"],
}


def test_every_memo_stays_under_its_cap_and_stops_growing_once_full():
    service = SimulatorService(ServiceConfig(idle_timeout=None, retention_default=64))
    try:
        reset_process_caches()
        session = service.dispatch("session.create", dict(MARKET))["session"]
        service.dispatch("session.advance", {"session": session, "blocks": 3})
        contract = service.dispatch("hms.status", {"session": session})["watched"][0]["contract"]

        def read(function: str) -> bytes:
            reply = service.dispatch(
                "contract.call",
                {"session": session, "contract": contract, "function": function, "arguments": [PLACEHOLDER]},
            )
            return to_bytes32(from_hex(reply["values"][0]))

        rng = random.Random(22)
        requests, samples = 0, []
        for step in range(4_000):
            op = rng.choices(("observe", "buy", "advance"), weights=(5, 2, 2))[0]
            if op == "observe":
                read("mark")
                requests += 1
            elif op == "buy":
                data = "0x" + BUY_ABI.encode_call([BUY_FLAG, read("mark"), read("get")]).hex()
                service.dispatch(
                    "tx.submit", {"session": session, "account": "flat", "to": contract, "data": data}
                )
                requests += 3
            else:
                service.dispatch("session.advance", {"session": session, "blocks": 1})
                requests += 1
            if step % 100 == 99:
                samples.append(service.dispatch("obs.probes", {})["probes"])
    finally:
        service.close()

    assert requests > 5_000
    for probes in samples:
        for name, memo in probes["memos"].items():
            assert memo["size"] <= memo["max_size"], (name, memo)
        assert probes["hash_cache"] == probes["memos"]["keccak256"]
    keccak_sizes = [probes["memos"]["keccak256"]["size"] for probes in samples]
    cap = samples[0]["memos"]["keccak256"]["max_size"]
    assert keccak_sizes == sorted(keccak_sizes)
    assert keccak_sizes[-5:] == [cap] * 5, keccak_sizes  # filled, then flat
    # Still earning its keep when full: evictions have not turned hits into misses.
    last, before = samples[-1]["hash_cache"], samples[-6]["hash_cache"]
    assert last["hits"] - before["hits"] > last["misses"] - before["misses"]
