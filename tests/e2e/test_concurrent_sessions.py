"""Concurrent-session isolation: the service's core determinism promise.

Two sessions built from the *same* spec (same explicit seed, retention
pinned so the server default cannot diverge from a local build) are driven
from many threads at once — concurrent ``session.run`` on both, with status
and describe queries interleaving at the same engine turn.  Their
summaries must come back byte-identical to each other AND to a direct
in-process :func:`build_simulation(spec).run()` of the identical spec:
multiplexing sessions behind the RPC facade must not perturb results.
"""

from __future__ import annotations

import json
import threading

from repro.api.engine import build_simulation
from repro.service.session import build_session_spec

# Explicit seed and retention: the request must pin everything the server
# would otherwise default (retention_default) or derive (seed), so the same
# dict builds the same spec both through session.create and locally.
ISOLATION_SPEC = {
    "params": {"num_buys": 4, "buys_per_set": 2.0},
    "accounts": ["iso-alice"],
    "seed": 11,
    "retention": None,
}


def canonical(summary):
    """Byte-comparable form: the JSON the server itself would emit."""
    return json.dumps(summary, sort_keys=True)


def test_concurrent_same_spec_sessions_are_byte_identical(client):
    first = client.create_session_info(**ISOLATION_SPEC)
    second = client.create_session_info(**ISOLATION_SPEC)
    assert first["seed"] == second["seed"] == 11
    assert first["spec_digest"] == second["spec_digest"]
    assert first["session"] != second["session"]

    sessions = (first["session"], second["session"])
    summaries = {}
    failures = []
    started = threading.Barrier(parties=2 + 4)

    def run_session(session_id):
        try:
            started.wait(timeout=30)
            summaries[session_id] = client.run(session_id)
        except Exception as error:  # surfaced after join — threads must not die silently
            failures.append(error)

    def poke(session_id):
        try:
            started.wait(timeout=30)
            for _ in range(5):
                # Session queries take the one engine turn, in line with
                # the runs; the control-plane status never takes it.
                client.session_status(session_id)
                client.status()
        except Exception as error:
            failures.append(error)

    threads = [threading.Thread(target=run_session, args=(sid,)) for sid in sessions]
    threads += [threading.Thread(target=poke, args=(sessions[i % 2],)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"
    assert not failures, f"concurrent requests failed: {failures!r}"

    assert canonical(summaries[sessions[0]]) == canonical(summaries[sessions[1]])

    # The facade adds nothing: a direct in-process run of the identical spec
    # produces the same summary byte for byte (after its own JSON round
    # trip, which is exactly what the wire applied to the served copies).
    spec = build_session_spec(dict(ISOLATION_SPEC))
    direct = build_simulation(spec).run().summary()
    assert canonical(json.loads(json.dumps(direct))) == canonical(summaries[sessions[0]])

    for session_id in sessions:
        client.close_session(session_id)


def test_distinct_specs_stay_isolated_under_interleaving(client):
    """Sessions with different seeds interleaved on the same pool must keep
    their own state: same digest semantics, different chains."""
    low = client.create_session(**{**ISOLATION_SPEC, "seed": 1})
    high = client.create_session(**{**ISOLATION_SPEC, "seed": 2})
    try:
        results = {}

        def drive(session_id):
            # Generously past the first block: the schedule is jittered, so
            # a couple of nominal intervals may deterministically hold none.
            client.advance(session_id, blocks=8)
            results[session_id] = client.session_status(session_id)

        threads = [threading.Thread(target=drive, args=(sid,)) for sid in (low, high)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert results[low]["seed"] == 1 and results[high]["seed"] == 2
        assert results[low]["session"] != results[high]["session"]
        assert results[low]["height"] >= 1 and results[high]["height"] >= 1
    finally:
        client.close_session(low)
        client.close_session(high)
