"""End-to-end: a live server driven over HTTP, start to finish.

Each test is a client transcript — create a session, deploy, transact,
advance, query — against whatever server the ``service_url`` fixture
provides (in-process by default, ``REPRO_SERVICE_URL`` in CI).
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.contracts.simple_storage import SimpleStorageContract
from repro.service import ServiceRPCError, payload

from .common import (
    call_contract_method,
    create_market_session,
    deploy_contract,
    has_success_status,
    post_request,
    wait_for_receipt,
)

SET_VALUE_ABI = SimpleStorageContract.function_by_name("set_value").abi


def test_healthz(service_url):
    with urllib.request.urlopen(f"{service_url}/healthz", timeout=30) as response:
        assert json.loads(response.read()) == {"ok": True}


def test_ping_and_status(client):
    assert client.ping()["ok"] is True
    status = client.status()
    assert status["closing"] is False
    assert status["stats"]["requests"] >= 1


def test_raw_jsonrpc_envelope(service_url):
    envelope = post_request(f"{service_url}/rpc", payload("service.ping", {}, request_id=99))
    assert envelope["jsonrpc"] == "2.0"
    assert envelope["id"] == 99
    assert envelope["result"]["ok"] is True


def test_non_finite_fault_param_is_invalid_params(service_url):
    """A JSON ``NaN`` in a fault window would silently switch every message
    fault off; the server must refuse it as a typed parameter error."""
    body = payload(
        "session.create",
        {"faults": [{"name": "drop", "params": {"rate": 0.5, "until": float("nan")}}]},
    )
    assert '"until": NaN' in json.dumps(body)
    envelope = post_request(f"{service_url}/rpc", body)
    assert "result" not in envelope
    assert envelope["error"]["data"]["kind"] == "invalid_params"
    assert "finite" in envelope["error"]["message"]


def test_deploy_transact_and_read_back(client):
    session = create_market_session(client)
    try:
        client.advance(session, blocks=2)
        address, deploy_hash = deploy_contract(client, session, "e2e-alice", "SimpleStorage")
        receipt = wait_for_receipt(client, session, deploy_hash)
        assert has_success_status(receipt)

        data = "0x" + SET_VALUE_ABI.encode_call(1234).hex()
        submitted = client.submit_transaction(session, "e2e-bob", address, data=data)
        receipt = wait_for_receipt(client, session, submitted["transaction_hash"])
        assert has_success_status(receipt)

        values = call_contract_method(
            client, session, address, "get_value", allow_raa=False
        )
        assert values == [1234]
        # Both extra accounts were funded at genesis and could pay gas.
        for account in ("e2e-alice", "e2e-bob"):
            balance = client.request("state.balance", {"session": session, "account": account})
            assert balance["balance"] > 0
    finally:
        client.close_session(session)


def test_market_workload_hms_view_over_http(client):
    session = create_market_session(client)
    try:
        client.advance(session, blocks=3)
        status = client.hms_status(session)
        assert status["watched"], "the market workload watches its Sereth contract"
        entry = status["watched"][0]
        assert entry["installed"] is True
        assert entry["source"] in ("series", "committed", "empty")
        # The READ-UNCOMMITTED read path over RPC: mark/get with the RAA
        # placeholder give the market's predicted terms.
        placeholder = ["0x" + "00" * 32] * 3
        mark = call_contract_method(client, session, entry["contract"], "mark", [placeholder])
        assert mark[0] == entry["mark"]
    finally:
        client.close_session(session)


def test_session_run_and_metrics(client):
    session = client.create_session(params={"num_buys": 4}, retention=None)
    try:
        summary = client.run(session)
        assert "efficiency" in summary
        assert client.request("session.summary", {"session": session}) == summary
        report = client.request("session.metrics", {"session": session})
        assert report["labels"]["buy"]["submitted"] >= 1
    finally:
        client.close_session(session)


def test_named_experiment_session(client):
    session = client.create_session(experiment="figure2", smoke=True)
    try:
        status = client.session_status(session)
        assert status["state"] == "open"
        described = client.request("session.describe", {"session": session})
        assert described["spec"]["workload"] == "market"
    finally:
        client.close_session(session)


def test_registry_list_over_http(client):
    catalog = client.request("registry.list")
    assert {entry["name"] for entry in catalog["scenarios"]} >= {
        "geth_unmodified",
        "semantic_mining",
        "sereth_client",
    }
    assert all(
        entry["description"] for entries in catalog.values() for entry in entries
    )


def test_probe_snapshot_includes_service(client):
    probes = client.request("obs.probes")["probes"]
    assert "service" in probes
    assert probes["service"]["requests"] >= 1


def test_error_envelopes_are_typed(client):
    with pytest.raises(ServiceRPCError) as excinfo:
        client.session_status("no-such-session")
    assert excinfo.value.kind == "session_not_found"
    with pytest.raises(ServiceRPCError) as excinfo:
        client.request("no.such.method")
    assert excinfo.value.kind == "method_not_found"
    with pytest.raises(ServiceRPCError) as excinfo:
        client.create_session(trace_dir="traces")
    assert excinfo.value.kind == "invalid_params"


def test_session_listing_tracks_lifecycle(client):
    session = client.create_session(params={"num_buys": 4})
    assert session in {entry["session"] for entry in client.list_sessions()}
    client.close_session(session)
    assert session not in {entry["session"] for entry in client.list_sessions()}
