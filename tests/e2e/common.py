"""Shared helpers for the e2e suite, in the classic harness shape.

Mirrors the idiom of public blockchain-simulator e2e suites: a module of
small free functions (``deploy_intelligent_contract``-style wrappers over
raw ``payload``/``post_request`` JSON-RPC plumbing) that make each test
read as the transcript of a real client session.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.service import ServiceClient
from repro.service.client import _Connection, _roundtrip

__all__ = [
    "post_request",
    "create_market_session",
    "deploy_contract",
    "call_contract_method",
    "wait_for_receipt",
    "has_success_status",
]

def post_request(url: str, body: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
    """POST one JSON-RPC envelope on a one-shot connection and return the
    parsed response envelope (an error envelope is returned, not raised)."""
    connection = _Connection(url, timeout)
    try:
        return _roundtrip(connection, "POST", urlsplit(url).path, body)
    finally:
        connection.close()


def has_success_status(receipt: Dict[str, Any]) -> bool:
    """True when a ``tx.receipt`` result is committed AND executed cleanly."""
    return bool(receipt.get("committed")) and bool(receipt.get("success"))


SMOKE_SESSION: Dict[str, Any] = {
    "params": {"num_buys": 4, "buys_per_set": 2.0},
    "accounts": ["e2e-alice", "e2e-bob"],
}


def create_market_session(client: ServiceClient, **overrides: Any) -> str:
    """A small market session with two funded e2e accounts."""
    spec = {**SMOKE_SESSION, **overrides}
    return client.create_session(**spec)


def deploy_contract(
    client: ServiceClient, session: str, account: str, code: str, **kwargs: Any
) -> Tuple[str, str]:
    """Deploy ``code`` and return ``(contract_address, transaction_hash)``."""
    result = client.request(
        "contract.deploy", {"session": session, "account": account, "code": code, **kwargs}
    )
    return result["contract_address"], result["transaction_hash"]


def call_contract_method(
    client: ServiceClient,
    session: str,
    contract: str,
    function: str,
    arguments: Optional[list] = None,
    **kwargs: Any,
) -> list:
    """Call a view function and return its decoded values."""
    return client.call_contract_method(
        session, contract, function, arguments, **kwargs
    )["values"]


def wait_for_receipt(
    client: ServiceClient,
    session: str,
    transaction_hash: str,
    max_blocks: int = 8,
) -> Dict[str, Any]:
    """Advance the session block by block until the transaction commits."""
    receipt = client.receipt(session, transaction_hash)
    for _ in range(max_blocks):
        if receipt.get("committed"):
            return receipt
        client.advance(session, blocks=1)
        receipt = client.receipt(session, transaction_hash)
    return receipt
