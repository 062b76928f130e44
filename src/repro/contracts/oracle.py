"""A conventional blockchain-oracle contract pair.

Section II-E of the paper describes oracles as the standard way for a smart
contract to reach external data — and Section III-D argues they cannot
deliver *intra-block* data because a request/response oracle needs at least
one full block round-trip per query.  These two contracts implement that
baseline: consumers post a request, an off-chain oracle operator observes
the request event and answers with a second transaction, and only then can
the consumer read the value.  The ``oracle`` experiment
(:mod:`repro.experiments.oracle`) measures that round-trip against the
zero-round-trip RAA path.
"""

from __future__ import annotations

from typing import Tuple

from ..crypto.keccak import keccak256
from ..encoding.hexutil import bytes32_from_int, to_bytes32
from ..evm.contract import Contract, contract_function
from ..evm.message import CallContext
from ..evm.storage import ContractStorage, mapping_slot

__all__ = ["OracleContract"]

SLOT_OPERATOR = 0
SLOT_NEXT_REQUEST_ID = 1
REQUESTS_BASE = 2      # request id -> requester address
ANSWERS_BASE = 3       # request id -> answered value
ANSWERED_BASE = 4      # request id -> 1 when answered

REQUEST_EVENT = keccak256(b"OracleRequest(uint256,address,bytes32)")
ANSWER_EVENT = keccak256(b"OracleAnswer(uint256,bytes32)")


class OracleContract(Contract):
    """Request/response oracle: ask with one transaction, read after another."""

    CODE_NAME = "Oracle"

    def constructor(self, context: CallContext, storage: ContractStorage) -> None:
        storage.store_address(SLOT_OPERATOR, context.sender)
        storage.store_int(SLOT_NEXT_REQUEST_ID, 0)

    # -- consumer side -------------------------------------------------------------

    @contract_function(["bytes32"], returns=["uint256"])
    def request(self, context: CallContext, storage: ContractStorage, query: bytes) -> int:
        """Post a data request; returns the request id (also logged)."""
        request_id = storage.load_int(SLOT_NEXT_REQUEST_ID)
        storage.store_int(SLOT_NEXT_REQUEST_ID, request_id + 1)
        storage.store(
            mapping_slot(REQUESTS_BASE, bytes32_from_int(request_id)),
            to_bytes32(context.sender),
        )
        context.emit(
            self.address,
            topics=[REQUEST_EVENT, bytes32_from_int(request_id)],
            data=query,
        )
        return request_id

    @contract_function(["uint256"], returns=["bool", "bytes32"], view=True)
    def read_answer(
        self, context: CallContext, storage: ContractStorage, request_id: int
    ) -> Tuple[bool, bytes]:
        """Return (answered, value) for a request id."""
        key = bytes32_from_int(request_id)
        answered = storage.load_int(mapping_slot(ANSWERED_BASE, key)) != 0
        value = storage.load(mapping_slot(ANSWERS_BASE, key))
        return answered, value

    # -- operator side ----------------------------------------------------------------

    @contract_function(["uint256", "bytes32"])
    def answer(
        self, context: CallContext, storage: ContractStorage, request_id: int, value: bytes
    ) -> None:
        """Answer a pending request; only the operator may call."""
        operator = storage.load_address(SLOT_OPERATOR)
        self.require(context.sender == operator, "only the oracle operator may answer")
        key = bytes32_from_int(request_id)
        requester = storage.load(mapping_slot(REQUESTS_BASE, key))
        self.require(requester != b"\x00" * 32, "unknown request id")
        self.require(
            storage.load_int(mapping_slot(ANSWERED_BASE, key)) == 0,
            "request already answered",
        )
        storage.store(mapping_slot(ANSWERS_BASE, key), value)
        storage.store_int(mapping_slot(ANSWERED_BASE, key), 1)
        context.emit(self.address, topics=[ANSWER_EVENT, key], data=value)
