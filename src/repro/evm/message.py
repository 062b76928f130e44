"""Message and call context objects passed to contract code.

A *message* is the EVM-level unit of execution: either the outer message of
a transaction (``msg.sender`` = transaction sender) or a read-only call made
off-chain against a peer's state (what Solidity marks ``view``/``pure``).
The call context bundles the message with block information and the storage
accessor bound to the callee contract's account.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..chain.executor import BlockContext
from ..chain.gas import GasMeter
from ..chain.receipt import LogEntry
from ..crypto.addresses import Address
from ..record import record

__all__ = ["Message", "CallContext", "Revert"]


class Revert(Exception):
    """Raised by contract code to abort execution and roll back all changes.

    The transaction is still included in its block; its receipt records
    ``success=False`` and the revert reason.
    """

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "execution reverted")
        self.reason = reason


@record
class Message:
    """The immutable ``msg`` visible to contract code."""

    sender: Address
    to: Optional[Address]
    value: int = 0
    data: bytes = b""
    gas: int = 100_000
    is_static: bool = False
    """True for view/pure calls made outside a transaction (no state writes)."""


@dataclass
class CallContext:
    """Execution environment handed to a contract function."""

    message: Message
    block: BlockContext
    gas_meter: GasMeter
    origin: Address
    logs: List[LogEntry] = field(default_factory=list)

    @property
    def sender(self) -> Address:
        """Shorthand for ``message.sender`` (Solidity's ``msg.sender``)."""
        return self.message.sender

    @property
    def value(self) -> int:
        return self.message.value

    @property
    def timestamp(self) -> float:
        """Block timestamp (Solidity's ``block.timestamp``)."""
        return self.block.timestamp

    @property
    def block_number(self) -> int:
        return self.block.number

    def emit(self, address: Address, topics: List[bytes], data: bytes = b"") -> None:
        """Record an event log, charging gas for it."""
        self.gas_meter.charge_log(len(topics), len(data))
        self.logs.append(LogEntry(address=address, topics=tuple(topics), data=data))

    def require(self, condition: bool, reason: str = "requirement failed") -> None:
        """Solidity-style ``require``: revert with ``reason`` when false."""
        if not condition:
            raise Revert(reason)
