"""The interpreter-side interface for Runtime Argument Augmentation (RAA).

The paper modifies the EVM interpreter so that, when a *pure/view* function
declares RAA arguments, the interpreter fetches data from an RAA provider
(activities R1–R3 in Figure 1) and writes it into the formal arguments
before evaluation.  This module defines the request/provider protocol that
the execution engine calls; the HMS-backed provider lives in
:mod:`repro.core.raa` (the provider is a property of the peer, not of the
contract).

The protocol deliberately has no access to the transaction signature path:
the engine only consults providers for static calls, which is how the
paper's restriction — RAA cannot modify signed transaction inputs — is
enforced architecturally rather than by convention.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from ..chain.executor import BlockContext
from ..crypto.addresses import Address
from ..record import record

__all__ = ["RAARequest", "RAAProviderProtocol"]


@record
class RAARequest:
    """A request from the interpreter to an RAA provider."""

    contract_address: Address
    function_name: str
    function_signature: str
    arguments: tuple
    """Decoded arguments as supplied by the caller (pre-augmentation)."""
    augmentable_indices: tuple
    """Which argument positions the provider may rewrite."""
    caller: Address
    block: BlockContext


class RAAProviderProtocol(Protocol):
    """Anything that can answer RAA requests for a peer."""

    def provide(self, request: RAARequest) -> Optional[Sequence[object]]:
        """Return the full (augmented) argument list, or ``None`` to decline.

        Returning ``None`` leaves the caller's arguments untouched — this is
        what happens when a Sereth contract is called through an unmodified
        Geth peer, and is what makes RAA-equipped contracts interoperable
        with standard clients (Section V of the paper).
        """
        ...
