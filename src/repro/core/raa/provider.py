"""Runtime Argument Augmentation providers (Section III-D, Figure 1).

An RAA provider is the ``sereth.go`` data service of Figure 1: when the
interpreter evaluates a pure/view function whose arguments are declared
augmentable, it asks the peer's provider for data and writes it into the
formal arguments before the function body runs.  The provider shipped here
answers with the Hash-Mark-Set view of the peer's own TxPool, which is what
turns Sereth's ``mark``/``get`` calls into a READ-UNCOMMITTED read of the
managed storage variable.

Providers are attached per peer (a property of the client software, not of
the contract); a peer running the unmodified client simply has none, and the
caller's arguments come back unchanged — the interoperability behaviour the
paper demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from ...chain.state import WorldState
from ...chain.transaction import Transaction
from ...crypto.addresses import Address
from ...encoding.hexutil import bytes32_from_int
from ...evm.raa_interface import RAARequest
from ...txpool.pool import TxPool
from ..hms.fpv import AMV
from ..hms.hash_mark_set import HashMarkSet, HMSView
from ..hms.process import HMSConfig

__all__ = ["SerethStorageLayout", "HMSRAAProvider", "StaticRAAProvider", "RAAProviderRegistry"]

PoolSupplier = Callable[[], Union[TxPool, Iterable[Tuple[Transaction, float]]]]
"""Returns the peer's pool itself (so HMS can reuse its view while the pool
is unchanged) or, for ad-hoc wiring, its ``(transaction, arrival_time)``
pairs."""
StateSupplier = Callable[[], WorldState]


@dataclass(frozen=True)
class SerethStorageLayout:
    """Where the watched contract keeps its AMV tuple in storage."""

    address_slot: int = 0
    mark_slot: int = 1
    value_slot: int = 2


class HMSRAAProvider:
    """Answers RAA requests with the HMS view of the local pending pool."""

    def __init__(
        self,
        config: HMSConfig,
        pool_supplier: PoolSupplier,
        state_supplier: StateSupplier,
        layout: Optional[SerethStorageLayout] = None,
    ) -> None:
        self.config = config
        self.pool_supplier = pool_supplier
        self.state_supplier = state_supplier
        self.layout = layout or SerethStorageLayout()
        self.hms = HashMarkSet(config)
        self.requests_served = 0

    # -- view computation -----------------------------------------------------------

    def committed_amv(self) -> AMV:
        """Read the committed AMV straight from the contract's storage slots."""
        state = self.state_supplier()
        contract = self.config.contract_address
        return AMV(
            address=state.get_storage(contract, bytes32_from_int(self.layout.address_slot)),
            mark=state.get_storage(contract, bytes32_from_int(self.layout.mark_slot)),
            value=state.get_storage(contract, bytes32_from_int(self.layout.value_slot)),
        )

    def view(self) -> HMSView:
        """The current READ-UNCOMMITTED view (pool series, else committed state)."""
        return self.hms.read_uncommitted(self.pool_supplier(), committed=self.committed_amv())

    # -- RAAProviderProtocol -----------------------------------------------------------

    def provide(self, request: RAARequest) -> Optional[Sequence[object]]:
        """Fill each augmentable argument with the AMV words of the HMS view."""
        if request.contract_address != self.config.contract_address:
            return None
        self.requests_served += 1
        view = self.view()
        amv_words = view.amv.words()
        augmented = list(request.arguments)
        for index in request.augmentable_indices:
            if index < 0 or index >= len(augmented):
                continue
            augmented[index] = amv_words
        return augmented


class StaticRAAProvider:
    """A provider that always supplies a fixed argument payload.

    Useful for tests and as the minimal example of RAA's broader "lightweight
    oracle replacement" use case (e.g. injecting an exchange rate).
    """

    def __init__(self, payload: Sequence[object], contract_address: Optional[Address] = None) -> None:
        self.payload = list(payload)
        self.contract_address = contract_address
        self.requests_served = 0

    def provide(self, request: RAARequest) -> Optional[Sequence[object]]:
        if self.contract_address is not None and request.contract_address != self.contract_address:
            return None
        self.requests_served += 1
        augmented = list(request.arguments)
        for index in request.augmentable_indices:
            if index < len(augmented):
                augmented[index] = self.payload
        return augmented


class RAAProviderRegistry:
    """Routes RAA requests to per-contract providers.

    A peer can serve several RAA-equipped contracts at once (e.g. Sereth and
    the ticket sale); the registry dispatches on the contract address and
    declines anything unknown.
    """

    def __init__(self) -> None:
        self._providers: Dict[Address, object] = {}
        self._fallback: Optional[object] = None

    def register(self, contract_address: Address, provider: object) -> None:
        self._providers[contract_address] = provider

    def set_fallback(self, provider: Optional[object]) -> None:
        self._fallback = provider

    def provide(self, request: RAARequest) -> Optional[Sequence[object]]:
        provider = self._providers.get(request.contract_address, self._fallback)
        if provider is None:
            return None
        return provider.provide(request)
