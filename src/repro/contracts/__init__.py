"""Contracts shipped with the reproduction.

Importing this package registers every contract class with the default
registry, so blocks replay identically on every peer of an experiment.
"""

from ..evm.registry import default_registry
from .auction import AuctionContract
from .oracle import OracleContract
from .sereth import (
    BUY_SELECTOR,
    SET_SELECTOR,
    SerethContract,
    genesis_storage,
    initial_mark,
)
from .simple_storage import SimpleStorageContract
from .ticket_sale import TicketSaleContract

for _contract_class in (
    SerethContract,
    SimpleStorageContract,
    TicketSaleContract,
    OracleContract,
    AuctionContract,
):
    default_registry().register(_contract_class)

__all__ = [
    "AuctionContract",
    "SerethContract",
    "SET_SELECTOR",
    "BUY_SELECTOR",
    "initial_mark",
    "genesis_storage",
    "SimpleStorageContract",
    "TicketSaleContract",
    "OracleContract",
]
