"""The workloads: one module per registered plugin, on one declare-once base.

``market`` (the paper's Figure 2 dynamic-pricing exchange), ``ticket_sale``
(surge-priced fixed inventory), ``auction`` (an English auction with a
mark-chained bid history), ``oracle`` (RAA versus a request/response
oracle), ``sequential`` (the single-sender sanity run), ``victim_market``
and ``frontrunning`` (the attack surface) and ``steady_state`` (a constant
drip over a long horizon) — plus the arrival processes the load generator
draws submission times from.
"""

# The facade first: its engine imports this package's base, so loading it
# before the plugins keeps either import order (this package or repro.api
# first) free of a half-initialised module.
from .. import api as _api  # noqa: F401
from .arrivals import BurstyArrivals, PoissonArrivals, RegularArrivals
from .auction import AuctionWorkload
from .base import SimulationContext, Workload, sereth_exchange_address
from .market import BUY_LABEL, SET_LABEL, MarketSimWorkload, RandomWalkPrices
from .oracle import OracleLatencyWorkload
from .sequential import SequentialHistoryWorkload
from .steady_state import STEADY_LABEL, SteadyStateWorkload
from .ticket_sale import TicketSaleWorkload
from .victim_market import FrontrunningWorkload, VictimMarketWorkload, victim_columns

__all__ = [
    "BurstyArrivals",
    "PoissonArrivals",
    "RegularArrivals",
    "AuctionWorkload",
    "BUY_LABEL",
    "SET_LABEL",
    "MarketSimWorkload",
    "RandomWalkPrices",
    "OracleLatencyWorkload",
    "SequentialHistoryWorkload",
    "STEADY_LABEL",
    "SteadyStateWorkload",
    "TicketSaleWorkload",
    "FrontrunningWorkload",
    "VictimMarketWorkload",
    "victim_columns",
    "SimulationContext",
    "Workload",
    "sereth_exchange_address",
]
