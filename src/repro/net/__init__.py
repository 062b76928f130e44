"""Discrete-event network simulation: simulator, latency, topology, peers,
gossip, bandwidth, churn, and mining."""

from .latency import ConstantLatency, LatencyModel, UniformLatency
from .mining import BlockProductionProcess, MinerHandle
from .network import Network, NetworkStats
from .peer import (
    GETH_CLIENT,
    IMPORT_DUPLICATE,
    IMPORT_IMPORTED,
    IMPORT_ORPHANED,
    IMPORT_REJECTED,
    Peer,
    PeerStats,
    SERETH_CLIENT,
)
from .sim import Simulator
from .topology import (
    BandwidthModel,
    ChurnPlan,
    TOPOLOGY_REGISTRY,
    Topology,
    TopologyBuilder,
    register_topology,
    resolve_topology,
    topology_names,
)

__all__ = [
    "ConstantLatency",
    "LatencyModel",
    "UniformLatency",
    "BlockProductionProcess",
    "MinerHandle",
    "Network",
    "NetworkStats",
    "GETH_CLIENT",
    "SERETH_CLIENT",
    "IMPORT_DUPLICATE",
    "IMPORT_IMPORTED",
    "IMPORT_ORPHANED",
    "IMPORT_REJECTED",
    "Peer",
    "PeerStats",
    "Simulator",
    "BandwidthModel",
    "ChurnPlan",
    "TOPOLOGY_REGISTRY",
    "Topology",
    "TopologyBuilder",
    "register_topology",
    "resolve_topology",
    "topology_names",
]
