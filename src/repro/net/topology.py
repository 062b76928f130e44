"""Structured gossip topologies, per-link bandwidth, and scheduled churn.

Every simulation before this module was a full mesh with sampled one-way
latency: propagation was one hop, so the paper's propagation-dependent
claims had only been tested in a regime where gossip is trivially instant.
This module supplies the missing structure:

* :data:`TOPOLOGY_REGISTRY` — pluggable graph builders (``full_mesh``,
  ``random_k``, ``region_hub``, ``kademlia``) producing a deterministic
  :class:`Topology` (symmetric adjacency + per-edge latency scales) from an
  explicit ``random.Random`` stream, so the same seed always yields the
  same graph regardless of worker or process.
* :class:`BandwidthModel` — per-link serialisation delay with FIFO queuing
  (the queue state itself lives in :class:`repro.net.network.Network`),
  fed by the memoised ``wire_encoding()`` byte counts.
* :class:`ChurnPlan` — a frozen schedule of ``leave``/``join`` and
  ``partition``/``heal`` events the network applies from the event loop.

``full_mesh`` remains the default behaviour: the engine keeps the legacy
direct-broadcast path for it (every peer is one hop from the origin, so
flooding a complete graph only adds duplicate deliveries), which is also
what keeps the committed golden checksums byte-identical.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..registry import Registry, RegistryError

__all__ = [
    "Topology",
    "TopologyBuilder",
    "TOPOLOGY_REGISTRY",
    "register_topology",
    "topology_names",
    "resolve_topology",
    "FullMeshTopology",
    "RandomKTopology",
    "RegionHubTopology",
    "KademliaTopology",
    "BandwidthModel",
    "ChurnPlan",
    "freeze_topology",
    "freeze_bandwidth",
    "freeze_churn",
]


def edge_key(a: str, b: str) -> Tuple[str, str]:
    """The canonical (sorted) key of an undirected edge."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Topology:
    """A built gossip graph: symmetric adjacency plus per-edge latency scales.

    ``adjacency`` maps every peer id to its sorted neighbour tuple;
    ``latency_scale`` multiplies the sampled latency on specific edges
    (canonical sorted-pair keys; absent edges scale by 1.0).
    """

    name: str
    adjacency: Mapping[str, Tuple[str, ...]]
    latency_scale: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    def scale_for(self, a: str, b: str) -> float:
        return self.latency_scale.get(edge_key(a, b), 1.0)

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    @property
    def mean_degree(self) -> float:
        if not self.adjacency:
            return 0.0
        return 2.0 * self.edge_count / len(self.adjacency)

    def is_connected(self) -> bool:
        if not self.adjacency:
            return True
        start = next(iter(self.adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self.adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.adjacency)

    def checksum(self) -> str:
        """sha256 of the canonical JSON rendering — the determinism witness."""
        payload = {
            "name": self.name,
            "adjacency": {peer: list(nbrs) for peer, nbrs in sorted(self.adjacency.items())},
            "latency_scale": {
                f"{a}|{b}": scale for (a, b), scale in sorted(self.latency_scale.items())
            },
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _finalize(
    name: str,
    peer_ids: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    latency_scale: Optional[Dict[Tuple[str, str], float]] = None,
) -> Topology:
    """Build a Topology from an edge set: symmetrize, sort, connect components.

    Connectivity repair is deterministic: components are ordered by their
    lexicographically smallest member and chained through those members, so
    a sparse draw can never silently strand a peer.
    """
    neighbors: Dict[str, set] = {peer_id: set() for peer_id in peer_ids}
    for a, b in edges:
        if a == b:
            continue
        neighbors[a].add(b)
        neighbors[b].add(a)

    # Union-find-free component walk (graphs here are small enough for BFS).
    unvisited = set(peer_ids)
    components: List[List[str]] = []
    for peer_id in peer_ids:
        if peer_id not in unvisited:
            continue
        component = []
        frontier = [peer_id]
        unvisited.discard(peer_id)
        while frontier:
            node = frontier.pop()
            component.append(node)
            for neighbor in neighbors[node]:
                if neighbor in unvisited:
                    unvisited.discard(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    if len(components) > 1:
        anchors = sorted(min(component) for component in components)
        for first, second in zip(anchors, anchors[1:]):
            neighbors[first].add(second)
            neighbors[second].add(first)

    adjacency = {peer_id: tuple(sorted(neighbors[peer_id])) for peer_id in sorted(peer_ids)}
    return Topology(name=name, adjacency=adjacency, latency_scale=dict(latency_scale or {}))


class TopologyBuilder:
    """Base class: parameterised at construction, built per peer list."""

    name: str = ""

    def build(self, peer_ids: Sequence[str], rng: random.Random) -> Topology:
        raise NotImplementedError

    @classmethod
    def param_defaults(cls) -> Dict[str, Any]:
        """The builder's constructor parameters and defaults (for listings)."""
        signature = inspect.signature(cls.__init__)
        return {
            parameter.name: parameter.default
            for parameter in signature.parameters.values()
            if parameter.name != "self" and parameter.default is not inspect.Parameter.empty
        }

    @classmethod
    def summary(cls) -> str:
        doc = (cls.__doc__ or cls.name).strip().splitlines()[0]
        defaults = cls.param_defaults()
        if defaults:
            rendered = ", ".join(f"{key}={value!r}" for key, value in sorted(defaults.items()))
            return f"{doc} (params: {rendered})"
        return doc


TOPOLOGY_REGISTRY: Registry[type] = Registry("topology")
"""Registered :class:`TopologyBuilder` subclasses, keyed by ``name``."""


def register_topology(cls: type) -> type:
    """Class decorator: register a TopologyBuilder under its ``name``."""
    return TOPOLOGY_REGISTRY.register()(cls)


def topology_names() -> List[str]:
    return TOPOLOGY_REGISTRY.names()


def resolve_topology(name: str) -> type:
    """Look up a builder class; unknown names raise ``ValueError`` with the
    known-names list (the CLI- and spec-facing error contract)."""
    try:
        return TOPOLOGY_REGISTRY.get(name)
    except RegistryError:
        raise ValueError(
            f"unknown topology {name!r}; known topologies: {topology_names()}"
        ) from None


@register_topology
class FullMeshTopology(TopologyBuilder):
    """Every peer adjacent to every other — the legacy (and default) shape."""

    name = "full_mesh"

    def build(self, peer_ids: Sequence[str], rng: random.Random) -> Topology:
        edges = [
            (peer_ids[i], peer_ids[j])
            for i in range(len(peer_ids))
            for j in range(i + 1, len(peer_ids))
        ]
        return _finalize(self.name, peer_ids, edges)


@register_topology
class RandomKTopology(TopologyBuilder):
    """Approximately k-regular random graph on a connectivity ring."""

    name = "random_k"

    def __init__(self, k: int = 8) -> None:
        if k < 2:
            raise ValueError("random_k requires k >= 2 (the ring alone uses degree 2)")
        self.k = k

    def build(self, peer_ids: Sequence[str], rng: random.Random) -> Topology:
        n = len(peer_ids)
        k = min(self.k, max(n - 1, 0))
        edges = set()
        degree = {peer_id: 0 for peer_id in peer_ids}

        def add_edge(a: str, b: str) -> None:
            key = edge_key(a, b)
            if key in edges:
                return
            edges.add(key)
            degree[a] += 1
            degree[b] += 1

        # A ring guarantees connectivity before any random draw lands.
        if n > 1:
            for i in range(n):
                add_edge(peer_ids[i], peer_ids[(i + 1) % n])
        # Random fill toward degree k.  The graph is degree-capped, so the
        # last edge or two almost never land (4,006 of 4,008 at n=1002) and
        # the loop normally ends at the attempt cap, not the edge target: the
        # cap is part of the builder's pinned output.  Indices are drawn the
        # way ``rng.randrange(n)`` draws them (rejection-sampled
        # ``getrandbits``), minus the per-call argument checking.
        target_edges = (n * k) // 2
        getrandbits, bits = rng.getrandbits, n.bit_length()
        for _attempt in range(50 * max(target_edges, 1)):
            if len(edges) >= target_edges:
                break
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            a, b = peer_ids[i], peer_ids[j]
            if a == b or degree[a] >= k or degree[b] >= k:
                continue
            add_edge(a, b)
        return _finalize(self.name, peer_ids, edges)


@register_topology
class RegionHubTopology(TopologyBuilder):
    """Fast intra-region meshes joined by slow inter-region hub links."""

    name = "region_hub"

    def __init__(self, regions: int = 4, slow_factor: float = 4.0) -> None:
        if regions < 1:
            raise ValueError("region_hub requires at least one region")
        if slow_factor < 1.0:
            raise ValueError("slow_factor scales hub latency up; must be >= 1.0")
        self.regions = regions
        self.slow_factor = slow_factor

    def assign_regions(self, peer_ids: Sequence[str]) -> List[List[str]]:
        """Round-robin assignment, which spreads miners across regions."""
        regions: List[List[str]] = [[] for _ in range(self.regions)]
        for index, peer_id in enumerate(peer_ids):
            regions[index % self.regions].append(peer_id)
        return [region for region in regions if region]

    def build(self, peer_ids: Sequence[str], rng: random.Random) -> Topology:
        regions = self.assign_regions(peer_ids)
        edges = []
        latency_scale: Dict[Tuple[str, str], float] = {}
        hubs = [region[0] for region in regions]
        for region in regions:
            for i in range(len(region)):
                for j in range(i + 1, len(region)):
                    edges.append((region[i], region[j]))
        for i in range(len(hubs)):
            for j in range(i + 1, len(hubs)):
                edges.append((hubs[i], hubs[j]))
                latency_scale[edge_key(hubs[i], hubs[j])] = self.slow_factor
        return _finalize(self.name, peer_ids, edges, latency_scale)


@register_topology
class KademliaTopology(TopologyBuilder):
    """XOR-metric bucket neighbours over hashed 64-bit node ids."""

    name = "kademlia"

    ID_BITS = 64

    def __init__(self, bucket_size: int = 3) -> None:
        if bucket_size < 1:
            raise ValueError("kademlia bucket_size must be >= 1")
        self.bucket_size = bucket_size

    @classmethod
    def node_id(cls, peer_id: str) -> int:
        digest = hashlib.sha256(peer_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def build(self, peer_ids: Sequence[str], rng: random.Random) -> Topology:
        node_ids = {peer_id: self.node_id(peer_id) for peer_id in peer_ids}
        edges = set()
        for peer_id in peer_ids:
            own = node_ids[peer_id]
            buckets: Dict[int, List[Tuple[int, str]]] = {}
            for other in peer_ids:
                if other == peer_id:
                    continue
                distance = own ^ node_ids[other]
                bucket = distance.bit_length() - 1
                buckets.setdefault(bucket, []).append((distance, other))
            for bucket_members in buckets.values():
                bucket_members.sort()
                for _distance, other in bucket_members[: self.bucket_size]:
                    edges.add(edge_key(peer_id, other))
        return _finalize(self.name, peer_ids, edges)


# -- bandwidth ---------------------------------------------------------------------


class BandwidthModel:
    """Per-link serialisation delay; FIFO queue state lives in the Network.

    A message of ``size`` bytes occupies its directed link for
    ``size / bytes_per_second`` seconds; the network serialises messages on
    the same link (departure = max(now, link_free_at)), so a burst of blocks
    down one pipe queues rather than teleports.  ``per_link`` overrides the
    rate on specific directed links.
    """

    DEFAULT_BYTES_PER_SECOND = 1_250_000.0  # 10 Mbit/s

    def __init__(
        self,
        bytes_per_second: float = DEFAULT_BYTES_PER_SECOND,
        per_link: Sequence[Tuple[str, str, float]] = (),
    ) -> None:
        if bytes_per_second <= 0:
            raise ValueError("bytes_per_second must be positive")
        self.bytes_per_second = float(bytes_per_second)
        self.per_link: Dict[Tuple[str, str], float] = {}
        for source, destination, rate in per_link:
            if rate <= 0:
                raise ValueError("per-link rates must be positive")
            self.per_link[(source, destination)] = float(rate)

    def rate(self, source: str, destination: str) -> float:
        return self.per_link.get((source, destination), self.bytes_per_second)

    def serialisation_delay(self, source: str, destination: str, size: int) -> float:
        return size / self.rate(source, destination)


# -- churn -------------------------------------------------------------------------


CHURN_KINDS = ("leave", "join", "partition", "heal")


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership/partition change."""

    kind: str
    time: float
    peer_id: Optional[str] = None
    groups: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}; expected one of {CHURN_KINDS}")
        if self.time < 0:
            raise ValueError("churn events cannot be scheduled before t=0")
        if self.kind in ("leave", "join") and not self.peer_id:
            raise ValueError(f"{self.kind!r} churn events need a peer_id")
        if self.kind == "partition" and not self.groups:
            raise ValueError("partition events need at least one peer group")


class ChurnPlan:
    """A frozen, time-sorted schedule of churn events."""

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self.events: Tuple[ChurnEvent, ...] = tuple(
            sorted(events, key=lambda event: (event.time, CHURN_KINDS.index(event.kind)))
        )

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_events(cls, events: Sequence[Tuple[Any, ...]]) -> "ChurnPlan":
        """Build from frozen spec tuples: ``("leave", t, peer)``,
        ``("join", t, peer)``, ``("partition", t, (group, ...))``, ``("heal", t)``."""
        parsed = []
        for entry in events:
            if not entry:
                raise ValueError("empty churn event")
            kind = entry[0]
            if kind in ("leave", "join"):
                _, time, peer_id = entry
                parsed.append(ChurnEvent(kind=kind, time=float(time), peer_id=peer_id))
            elif kind == "partition":
                _, time, groups = entry
                parsed.append(
                    ChurnEvent(
                        kind=kind,
                        time=float(time),
                        groups=tuple(tuple(group) for group in groups),
                    )
                )
            elif kind == "heal":
                _, time = entry
                parsed.append(ChurnEvent(kind=kind, time=float(time)))
            else:
                raise ValueError(
                    f"unknown churn event kind {kind!r}; expected one of {CHURN_KINDS}"
                )
        return cls(parsed)


# -- spec canonicalizers -----------------------------------------------------------


def freeze_topology(topology: Any) -> Optional[Tuple[str, Tuple[Tuple[str, Any], ...]]]:
    """Canonicalize a topology request into ``(name, frozen-params)``.

    Accepts ``None``, a bare name string, ``(name, params)``, or a
    ``{"name", "params"}`` object; the builder is constructed once, so an
    unknown name (with the known-names list) or a bad parameter fails at
    spec-construction time.
    """
    if topology is None:
        return None
    if isinstance(topology, str):
        name, params = topology, ()
    elif isinstance(topology, Mapping):
        name, params = topology["name"], topology.get("params") or ()
    else:
        name, params = topology
    params = tuple(sorted(dict(params).items()))
    try:
        resolve_topology(name)(**dict(params))
    except TypeError as error:
        raise ValueError(f"invalid parameters for topology {name!r}: {error}") from error
    return (name, params)


def freeze_bandwidth(bandwidth: Any) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Canonicalize a bandwidth request into a frozen params tuple, validated
    by constructing the ``BandwidthModel`` once."""
    if bandwidth is None:
        return None
    if isinstance(bandwidth, (int, float)):
        bandwidth = {"bytes_per_second": float(bandwidth)}
    frozen = []
    for key, value in sorted(dict(bandwidth).items()):
        if key == "per_link":
            value = tuple(tuple(link) for link in value)
        frozen.append((key, value))
    try:
        BandwidthModel(**dict(frozen))
    except TypeError as error:
        raise ValueError(f"invalid bandwidth parameters: {error}") from error
    return tuple(frozen)


def freeze_churn(churn: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Canonicalize churn events into nested frozen tuples (and validate)."""
    if not churn:
        return ()
    frozen = []
    for entry in churn:
        entry = tuple(entry)
        if entry and entry[0] == "partition":
            kind, time, groups = entry
            entry = (kind, time, tuple(tuple(group) for group in groups))
        frozen.append(entry)
    ChurnPlan.from_events(frozen)  # ValueError on malformed events
    return tuple(frozen)
