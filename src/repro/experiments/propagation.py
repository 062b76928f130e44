"""The propagation experiment: the paper's claims under realistic gossip.

Every other experiment in this repository runs on a small full mesh, where
block propagation is one sampled hop — the regime the paper's private
testbed sat in.  This experiment stresses the propagation-dependent claims
on structured topologies at scale: each registered gossip graph
(``full_mesh``, ``random_k``, ``region_hub``, ``kademlia``) is swept across
network sizes, with per-link FIFO bandwidth enabled so wire bytes cost
simulated time, and each cell runs the attack-matrix headline pair — an
adversary-free control plus the displacement frontrunner — under the full
HMS defense (semantic mining).

Per cell the analysis records the block-propagation p50/p95 and the orphan
rate from the network's propagation digest, alongside victim harm; the
claim gates re-check Section V-B's ``harm == 0`` on every displacement cell
— now across multi-hop floods instead of a single broadcast — and require
that propagation was actually measured everywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..api.builder import Simulation
from ..api.experiment import Claim, Experiment, ExperimentOptions, register_experiment
from ..api.frame import ResultFrame
from ..api.spec import SimulationSpec
from ..api.sweep import Sweep
from ..workloads.victim_market import victim_columns

__all__ = [
    "DEFAULT_TOPOLOGIES",
    "DEFAULT_PEERS",
    "CONTROL_ROW",
    "PropagationExperiment",
    "propagation_claims",
]

DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("full_mesh", "random_k", "region_hub", "kademlia")
DEFAULT_PEERS: Tuple[int, ...] = (10, 100, 1000)
SMOKE_PEERS: Tuple[int, ...] = (10, 100)
CONTROL_ROW = "(control)"
HMS_DEFENSE = "semantic_mining"
DEFAULT_BANDWIDTH = 1_250_000.0  # 10 Mbit/s per directed link


def _cell_spec(
    topology: str, peers: int, adversary: Optional[str], buys: int
) -> SimulationSpec:
    builder = (
        Simulation.builder()
        .scenario(HMS_DEFENSE)
        .workload("victim_market", num_victim_buys=buys, buy_interval=2.0)
        .miners(2)
        .clients(peers)
        .block_interval(13.0)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
        .topology(topology)
        .bandwidth(DEFAULT_BANDWIDTH)
    )
    if adversary is not None:
        builder = builder.adversary(adversary)
    return builder.build()


def propagation_claims() -> Tuple[Claim, ...]:
    def hms_protects_at_scale(frame: ResultFrame):
        cells = frame.filter(adversary="displacement")
        if len(cells) == 0:
            return True, "n/a", "no displacement cells in the grid"
        harm = sum(cells.column("victim_harm"))
        submitted = sum(cells.column("victim_submitted"))
        return harm == 0, f"{harm}/{submitted} victim buys harmed across topologies"

    def structurally_sound(frame: ResultFrame):
        overpaid = sum(frame.column("overpaid"))
        return overpaid == 0, f"{overpaid} overpaid fills across {len(frame)} cells"

    def propagation_measured(frame: ResultFrame):
        missing = [
            row
            for row in frame.rows()
            if not row["propagation_samples"]
            or row["block_p95"] is None
            or row["block_p50"] is None
            or row["block_p95"] < row["block_p50"]
        ]
        p95s = [row["block_p95"] for row in frame.rows() if row["block_p95"] is not None]
        worst = max(p95s) if p95s else float("nan")
        return not missing, f"worst-case p95 {worst:.3f}s over {len(frame)} cells"

    return (
        Claim(
            name="Displacement causes zero victim harm under full HMS at "
            "every topology and network size",
            paper_value="Section V-B: frontrunning prevented (harm == 0)",
            check=hms_protects_at_scale,
        ),
        Claim(
            name="No cell shows an overpayment at scale",
            paper_value="mark-bound offers hold everywhere",
            check=structurally_sound,
        ),
        Claim(
            name="Block propagation is measured (p50 <= p95) in every cell",
            paper_value="propagation fast relative to the block interval",
            check=propagation_measured,
        ),
    )


@register_experiment
class PropagationExperiment(Experiment):
    """Topology x network-size sweep re-checking harm==0 under realistic
    gossip, with per-cell block-propagation p50/p95 and orphan rate.

    Overrides: ``topologies`` (list of registered names), ``peers`` (list of
    client-peer counts), ``buys`` (victim buys per cell), ``control`` (set
    falsy to drop the adversary-free row).
    """

    name = "propagation"
    description = (
        "Gossip-topology sweep at 10/100/1000 peers: harm==0 re-check plus "
        "block-propagation p50/p95 and orphan rate per cell"
    )
    default_trials = 1
    default_seed = 17
    claims = propagation_claims()
    export_columns = (
        "topology",
        "peers",
        "adversary",
        "trial",
        "seed",
        "victim_submitted",
        "victim_filled",
        "victim_harm",
        "overpaid",
        "block_p50",
        "block_p95",
        "orphan_rate",
        "propagation_samples",
        "mean_degree",
        "blocks_produced",
    )

    @staticmethod
    def _int_list(value) -> Tuple[int, ...]:
        if isinstance(value, (int, float)):
            return (int(value),)
        return tuple(int(item) for item in value)

    def plan(self, options: ExperimentOptions) -> Sweep:
        smoke = options.smoke
        topologies = options.names("topologies", DEFAULT_TOPOLOGIES)
        peers = self._int_list(
            options.override("peers", SMOKE_PEERS if smoke else DEFAULT_PEERS)
        )
        buys = options.override("buys", 6 if smoke else 12)
        rows = [None] if options.override("control", True) else []
        rows.append("displacement")
        return Sweep.from_cells(
            "propagation",
            self.seed(options),
            self.trials(options),
            [
                (
                    {"topology": topology, "peers": count, "adversary": adversary or CONTROL_ROW},
                    _cell_spec(topology, count, adversary, buys),
                )
                for topology in topologies
                for count in peers
                for adversary in rows
            ],
        )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        def network(row, key):
            return row["summary"]["extras"].get("network", {}).get(key)

        return frame.derive(
            **victim_columns(),
            block_p50=lambda row: network(row, "block_propagation_p50"),
            block_p95=lambda row: network(row, "block_propagation_p95"),
            orphan_rate=lambda row: network(row, "orphan_rate"),
            propagation_samples=lambda row: network(row, "propagation_samples"),
            mean_degree=lambda row: network(row, "mean_degree"),
            blocks_produced=lambda row: row["summary"]["blocks_produced"],
        )
