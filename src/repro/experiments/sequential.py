"""The sequential-history sanity experiment (Section V, first quantitative test).

"a sequential history was properly handled by sending a series of test
transactions from the address of a single peer so that there is only one
possible history, where real time order equals nonce order equals block
order.  As expected, the transaction failure rate was zero and the
transaction efficiency η was 1.0."

The workload itself (one account alternating set/buy) lives in
:mod:`repro.workloads.sequential` as the registered ``sequential`` workload; this
module declares the experiment that runs it under the fully arbitrary miner
ordering.
"""

from __future__ import annotations

from ..api.experiment import ExperimentOptions, GridExperiment, register_experiment
from ..api.frame import ResultFrame
from .claims import sequential_claims

__all__ = ["SequentialHistoryExperiment"]


@register_experiment
class SequentialHistoryExperiment(GridExperiment):
    """A single sender under the fully arbitrary miner ordering must still
    commit a perfect history (claim gate: η = 1.0 for both transaction
    labels)."""

    name = "sequential"
    description = (
        "Sequential-history sanity test: one sender, nonce order pins the "
        "history, eta must be 1.0"
    )
    workload = "sequential"
    scenario = "geth_unmodified"
    base_params = {"num_pairs": 25, "submission_interval": 1.0}
    smoke_params = {"num_pairs": 8}
    spec_fields = {
        "num_miners": 1,
        "num_client_peers": 1,
        "gossip_latency": 0.06,
        "gossip_jitter": 0.04,
        "miner_policy": "random",
    }
    default_seed = 0
    claims = sequential_claims()
    export_columns = (
        "trial",
        "seed",
        "buy_eta",
        "set_eta",
        "blocks_produced",
        "simulated_seconds",
    )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            buy_eta=lambda row: row["summary"]["reports"]["buy"]["efficiency"],
            set_eta=lambda row: row["summary"]["reports"]["set"]["efficiency"],
        )

