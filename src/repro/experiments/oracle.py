"""RAA versus a conventional oracle: how long until intra-block data is usable.

The paper's argument for RAA (Section III-D) is that a request/response
oracle cannot deliver *intra-block* data: the requesting transaction must be
committed, then the operator's answering transaction must be committed,
before the consumer can read the value — at least one to two block intervals
of latency.  RAA answers a local view call immediately.

The consumer/operator wiring lives in :mod:`repro.workloads.oracle` as the
registered ``oracle`` workload (the operator itself is
:class:`repro.oracle.OracleOperator`); this module declares the experiment
that runs both data paths side by side (benchmark A5).
"""

from __future__ import annotations

from ..api.experiment import ExperimentOptions, GridExperiment, register_experiment
from ..api.frame import ResultFrame
from ..api.frame import mean as _frame_mean
from .claims import oracle_claims

__all__ = ["OracleComparisonExperiment"]


@register_experiment
class OracleComparisonExperiment(GridExperiment):
    """Both data paths run side by side on one network; the claim gate
    asserts RAA's local view call beats the oracle's committed round trip."""

    name = "oracle"
    description = (
        "RAA vs a conventional request/response oracle: latency until "
        "intra-block data is usable"
    )
    workload = "oracle"
    scenario = "sereth_client"
    base_params = {
        "num_queries": 10,
        "query_interval": 10.0,
        "price_change_interval": 5.0,
    }
    smoke_params = {"num_queries": 3}
    spec_fields = {
        "num_miners": 1,
        "num_client_peers": 1,
        "gossip_latency": 0.06,
        "gossip_jitter": 0.04,
    }
    default_seed = 0
    claims = oracle_claims()
    export_columns = (
        "trial",
        "seed",
        "mean_raa_latency",
        "mean_oracle_latency",
        "oracle_unanswered",
        "blocks_produced",
        "simulated_seconds",
    )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            mean_raa_latency=lambda row: _frame_mean(
                row["summary"]["extras"]["raa_latencies"]
            ),
            mean_oracle_latency=lambda row: _frame_mean(
                row["summary"]["extras"]["oracle_latencies"]
            ),
            oracle_unanswered=lambda row: row["summary"]["extras"]["oracle_unanswered"],
        )
