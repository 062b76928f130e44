"""Frontrunning experiment: how often can an attacker exploit pending buys?

Section II-F notes that "the arbitrary transaction priority combined with
read latency also creates a vulnerability known as blockchain frontrunning";
Section V-B claims that "linking each buy transaction to a particular set
price prevents the frontrunning attack".  This experiment quantifies both
sides on the simulated network:

* an **attacker** watches the pending pool from its own peer; whenever it
  sees a victim buy, it immediately submits a price-raising ``set`` hoping
  the miner orders the rise ahead of the victim's buy;
* the victim either reads committed state (baseline) or the HMS view.

Measured outcomes per victim buy: ``filled_at_observed_terms`` (the buy
succeeded, necessarily at the terms the victim saw — the contract enforces
this), or ``rejected`` (the attack, or simple staleness, made it fail).
The frontrunning *harm* metric of interest is whether a victim ever pays a
price other than the one it observed — with mark-bound offers this is
structurally impossible, and the experiment's auditor double-checks it.

The attacker/victim wiring lives in :mod:`repro.workloads.victim_market` as the
registered ``frontrunning`` workload; this module declares the experiment
that sweeps it over both victim read modes.
"""

from __future__ import annotations

from ..api.experiment import ExperimentOptions, GridExperiment, register_experiment
from ..api.frame import ResultFrame
from ..adversary.strategies import VICTIM_BUY_LABEL
from .claims import frontrunning_claims

__all__ = ["FrontrunningExperiment"]


@register_experiment
class FrontrunningExperiment(GridExperiment):
    """The victim runs under *both* read modes as a sweep dimension, and the
    claim gates assert the structural no-overpayment invariant plus the
    HMS-view fill advantage."""

    name = "frontrunning"
    description = (
        "Frontrunning attacker vs victim under both read modes; mark-bound "
        "offers must never fill at unobserved terms"
    )
    workload = "frontrunning"
    scenario = "sereth_client"
    base_params = {"num_victim_buys": 40, "buy_interval": 2.0, "attack_markup": 25}
    smoke_params = {"num_victim_buys": 10}
    dimensions = {"victim_read_mode": ["read_committed", "read_uncommitted"]}
    spec_fields = {
        "num_miners": 1,
        "num_client_peers": 2,
        "gossip_latency": 0.07,
        "gossip_jitter": 0.05,
    }
    default_seed = 0
    claims = frontrunning_claims()
    export_columns = (
        "victim_read_mode",
        "trial",
        "seed",
        "eta",
        "attacks_launched",
        "overpaid",
        "audit_clean",
        "blocks_produced",
        "simulated_seconds",
    )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        return frame.derive(
            eta=lambda row: row["summary"]["reports"][VICTIM_BUY_LABEL]["success_rate"],
            attacks_launched=lambda row: row["summary"]["extras"]["attacks_launched"],
            overpaid=lambda row: row["summary"]["extras"]["overpaid"],
            audit_clean=lambda row: row["summary"]["extras"]["audit_clean"],
        )

