"""The chaos experiment: the paper's claims under deterministic fault injection.

Every other experiment runs on a clean network; this one re-checks the
READ-UNCOMMITTED market under the ``repro.faults`` fault model — message
drops, duplicates, extra delays, and corrupt-then-reject on the gossip
seams, plus a full crash/restart (total state loss, rejoin from genesis,
reconvergence via range sync) of a non-victim client peer.  The grid sweeps
fault mix x intensity x scenario (``geth_unmodified`` control and the
``semantic_mining`` defense, the latter with the displacement frontrunner
stacked on top of the faults).

Fault windows deliberately close several block intervals before each cell
ends: the experiment asserts the network *healed*, not that it limped —
every cell must reconverge to a single head.  Transaction-level faults are
restricted to duplication, the one kind that neither loses nor reorders the
victim's submissions: a dropped buy would be victim harm caused by the
harness rather than an adversary, and a *delayed* buy can slip past the
displacement commit — the defense's guarantee is scoped to transactions the
miner has seen, so manufacturing late arrivals tests a claim the paper never
makes.  Dropped, corrupted, and delayed *blocks* are fair game — range sync
must heal them (miner-bound block deliveries excepted: the append-only chain
model cannot reorg, so a miner that misses a block would fork forever; see
:meth:`repro.faults.FaultInjector.protect_block_peers`).

Three claim gates:

* post-heal convergence — every cell injected faults and still converged;
* ``harm == 0`` on the defended (``semantic_mining``) rows — the
  ``geth_unmodified`` rows are the vulnerable control the paper fixes — and
  zero overpayments across the whole grid;
* the faults-off golden sweep still produces its committed checksum —
  injection is provably zero-cost when not configured.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from ..api.builder import Simulation, SimulationBuilder
from ..api.experiment import Claim, Experiment, ExperimentOptions, register_experiment
from ..api.frame import ResultFrame
from ..api.spec import SimulationSpec
from ..api.sweep import Sweep
from ..workloads.victim_market import victim_columns

__all__ = [
    "DEFAULT_MIXES",
    "DEFAULT_INTENSITIES",
    "GOLDEN_SWEEP_SHA256",
    "ChaosExperiment",
    "chaos_claims",
    "golden_sweep",
]

DEFAULT_MIXES: Tuple[str, ...] = ("messages", "crash", "combined")
SMOKE_MIXES: Tuple[str, ...] = ("messages", "crash")
DEFAULT_INTENSITIES: Tuple[str, ...] = ("light", "heavy")
SMOKE_INTENSITIES: Tuple[str, ...] = ("light",)
SCENARIOS: Tuple[str, ...] = ("geth_unmodified", "semantic_mining")
HMS_DEFENSE = "semantic_mining"
CRASH_TARGET = "client-1"
"""The crash victim: a client peer that is *not* the market victim's home
peer (``client-0``), so state loss never swallows a watched buy."""

BLOCK_INTERVAL = 6.0
BUY_INTERVAL = 2.0

_RATES = {"light": 0.08, "heavy": 0.2}

# The committed golden checksum (tests/api/test_golden_determinism.py pins the
# same value; tests/experiments/test_chaos.py asserts the two stay equal).
GOLDEN_SWEEP_SHA256 = "803d61eec09f5cc5835b9b739f30a917c8c2a8720ffe0cac5c9b4f0fb6feab0b"


def golden_sweep() -> Sweep:
    """The frozen faults-off smoke sweep whose export checksum is committed.

    This mirrors the golden grid the determinism tests pin: two scenarios x
    two buy ratios at seed 20260730, no faults configured.  The chaos claim
    re-runs it to prove the fault subsystem is byte-invisible when off.
    """
    base = (
        SimulationBuilder()
        .workload("market", num_buys=12)
        .scenario("geth_unmodified")
        .miners(1)
        .clients(1)
        .seed(20260730)
        .build()
    )
    return (
        Sweep(base)
        .over(scenario=["geth_unmodified", "semantic_mining"], buys_per_set=[2.0, 10.0])
        .trials(1)
    )


def _fault_calls(
    mix: str, intensity: str, fault_until: float
) -> List[Tuple[str, Dict[str, Any]]]:
    """The builder ``.fault(...)`` calls for one grid cell.

    Message faults live in ``[0, fault_until)``; the crash is timed so the
    restarted peer has several fault-free block intervals to resync in.
    """
    rate = _RATES[intensity]
    messages: List[Tuple[str, Dict[str, Any]]] = [
        ("drop", {"rate": rate, "target": "block", "until": fault_until}),
        ("corrupt", {"rate": rate, "target": "block", "until": fault_until}),
        ("duplicate", {"rate": rate, "target": "tx", "spread": 0.5, "until": fault_until}),
        ("delay", {"rate": min(2 * rate, 1.0), "target": "block", "extra": 0.3, "jitter": 0.4, "until": fault_until}),
    ]
    crash: List[Tuple[str, Dict[str, Any]]] = [
        ("crash", {"peer": CRASH_TARGET, "at": 8.0, "downtime": 8.0}),
    ]
    if mix == "messages":
        return messages
    if mix == "crash":
        return crash
    if mix == "combined":
        return messages + crash
    raise ValueError(f"unknown fault mix {mix!r}; expected one of {DEFAULT_MIXES}")


def _cell_spec(scenario: str, mix: str, intensity: str, buys: int) -> SimulationSpec:
    # The fault window closes one block interval after the last victim buy;
    # the workload's own duration cap leaves six more intervals after that,
    # so post-window blocks flow cleanly and drive every peer's range sync.
    end_of_submissions = 5.0 + buys * BUY_INTERVAL
    fault_until = end_of_submissions + BLOCK_INTERVAL
    builder = (
        Simulation.builder()
        .scenario(scenario)
        .workload("victim_market", num_victim_buys=buys, buy_interval=BUY_INTERVAL)
        .miners(2)
        .clients(3)
        .block_interval(BLOCK_INTERVAL)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
    )
    if scenario == HMS_DEFENSE:
        # The frontrunner attacks *through* the degraded network; the
        # geth_unmodified rows stay adversary-free controls.
        builder = builder.adversary("displacement")
    for name, params in _fault_calls(mix, intensity, fault_until):
        builder = builder.fault(name, **params)
    return builder.build()


def chaos_claims() -> Tuple[Claim, ...]:
    def heals_everywhere(frame: ResultFrame):
        quiet = [row for row in frame.rows() if not row["fault_injections"]]
        diverged = [row for row in frame.rows() if not row["converged"]]
        if quiet:
            return (
                False,
                f"{len(quiet)}/{len(frame)} cells injected no faults",
                "a chaos cell that injected nothing gates vacuously",
            )
        total = sum(frame.column("fault_injections"))
        return (
            not diverged,
            f"{len(frame) - len(diverged)}/{len(frame)} cells reconverged "
            f"after {total} injected faults",
        )

    def harmless_under_faults(frame: ResultFrame):
        # harm == 0 is the *defense* claim: the geth_unmodified rows are the
        # vulnerable control, where victim buys racing the market setup can
        # commit-and-fail — that is the baseline the paper fixes, so only the
        # semantic_mining rows gate.  Overpayment protection is structural
        # (mark-bound offers), so it must hold on every row, faults or not.
        defended = frame.filter(scenario=HMS_DEFENSE)
        harm = sum(defended.column("victim_harm"))
        submitted = sum(defended.column("victim_submitted"))
        overpaid = sum(frame.column("overpaid"))
        return (
            harm == 0 and overpaid == 0,
            f"{harm}/{submitted} defended victim buys harmed, {overpaid} "
            f"overpaid fills across all {len(frame)} fault cells",
        )

    def golden_unchanged(frame: ResultFrame):
        export = golden_sweep().run(workers=1).to_json()
        digest = hashlib.sha256(export.encode("utf-8")).hexdigest()
        return (
            digest == GOLDEN_SWEEP_SHA256,
            f"faults-off golden sweep sha256 {digest[:16]}...",
            "the fault subsystem must be byte-invisible when not configured",
        )

    return (
        Claim(
            name="Every fault cell reconverges to a single head after the "
            "fault window closes",
            paper_value="gossip + range sync heal drops, corruption, and "
            "crash/restart with total state loss",
            check=heals_everywhere,
        ),
        Claim(
            name="Zero victim harm on defended rows and zero overpayments "
            "across the fault grid",
            paper_value="Section V-B: frontrunning prevented (harm == 0), "
            "mark-bound offers hold",
            check=harmless_under_faults,
        ),
        Claim(
            name="The no-faults golden sweep checksum is unchanged",
            paper_value="fault injection is a strict no-op when unconfigured",
            check=golden_unchanged,
        ),
    )


@register_experiment
class ChaosExperiment(Experiment):
    """Fault mix x intensity x scenario sweep under deterministic injection.

    Overrides: ``mixes`` (subset of ``messages``/``crash``/``combined``),
    ``intensities`` (``light``/``heavy``), ``scenarios``, ``buys`` (victim
    buys per cell).
    """

    name = "chaos"
    description = (
        "Claim-gated chaos sweep: message faults and peer crash/restart "
        "across both scenarios, with post-heal convergence, harm==0, and a "
        "faults-off golden-checksum gate"
    )
    default_trials = 1
    default_seed = 23
    claims = chaos_claims()
    export_columns = (
        "mix",
        "intensity",
        "scenario",
        "trial",
        "seed",
        "fault_injections",
        "injected_drop",
        "injected_corrupt",
        "injected_duplicate",
        "injected_delay",
        "injected_crash",
        "peer_restarts",
        "converged",
        "unique_heads",
        "min_height",
        "max_height",
        "victim_submitted",
        "victim_filled",
        "victim_harm",
        "overpaid",
        "blocks_produced",
    )

    def plan(self, options: ExperimentOptions) -> Sweep:
        smoke = options.smoke
        mixes = options.names("mixes", SMOKE_MIXES if smoke else DEFAULT_MIXES)
        intensities = options.names(
            "intensities", SMOKE_INTENSITIES if smoke else DEFAULT_INTENSITIES
        )
        scenarios = options.names("scenarios", SCENARIOS)
        buys = int(options.override("buys", 4 if smoke else 8))
        return Sweep.from_cells(
            "chaos",
            self.seed(options),
            self.trials(options),
            [
                (
                    {"mix": mix, "intensity": intensity, "scenario": scenario},
                    _cell_spec(scenario, mix, intensity, buys),
                )
                for mix in mixes
                for intensity in intensities
                for scenario in scenarios
            ],
        )

    def analyze(self, frame: ResultFrame, options: ExperimentOptions) -> ResultFrame:
        def faults(row, key, default=None):
            return row["summary"]["extras"].get("faults", {}).get(key, default)

        return frame.derive(
            fault_injections=lambda row: faults(row, "injections", 0),
            injected_drop=lambda row: faults(row, "injected_drop", 0),
            injected_corrupt=lambda row: faults(row, "injected_corrupt", 0),
            injected_duplicate=lambda row: faults(row, "injected_duplicate", 0),
            injected_delay=lambda row: faults(row, "injected_delay", 0),
            injected_crash=lambda row: faults(row, "injected_crash", 0),
            peer_restarts=lambda row: faults(row, "peer_restarts", 0),
            converged=lambda row: bool(faults(row, "converged", False)),
            unique_heads=lambda row: faults(row, "unique_heads"),
            min_height=lambda row: faults(row, "min_height"),
            max_height=lambda row: faults(row, "max_height"),
            **victim_columns(),
            blocks_produced=lambda row: row["summary"]["blocks_produced"],
        )
