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

Five claim gates:

* post-heal convergence — every cell injected faults and still converged;
* ``harm == 0`` on the defended (``semantic_mining``) rows — the
  ``geth_unmodified`` rows are the vulnerable control the paper fixes — and
  zero overpayments across the whole grid;
* the faults-off golden sweep still produces the ``golden_sweep`` entry of
  the golden store (:mod:`repro.golden`) — injection is provably zero-cost
  when not configured;
* an installed but dormant fault costs at most :data:`MAX_DORMANT_RATIO`
  the CPU time of the same cell without it;
* tracing the ``figure2`` smoke grid costs at most :data:`MAX_TRACED_RATIO`
  its untraced wall time — the other optional seam on every hop.

The last two are the repo's timing gates.  Machine speed varies across
runners, the ratios must not; they run only where ``repro run chaos`` runs,
never in the unit tier.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter, process_time
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
    "MAX_DORMANT_RATIO",
    "MAX_TRACED_RATIO",
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

MAX_DORMANT_RATIO = 1.05
"""Ceiling on dormant-fault / faults-off CPU time, best matched pair."""
MAX_TRACED_RATIO = 1.25
"""Ceiling on traced / untraced wall time of the figure2 smoke grid."""
RATIO_SAMPLES = 5
TRACED_REPEATS = 2


def golden_sweep() -> Sweep:
    """The frozen faults-off smoke sweep whose export is the golden store's
    ``golden_sweep`` entry.

    Two scenarios x two buy ratios at seed 20260730, no faults configured.
    The determinism tests run it serially, in parallel and resumed; the
    chaos claim re-runs it to prove the fault subsystem is byte-invisible
    when off.
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


def _ratio_spec(dormant: bool) -> SimulationSpec:
    """The gossip-heavy cell the dormant-fault ratio is timed on: 400 buys
    across three clients under the defense, tens of thousands of hops.  The
    dormant twin differs only in a fault whose window never opens, so every
    hop crosses the injector's window gate and nothing else changes."""
    builder = (
        SimulationBuilder()
        .workload("market", num_buys=400)
        .scenario(HMS_DEFENSE)
        .miners(1)
        .clients(3)
        .seed(77)
    )
    if dormant:
        builder = builder.fault("drop", rate=0.5, target="both", start=1e9)
    return builder.build()


def dormant_fault_ratio() -> float:
    """Dormant-fault / faults-off process CPU time, the best of
    :data:`RATIO_SAMPLES` interleaved matched pairs, each run with the collector parked.

    Timing noise only inflates a leg, so the best pair is the closest
    estimate of the true ratio, and a real seam regression inflates every
    pair alike.
    """
    from ..api.engine import run_simulation

    run_simulation(_ratio_spec(False))  # untimed warm-up: imports, bytecode
    ratios = []
    for _ in range(RATIO_SAMPLES):
        pair = []
        for dormant in (False, True):
            spec = _ratio_spec(dormant)
            gc.collect()
            gc.disable()
            started = process_time()
            run_simulation(spec).summary()
            pair.append(process_time() - started)
            gc.enable()
        ratios.append(pair[1] / pair[0])
    return round(min(ratios), 3)


def traced_ratio() -> float:
    """Traced / untraced wall time of the figure2 smoke grid on one worker,
    each mode's fastest of :data:`TRACED_REPEATS` passes."""
    from ..api.experiment import plan_experiment

    def fastest(observe: bool) -> float:
        best = float("inf")
        for _ in range(TRACED_REPEATS):
            sweep = plan_experiment("figure2", ExperimentOptions(smoke=True))[2]
            sweep = sweep.observed() if observe else sweep
            started = perf_counter()
            sweep.run(workers=1)
            best = min(best, perf_counter() - started)
        return best

    untraced = fastest(False)
    return round(fastest(True) / untraced, 3)


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
        from .. import golden

        # A drift raises, and the claim's detail names the JSON paths that moved.
        export = json.loads(golden_sweep().run(workers=1).to_json())
        golden.assert_holds("golden_sweep", export)
        return (
            True,
            f"faults-off golden sweep sha256 {golden.digest(export, 'export')[:16]}...",
            "the fault subsystem must be byte-invisible when not configured",
        )

    def dormant_faults_nearly_free(frame: ResultFrame):
        ratio = dormant_fault_ratio()
        return (
            ratio <= MAX_DORMANT_RATIO,
            f"{ratio}x CPU (ceiling {MAX_DORMANT_RATIO}x)",
            "best matched pair of a 400-buy market cell with and without a never-open fault",
        )

    def tracing_affordable(frame: ResultFrame):
        ratio = traced_ratio()
        return (
            ratio <= MAX_TRACED_RATIO,
            f"{ratio}x wall (ceiling {MAX_TRACED_RATIO}x)",
            "fastest pass per mode of the figure2 smoke grid, traced and untraced",
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
        Claim(
            name="An installed but dormant fault costs at most "
            f"{MAX_DORMANT_RATIO}x CPU time",
            paper_value="fault injection is nearly free until a window opens",
            check=dormant_faults_nearly_free,
        ),
        Claim(
            name=f"Tracing costs at most {MAX_TRACED_RATIO}x wall time",
            paper_value="observation is affordable on every hop",
            check=tracing_affordable,
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
        "across both scenarios, with post-heal convergence, harm==0, a "
        "faults-off golden-checksum gate and the dormant-fault and tracing "
        "cost ceilings"
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
