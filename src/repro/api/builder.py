"""The fluent builder: the front door of the facade.

    from repro.api import Simulation

    spec = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("market", buys_per_set=4.0)
        .miners(3)
        .clients(8)
        .block_interval(13.0)
        .seed(42)
        .build()
    )
    result = Simulation(spec).run()

``build()`` validates everything eagerly — scenario and workload names are
resolved against the registries and the workload's parameters are checked by
constructing the plugin once — so a bad configuration fails at build time
with a precise error, not minutes into a sweep.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..adversary import ADVERSARY_REGISTRY
from ..experiments.scenario import Scenario
from .registry import SCENARIO_REGISTRY, WORKLOAD_REGISTRY
from .spec import SimulationSpec, canonical

__all__ = ["Simulation", "SimulationBuilder", "BuildError", "check_plugins"]


class BuildError(ValueError):
    """A builder configuration that cannot produce a valid spec."""


def check_plugins(spec: SimulationSpec) -> SimulationSpec:
    """Validate the spec's workload and adversaries by constructing each
    plugin once — their parameter checks need the whole spec, so they run
    here rather than in a field canonicaliser."""
    if spec.workload not in WORKLOAD_REGISTRY:
        raise BuildError(
            f"unknown workload {spec.workload!r}; registered: {WORKLOAD_REGISTRY.names()}"
        )
    try:
        WORKLOAD_REGISTRY.get(spec.workload)(spec, **spec.params)
    except (TypeError, ValueError) as error:
        raise BuildError(
            f"invalid parameters for workload {spec.workload!r}: {error}"
        ) from error
    for name, params in spec.adversaries:
        if name not in ADVERSARY_REGISTRY:
            raise BuildError(
                f"unknown adversary {name!r}; registered: {ADVERSARY_REGISTRY.names()}"
            )
        try:
            ADVERSARY_REGISTRY.get(name)(spec, **dict(params))
        except (TypeError, ValueError) as error:
            raise BuildError(
                f"invalid parameters for adversary {name!r}: {error}"
            ) from error
    return spec


class SimulationBuilder:
    """Accumulates configuration and produces an immutable SimulationSpec.

    Every setter stores its value through the spec field's own canonicaliser
    (:func:`repro.api.spec.canonical`), so a bad value fails at the call
    that set it, with the message the spec itself would give.
    """

    def __init__(self) -> None:
        self._scenario: Optional[Scenario] = None
        self._workload: str = "market"
        self._params: Dict[str, Any] = {}
        self._fields: Dict[str, Any] = {}

    def _set(self, name: str, value: Any) -> "SimulationBuilder":
        try:
            self._fields[name] = canonical(name, value)
        except ValueError as error:
            raise BuildError(str(error)) from error
        return self

    # -- what runs -----------------------------------------------------------------

    def scenario(self, scenario: Union[str, Scenario]) -> "SimulationBuilder":
        """Select the scenario by registry name or pass a Scenario instance."""
        if isinstance(scenario, Scenario):
            self._scenario = scenario
        else:
            self._scenario = SCENARIO_REGISTRY.get(scenario)
        return self

    def workload(self, name: str, **params: Any) -> "SimulationBuilder":
        """Select the workload by registry name, with its parameters."""
        if name not in WORKLOAD_REGISTRY:
            raise BuildError(
                f"unknown workload {name!r}; registered: {WORKLOAD_REGISTRY.names()}"
            )
        self._workload = name
        self._params = dict(params)
        return self

    def adversary(self, name: str, **params: Any) -> "SimulationBuilder":
        """Add an attack strategy by registry name; call repeatedly to stack."""
        if name not in ADVERSARY_REGISTRY:
            raise BuildError(
                f"unknown adversary {name!r}; registered: {ADVERSARY_REGISTRY.names()}"
            )
        return self._set("adversaries", self._fields.get("adversaries", ()) + ((name, params),))

    # -- network shape -------------------------------------------------------------

    def miners(self, count: int) -> "SimulationBuilder":
        return self._set("num_miners", count)

    def clients(self, count: int) -> "SimulationBuilder":
        return self._set("num_client_peers", count)

    def block_interval(self, seconds: float, fixed: bool = False) -> "SimulationBuilder":
        self._set("block_interval", seconds)
        return self._set("fixed_block_interval", fixed)

    def gossip(self, latency: float, jitter: Optional[float] = None) -> "SimulationBuilder":
        self._set("gossip_latency", latency)
        if jitter is not None:
            self._set("gossip_jitter", jitter)
        return self

    def topology(self, name: str, **params: Any) -> "SimulationBuilder":
        """Select the gossip graph by registry name, with builder params.

        ``full_mesh`` (the default when this is never called) preserves the
        legacy direct-broadcast behaviour byte for byte.
        """
        return self._set("topology", (name, params))

    def bandwidth(self, bytes_per_second: float, **params: Any) -> "SimulationBuilder":
        """Enable per-link FIFO bandwidth at ``bytes_per_second``."""
        return self._set("bandwidth", {"bytes_per_second": bytes_per_second, **params})

    def churn(self, *events) -> "SimulationBuilder":
        """Schedule churn events, e.g. ``.churn(("leave", 40.0, "client-3"),
        ("join", 90.0, "client-3"))``; call repeatedly to append."""
        return self._set("churn", self._fields.get("churn", ()) + tuple(events))

    def fault(self, name: str, **params: Any) -> "SimulationBuilder":
        """Add a fault by registry name, e.g. ``.fault("drop", rate=0.2,
        target="block")`` or ``.fault("crash", peer="client-1", at=20.0)``;
        call repeatedly to stack."""
        return self._set("faults", self._fields.get("faults", ()) + ((name, params),))

    def miner_order_jitter(self, seconds: float) -> "SimulationBuilder":
        return self._set("miner_order_jitter", seconds)

    def miner_policy(self, policy: str) -> "SimulationBuilder":
        """Force a baseline ordering policy (one of ``spec.MINER_POLICIES``)."""
        return self._set("miner_policy", policy)

    def client_kind(self, peer_id: str, kind: str) -> "SimulationBuilder":
        """Override one peer's client software (mixed Sereth/Geth networks)."""
        overrides = dict(self._fields.get("client_kind_overrides", ()))
        overrides[peer_id] = kind
        return self._set("client_kind_overrides", overrides)

    def gas(
        self,
        block_gas_limit: Optional[int] = None,
        max_transactions_per_block: Optional[int] = None,
        transaction_gas_limit: Optional[int] = None,
    ) -> "SimulationBuilder":
        if block_gas_limit is not None:
            self._set("block_gas_limit", block_gas_limit)
        if max_transactions_per_block is not None:
            self._set("max_transactions_per_block", max_transactions_per_block)
        if transaction_gas_limit is not None:
            self._set("transaction_gas_limit", transaction_gas_limit)
        return self

    # -- run shape -----------------------------------------------------------------

    def seed(self, seed: int) -> "SimulationBuilder":
        return self._set("seed", seed)

    def retention(self, retain_blocks: int) -> "SimulationBuilder":
        """Bound memory: keep only the newest ``retain_blocks`` blocks per
        chain (older history folds into a sealed ChainAnchor) and evict the
        apply-cache templates that slide out of the same window."""
        return self._set("retention", retain_blocks)

    def metrics_window(self, seconds: float) -> "SimulationBuilder":
        """Stream metrics: fold resolved rows into bounded per-label and
        per-``seconds``-window aggregates instead of whole-run row lists."""
        return self._set("metrics_window", seconds)

    def observe(self, trace_dir: Optional[str] = None) -> "SimulationBuilder":
        """Enable the ``repro.obs`` tracer for this run: typed lifecycle
        events, phase timers, and a probe snapshot appear under the result
        summary's ``observability`` key.  ``trace_dir`` additionally writes
        the JSONL + Chrome-trace files there after the run."""
        self._set("observe", True)
        if trace_dir is not None:
            self._set("trace_dir", trace_dir)
        return self

    # -- terminal ------------------------------------------------------------------

    def build(self) -> SimulationSpec:
        """Validate and freeze the configuration into a SimulationSpec."""
        if self._scenario is None:
            raise BuildError(
                "no scenario selected; call .scenario(name) with one of "
                f"{SCENARIO_REGISTRY.names()}"
            )
        try:
            spec = SimulationSpec(
                scenario=self._scenario,
                workload=self._workload,
                workload_params=self._params,
                **self._fields,
            )
        except ValueError as error:
            raise BuildError(str(error)) from error
        return check_plugins(spec)


class Simulation:
    """A runnable simulation over an immutable spec."""

    def __init__(self, spec: SimulationSpec) -> None:
        self.spec = spec

    @classmethod
    def builder(cls) -> SimulationBuilder:
        return SimulationBuilder()

    def start(self):
        """Wire the network and begin block production (interactive use)."""
        from .engine import build_simulation

        return build_simulation(self.spec).start()

    def run(self):
        """Run the workload to completion and return the SimulationResult."""
        from .engine import run_simulation

        return run_simulation(self.spec)
