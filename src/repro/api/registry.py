"""Name-based registries for scenarios and workloads.

Both registries follow the pluggable-feature idiom: a component registers
itself once (either by decorating its class or by calling ``add``) and every
consumer — the builder, the sweep engine, the CLI — resolves it by name.
Adding a new workload to the system is therefore a single self-registering
module, not a new runner script.

The registry machinery itself lives in :mod:`repro.registry` (it is shared
with the adversary ecosystem); this module holds the scenario and workload
instances and re-exports the classes for backward compatibility.
"""

from __future__ import annotations

from typing import Optional

from ..registry import Registry, RegistryError

__all__ = [
    "Registry",
    "RegistryError",
    "SCENARIO_REGISTRY",
    "WORKLOAD_REGISTRY",
    "register_workload",
    "register_scenario",
]

# The two process-wide registries the facade consults.  Scenario entries are
# ``repro.experiments.scenario.Scenario`` instances; workload entries are
# ``repro.workloads.base.Workload`` subclasses.
SCENARIO_REGISTRY: Registry = Registry("scenario")
WORKLOAD_REGISTRY: Registry = Registry("workload")


def register_scenario(scenario) -> None:
    """Register a :class:`~repro.experiments.scenario.Scenario` by its name."""
    SCENARIO_REGISTRY.add(scenario.name, scenario)


def register_workload(name: Optional[str] = None):
    """Class decorator registering a :class:`Workload` subclass by name."""
    return WORKLOAD_REGISTRY.register(name)
