"""``repro.golden``: the one store of pinned outputs.

Every output the repo pins byte for byte outside ``bench/`` has one name
here.  ``goldens/<name>.json`` holds the canonical JSON value its producer
returned, the sha256 of that value's text and one provenance line;
:data:`GOLDENS` maps each name to its producer, a call into the public API,
and to the text form its sha256 is taken over:

* ``json``: ``json.dumps(value, sort_keys=True)``, the summary checksum;
* ``export``: the indented sorted-key text ``to_json()`` exports;
* ``jsonl``: one sorted-key line per item, as ``sweep_digest`` hashes a plan.

::

    repro golden check [NAME...]             # every name when none is given
    repro golden record NAME --reason TEXT   # the only writer

``check`` prints the first JSON paths where a new value differs from the
stored one, with both values.  ``record`` rewrites one entry and appends a
line to ``goldens/repins.jsonl``, so every re-pin says why.  Tests assert
through :func:`assert_holds`.  The store is read from the source checkout,
so the package is installed in place (``pip install -e .``).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "GOLDENS", "Golden", "assert_holds", "check", "differences", "digest", "record", "report", "stored",
]

STORE = Path(__file__).resolve().parents[2] / "goldens"
LOG_NAME = "repins.jsonl"
SHOWN_PATHS = 8
"""How many differing paths a mismatch reports."""

_TEXT: Dict[str, Callable[[Any], str]] = {
    "json": lambda value: json.dumps(value, sort_keys=True),
    "export": lambda value: json.dumps(value, indent=2, sort_keys=True) + "\n",
    "jsonl": lambda value: "".join(json.dumps(item, sort_keys=True) + "\n" for item in value),
}


class Golden(NamedTuple):
    produce: Callable[[], Any]
    text: str = "json"


Difference = Tuple[str, Any, Any]
"""``(JSON path, stored value, new value)``; :data:`ABSENT` marks a missing side."""

ABSENT = "<absent>"


def digest(value: Any, text: str = "json") -> str:
    return hashlib.sha256(_TEXT[text](value).encode("utf-8")).hexdigest()


def canonical(value: Any) -> Any:
    """``value`` as JSON reads it back: tuples become lists, keys strings."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def differences(stored: Any, new: Any, path: str = "$") -> List[Difference]:
    """Every leaf path where two JSON values differ, in document order."""
    if isinstance(stored, dict) and isinstance(new, dict):
        found: List[Difference] = []
        for key in sorted(set(stored) | set(new)):
            found += differences(stored.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}")
        return found
    if isinstance(stored, list) and isinstance(new, list):
        found = []
        for index in range(max(len(stored), len(new))):
            left = stored[index] if index < len(stored) else ABSENT
            right = new[index] if index < len(new) else ABSENT
            found += differences(left, right, f"{path}[{index}]")
        return found
    if type(stored) is type(new) and stored == new:
        return []
    return [(path, stored, new)]


def _path(name: str) -> Path:
    if name not in GOLDENS:
        raise KeyError(f"unknown golden {name!r}; known: {', '.join(sorted(GOLDENS))}")
    return STORE / f"{name}.json"


def _load(name: str) -> Dict[str, Any]:
    return json.loads(_path(name).read_text(encoding="utf-8"))


def stored(name: str) -> Any:
    """The value pinned under ``name``."""
    return _load(name)["value"]


def check(name: str, value: Any = None) -> List[Difference]:
    """The differences between ``name``'s stored value and ``value`` (its
    producer's output when omitted): empty when the two are equal and the
    new value's text hashes to the stored sha256."""
    entry = _load(name)
    text = GOLDENS[name].text
    if digest(entry["value"], text) != entry["sha256"]:
        return [("$", f"a value that hashes to {entry['sha256']}", "the file's value, which does not")]
    new = canonical(GOLDENS[name].produce() if value is None else value)
    found = differences(entry["value"], new)
    if not found and digest(new, text) != entry["sha256"]:
        found = [("$", "the stored text", "a different text of an equal value")]
    return found


def report(name: str, found: Sequence[Difference]) -> str:
    """``name: holds``, or a mismatch as the first :data:`SHOWN_PATHS` paths
    with both values."""
    if not found:
        return f"{name}: holds"

    def shown(value: Any) -> str:
        text = value if value is ABSENT else json.dumps(value, sort_keys=True)
        return text if len(text) <= 120 else text[:117] + "..."

    lines = [f"{name}: {len(found)} JSON path(s) differ from goldens/{name}.json"]
    lines += [f"  {path}: stored {shown(old)} -> new {shown(new)}" for path, old, new in found[:SHOWN_PATHS]]
    if len(found) > SHOWN_PATHS:
        lines.append(f"  ... and {len(found) - SHOWN_PATHS} more")
    return "\n".join(lines)


def assert_holds(name: str, value: Any = None) -> None:
    """Raise ``AssertionError`` naming the paths where ``value`` (the
    producer's output when omitted) moved."""
    found = check(name, value)
    if found:
        raise AssertionError(report(name, found))


def record(name: str, reason: str) -> str:
    """Re-pin ``name`` to its producer's output and log why; returns the new sha256."""
    if not reason.strip():
        raise ValueError("a re-pin needs a reason")
    path = _path(name)
    previous = _load(name)["sha256"] if path.exists() else None
    value = canonical(GOLDENS[name].produce())
    sha = digest(value, GOLDENS[name].text)
    fields = {"provenance": reason, "sha256": sha, "value": value}
    # One line per field, so a re-pin's diff shows the provenance and sha256 apart.
    lines = [f" {json.dumps(key)}: {json.dumps(item, sort_keys=True)}" for key, item in fields.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    line = {"at": time.strftime("%Y-%m-%d"), "name": name, "from": previous, "to": sha, "reason": reason}
    with (STORE / LOG_NAME).open("a", encoding="utf-8") as log:
        log.write(json.dumps(line) + "\n")
    return sha


# -- producers -----------------------------------------------------------------------

GOSSIP_SEED = 20260807
GOSSIP_BUYS = 8


def _gossip_spec(topology: str, clients: int, faulty: bool = False):
    """The defended displacement cell the gossip goldens run, through the
    public builder: ``victim_market`` on ``topology`` with 2 miners and
    ``clients`` clients, optionally under every message fault and a crash."""
    from .api import Simulation

    builder = (
        Simulation.builder()
        .scenario("semantic_mining")
        .workload("victim_market", num_victim_buys=GOSSIP_BUYS, buy_interval=2.0)
        .miners(2)
        .clients(clients)
        .block_interval(13.0)
        .gossip(0.07, 0.05)
        .gas(max_transactions_per_block=12)
        .topology(topology)
        .bandwidth(1_250_000.0)
        .adversary("displacement")
        .seed(GOSSIP_SEED)
    )
    if faulty:
        until = 5.0 + GOSSIP_BUYS * 2.0 + 13.0
        builder = (
            builder.fault("drop", rate=0.08, target="block", until=until)
            .fault("corrupt", rate=0.08, target="block", until=until)
            .fault("duplicate", rate=0.08, target="tx", spread=0.5, until=until)
            .fault("delay", rate=0.16, target="block", extra=0.3, jitter=0.4, until=until)
            .fault("crash", peer="client-1", at=8.0, downtime=8.0)
        )
    return builder.build()


def _summary(spec) -> Dict[str, Any]:
    from .api import run_simulation

    return run_simulation(spec).summary()


def _planned_cell(experiment: str, seed: Optional[int] = None, **overrides: Any) -> Dict[str, Any]:
    """The summary of ``experiment``'s first planned cell, reseeded to ``seed``."""
    from .api import ExperimentOptions, plan_experiment

    options = ExperimentOptions(smoke=True, overrides=overrides)
    spec = plan_experiment(experiment, options)[2].jobs()[0][0]
    return _summary(spec if seed is None else spec.with_seed(seed))


def _golden_sweep() -> Any:
    from .experiments.chaos import golden_sweep

    return json.loads(golden_sweep().run(workers=1).to_json())


def _figure2_smoke_rows() -> Any:
    from .api import ExperimentOptions, run_experiment

    return json.loads(run_experiment("figure2", ExperimentOptions(smoke=True)).export_frame().to_json())


def _market_cell() -> Dict[str, Any]:
    """A sereth_client market cell with every market parameter spelled out."""
    from .api import Simulation

    return _summary(
        Simulation.builder()
        .scenario("sereth_client")
        .workload(
            "market", num_buys=80, buys_per_set=4.0, submission_interval=1.0, start_time=30.0,
            initial_price=100, price_max_step=5, num_buyers=4,
        )
        .miners(2)
        .clients(2)
        .seed(1234)
        .build()
    )


def _sequential_history() -> Dict[str, Any]:
    from .api import Simulation

    return _summary(
        Simulation.builder()
        .scenario("geth_unmodified")
        .workload("sequential", num_pairs=25, submission_interval=1.0)
        .miners(1)
        .clients(1)
        .gossip(0.06, 0.04)
        .miner_policy("random")
        .seed(7)
        .build()
    )


def _random_k_adjacency(clients: int) -> List[Any]:
    """The ``random_k`` graph over 2 miners and ``clients`` clients at the
    gossip seed, as sorted ``[peer, neighbours]`` pairs."""
    import random

    from .net.topology import RandomKTopology

    roster = [f"miner-{index}" for index in range(2)] + [f"client-{index}" for index in range(clients)]
    topology = RandomKTopology().build(roster, random.Random(GOSSIP_SEED))
    return sorted([peer, list(neighbors)] for peer, neighbors in topology.adjacency.items())


def _genesis_roots() -> Dict[str, str]:
    """Each registered workload's genesis state root."""
    from .api import WORKLOAD_REGISTRY, Simulation, build_simulation

    roots = {}
    for name in WORKLOAD_REGISTRY.names():
        spec = Simulation.builder().scenario("semantic_mining").workload(name).miners(2).seed(5).build()
        roots[name] = build_simulation(spec).reference_chain.block_by_number(0).header.state_root.hex()
    return roots


def _plan(experiment: str, smoke: bool) -> List[Any]:
    """The plan's (spec, tags) jobs as ``sweep_digest`` hashes them."""
    from .api import ExperimentOptions, plan_experiment

    jobs = plan_experiment(experiment, ExperimentOptions(smoke=smoke))[2].jobs()
    return [{"spec": spec.describe(), "tags": dict(sorted(tags.items()))} for spec, tags in jobs]


PLANNED = (
    "ablation", "attack_matrix", "chaos", "figure2", "frontrunning",
    "horizon", "oracle", "propagation", "sequential",
)
"""Every registered experiment: each one's smoke and full plans are pinned."""

GOLDENS: Dict[str, Golden] = {
    "golden_sweep": Golden(_golden_sweep, "export"),
    "figure2_smoke_rows": Golden(_figure2_smoke_rows, "export"),
    "figure2_smoke_cell": Golden(lambda: _planned_cell("figure2")),
    "market_cell": Golden(_market_cell),
    "sequential_history": Golden(_sequential_history),
    "chaos_faulted_cell": Golden(lambda: _planned_cell(
        "chaos", GOSSIP_SEED,
        mixes=["combined"], intensities=["heavy"], scenarios=["semantic_mining"], buys=GOSSIP_BUYS,
    )),
    **{
        f"{topology}_{clients}": Golden(
            lambda topology=topology, clients=clients: _summary(_gossip_spec(topology, clients))
        )
        for topology, clients in (
            ("full_mesh", 100), ("kademlia", 100), ("random_k", 100), ("region_hub", 100), ("random_k", 1000),
        )
    },
    "random_k_100_faulty": Golden(lambda: _summary(_gossip_spec("random_k", 100, faulty=True))),
    **{
        f"random_k_adjacency_{clients}": Golden(lambda clients=clients: _random_k_adjacency(clients))
        for clients in (10, 100, 1000)
    },
    "genesis_roots": Golden(_genesis_roots),
    **{
        f"plan_{experiment}_{'smoke' if smoke else 'full'}": Golden(
            lambda experiment=experiment, smoke=smoke: _plan(experiment, smoke), "jsonl"
        )
        for experiment in PLANNED
        for smoke in (True, False)
    },
}
"""Every pinned output, by name."""
