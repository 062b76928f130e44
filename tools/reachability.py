"""Which ``src/repro`` functions does anything reach?  Writes ``REACHABILITY.md``.

Runs every entry point of the program, then the tier-1 suite, each as a
subprocess under a stdlib ``sys.setprofile`` / ``threading.setprofile`` hook,
and sorts every function defined in ``src/repro`` into one of three classes:

(a) reached by an entry point: ``repro run <exp> --smoke --workers 1
    --export DIR`` for every registered experiment (``ablation`` once per
    ablation, ``attack_matrix`` once more with the adversaries its smoke grid
    leaves out), the ``trace``/``sweep``/``list``/``claims`` verbs (``sweep``
    once with ``--json``, once with ``--csv`` over every miner policy),
    ``repro golden check``,
    ``repro loadgen --smoke`` with each ``--arrival`` against ``repro
    serve``, one request for every RPC verb against ``repro serve
    --persist DIR`` and a ``--resume`` restart of it, ``bench/run.py
    --smoke`` and the scripts in ``examples/``;
(b) reached only by the tier-1 suite (``python -m pytest -x -q``);
(c) reached by nothing.

The hook is a generated ``sitecustomize`` put first on ``PYTHONPATH``, so it
also covers the processes an entry point starts itself (``repro serve`` under
``bench/run.py``, spawned and forked sweep workers).

    python tools/reachability.py            # regenerate REACHABILITY.md (~6 min)
    python tools/reachability.py --check    # fail if the committed table drifted

Either way it exits nonzero if a function under ``experiments/``, ``oracle/``,
``workloads/`` or ``cli.py`` is in class (c), if a module keeps class (b)
or (c) functions without a reason in ``KEPT_BECAUSE``, or if a
``KEPT_BECAUSE`` row is stale (its module keeps no class (b) or (c)
function any more).  ``--check`` also fails if the class (b)+(c) line
total grew past the committed table's: the ratchet only turns one way.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
TABLE_PATH = REPO_ROOT / "REACHABILITY.md"
GATED_PREFIXES = ("experiments/", "oracle/", "workloads/", "cli.py")
"""Class (c) must stay empty here: the experiment layer, its oracle half, the
workload plugins and the CLI are what the one-way-to-run-an-experiment and
declare-each-workload-once designs keep small."""

KEPT_BECAUSE = {
    "api/experiment.py": "`Experiment.plan` is the protocol method `GridExperiment` implements",
    "api/frame.py": "`drop` is on the export path of an experiment that declares no export columns; `__repr__` is for interactive use",
    "chain/apply_cache.py": "`clear` / `stats` introspect the cache; `__repr__` is for debugging",
    "chain/block.py": "the block's reading API (counts, `contains`, `receipt_for`, `short_hash`, a lone header's `wire`); `__repr__` is for debugging",
    "chain/chain.py": "`anchor`, `last_snapshot` and `committed_transaction_hashes` expose the retention state the tests check",
    "chain/executor.py": "`TransactionExecutor.execute` is a protocol stub",
    "chain/gas.py": "`GasMeter.refund` completes the metering interface contracts call",
    "chain/receipt.py": "`Receipt.failed` is the receipt's predicate for library callers",
    "chain/state.py": "the world state's accessors (account lookup, membership, copy) for library callers",
    "chain/transaction.py": "`sign_transaction` and `with_data` build transactions for library callers; `__repr__` is for debugging",
    "clients/base.py": "`ContractClient.balance` is the client's accessor; `__repr__` is for debugging",
    "consensus/interval.py": "`BlockIntervalModel.next_interval` is a protocol stub",
    "consensus/policies.py": "`OrderingPolicy.order` is a protocol stub",
    "contracts/auction.py": "contract ABI methods callable over RPC, and the constructor `contract.deploy` runs",
    "contracts/oracle.py": "contract ABI methods callable over RPC, and the constructor `contract.deploy` runs",
    "contracts/sereth.py": "contract ABI methods callable over RPC, and the constructor `contract.deploy` runs",
    "contracts/simple_storage.py": "the generic contract served sessions deploy; its ABI methods are callable over RPC",
    "contracts/ticket_sale.py": "contract ABI methods callable over RPC, and the constructor `contract.deploy` runs",
    "core/hms/fpv.py": "`FPV.mark` / `words` are the FPV's accessors",
    "core/hms/node.py": "`TxNode.__repr__` is for debugging",
    "core/hms/series.py": "the `Series` accessors (`head`, `marks`, `transactions`, `__len__`)",
    "core/raa/provider.py": "`StaticRAAProvider` is the fixed-answer RAA provider; `set_fallback` is the registry's setter",
    "crypto/keccak.py": "the pure-Python sponge is the `REPRO_PURE_KECCAK` fallback where the native backend cannot build",
    "encoding/abi.py": "the ABI's decode halves, for RPC clients that decode call results",
    "encoding/hexutil.py": "hex helpers for library callers",
    "evm/contract.py": "`selectors` lists a contract's ABI; `constructor` is the deploy hook contracts override",
    "evm/message.py": "`CallContext`'s `timestamp`, `block_number` and `require` are the Solidity-style API contracts may use",
    "evm/raa_interface.py": "`RAAProviderProtocol.provide` is a protocol stub",
    "evm/registry.py": "`ContractRegistry.copy` lets a caller extend a private registry",
    "evm/storage.py": "`ContractStorage.address` is contract-facing API",
    "faults/message.py": "`MessageFault.effect` is the base class's abstract hook",
    "golden.py": "`record` is the one writer, run only to re-pin; `stored` reads a pin for the tests; a mismatch's report runs only on a drift",
    "net/latency.py": "`ConstantLatency` is `Network`'s default model; `LatencyModel.sample` is a protocol stub",
    "net/network.py": "`propagation_samples` exposes the raw delays its summary is derived from; `__len__` is the container protocol",
    "net/peer.py": "`Peer.__repr__` is for debugging",
    "net/sim.py": "`cancel`, `run`, `run_while` and `pending_events` are the event loop's API for interactive drivers",
    "net/topology.py": "`FullMeshTopology.build` is the graph the engine's direct broadcast implies (a `full_mesh` spec keeps that legacy path, so the engine never builds it); topology introspection (`is_connected`, `checksum`, bandwidth delays) the tests check; the builder's abstract `build`; `ChurnPlan.__len__`",
    "obs/runtime.py": "`active_tracer` is the tracer's getter",
    "record.py": "`_refuse` runs only when code assigns to or deletes from a record, which the program never does",
    "registry.py": "`Registry.__iter__` / `__len__` are the container protocol",
    "service/client.py": "`_backoff_delay` runs only on a retry",
    "service/errors.py": "raised only when the server is overloaded or an unknown error kind arrives",
    "service/http11.py": "`ProtocolError` is raised only on a malformed frame",
    "service/server.py": "`_error_envelope` answers transport-level failures; `__enter__` / `__exit__` are the server's context-manager protocol",
    "txpool/pool.py": "the container protocol and pool inspection (`entries`, `transactions`, `clear`)",
}
"""Why each module with class (b) or (c) functions keeps them: a written
reason, or the functions go."""

EXPERIMENTS = (
    "figure2", "sequential", "frontrunning", "oracle", "attack_matrix",
    "propagation", "horizon", "chaos",
)
ABLATIONS = ("miner_fraction", "gossip", "submission_interval", "block_interval")
SMOKE_SKIPPED_ADVERSARIES = ("suppression", "censoring_miner", "stale_oracle")
"""The registered adversaries ``attack_matrix --smoke`` does not run."""
MINER_POLICIES = ("fifo", "fee_arrival", "random")
"""The baseline ordering policies no scenario selects by default (swept
over the one registered topology no experiment names, ``full_mesh``)."""
ARRIVALS = ("regular", "poisson", "bursty")

HOOK = '''\
import atexit, os, signal, sys, threading, uuid

_OUT = os.environ.get("REACHABILITY_OUT")
if _OUT:
    _SOURCE = os.environ["REACHABILITY_SOURCE"]
    _seen = set()

    def _profile(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump(*_):
        sys.setprofile(None)
        keys = {(c.co_filename, c.co_firstlineno) for c in set(_seen)}
        path = os.path.join(_OUT, "%d-%s.txt" % (os.getpid(), uuid.uuid4().hex))
        with open(path, "w") as handle:
            handle.writelines(
                "%s:%d\\n" % key for key in keys if key[0].startswith(_SOURCE)
            )

    def _dump_and_die(signum, frame):
        _dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def _after_fork():
        # A forked pool worker leaves through os._exit or SIGTERM, never atexit.
        multiprocessing_util = sys.modules.get("multiprocessing.util")
        if multiprocessing_util is not None:
            multiprocessing_util.register_after_fork(
                _dump, lambda _: multiprocessing_util.Finalize(None, _dump, exitpriority=0)
            )
            signal.signal(signal.SIGTERM, _dump_and_die)

    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    module: str  # path below src/repro, e.g. "experiments/figure2.py"
    qualname: str
    first_line: int  # the first decorator's line: what co_firstlineno reports
    own_lines: int  # its span minus the spans of the functions nested in it


def defined_functions() -> List[Function]:
    """Every ``def`` in ``src/repro``, nested ones included."""
    functions: List[Function] = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        module = path.relative_to(SOURCE_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions.extend(_walk(tree, module, ""))
    return functions


def _walk(node: ast.AST, module: str, prefix: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_lines = sum(_span(inner) for inner in _outermost_defs(child))
            yield Function(module, prefix + child.name, _first_line(child), _span(child) - nested_lines)
            yield from _walk(child, module, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, f"{prefix}{child.name}.")
        else:
            yield from _walk(child, module, prefix)


def _outermost_defs(node: ast.AST) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outermost_defs(child)


def _first_line(node: ast.AST) -> int:
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


def _span(node: ast.AST) -> int:
    return node.end_lineno - _first_line(node) + 1


# -- running things under the hook --------------------------------------------------------


def entry_point_commands(workdir: Path) -> List[Tuple[str, List[str]]]:
    cli = [sys.executable, "-m", "repro.cli"]
    commands = [
        (f"repro run {name}",
         cli + ["run", name, "--smoke", "--workers", "1", "--export", str(workdir / "export" / name)])
        for name in EXPERIMENTS
    ]
    commands += [
        (f"repro run ablation name={name}",
         cli + ["run", "ablation", "--smoke", "--workers", "1", "--set", f"name={name}",
                "--export", str(workdir / "export" / f"ablation-{name}")])
        for name in ABLATIONS
    ]
    commands += [
        ("repro run attack_matrix adversaries=" + ",".join(SMOKE_SKIPPED_ADVERSARIES),
         cli + ["run", "attack_matrix", "--smoke", "--workers", "1",
                "--set", "adversaries=" + ",".join(SMOKE_SKIPPED_ADVERSARIES),
                "--export", str(workdir / "export" / "attack_matrix-adversaries")]),
        ("repro sweep --csv", cli + [
            "sweep", "--workload", "market", "--scenarios", "geth_unmodified",
            "--over", "miner_policy=" + ",".join(MINER_POLICIES), "topology=full_mesh", "num_buys=20",
            "--csv", str(workdir / "sweep.csv"),
        ]),
    ]
    commands += [
        ("repro claims", cli + ["claims", "sequential"]),
        ("repro golden check", cli + ["golden", "check"]),
        ("repro trace", cli + ["trace", "sequential", "--smoke", "--trace-out", str(workdir / "traces")]),
        ("repro sweep", cli + [
            "sweep", "--workload", "market", "--scenarios", "geth_unmodified", "semantic_mining",
            "--over", "buys_per_set=2,10", "num_buys=20", "--json", str(workdir / "sweep.json"),
        ]),
        ("repro list", cli + ["list"]),
        ("bench/run.py --smoke",
         [sys.executable, "bench/run.py", "--smoke", "--out", str(workdir / "bench.json")]),
    ]
    commands += [
        (f"examples/{path.name}", [sys.executable, f"examples/{path.name}"])
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
    ]
    return commands


def hooked_environment(hook_dir: Path, out_dir: Path) -> Dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(REPO_ROOT / "src")]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
    )
    environment["REACHABILITY_OUT"] = str(out_dir)
    environment["REACHABILITY_SOURCE"] = str(SOURCE_ROOT) + os.sep
    # A fresh, empty temp dir per run: the native keccak backend is compiled
    # under the profiler every time, never loaded from an earlier build.
    temp_dir = out_dir.with_name(out_dir.name + "-tmp")
    temp_dir.mkdir()
    environment["TMPDIR"] = str(temp_dir)
    return environment


def run_hooked(label: str, command: Sequence[str], environment: Dict[str, str]) -> None:
    started = time.perf_counter()
    finished = subprocess.run(
        command, cwd=REPO_ROOT, env=environment, capture_output=True, text=True
    )
    print(f"  {label}: exit {finished.returncode} in {time.perf_counter() - started:.0f} s", flush=True)
    if finished.returncode != 0:
        raise SystemExit(f"{label} failed under the profiler:\n{finished.stdout[-3000:]}{finished.stderr[-3000:]}")


DRIVE_EVERY_VERB = """\
import sys
from repro.contracts.simple_storage import SimpleStorageContract
from repro.crypto.addresses import address_from_label
from repro.encoding.hexutil import to_hex
from repro.service import ServiceClient, ServiceRPCError
from repro.service.verbs import VERBS

client = ServiceClient(sys.argv[1])
sent = set()

def send(verb, **params):
    sent.add(verb)
    return client.request(verb, params)

assert client.healthz() == {"ok": True}
assert client.status()["closing"] is False
sent.add("service.status")
for verb in ("service.ping", "registry.list", "obs.probes"):
    send(verb)
session = send("session.create", params={"num_buys": 4}, accounts=["census"])["session"]
send("session.list")
send("session.describe", session=session)
send("session.status", session=session)
send("session.advance", session=session, blocks=2)
deployed = send("contract.deploy", session=session, account="census", code="SimpleStorage")
contract = deployed["contract_address"]
send("session.advance", session=session, blocks=2)
send("tx.receipt", session=session, transaction_hash=deployed["transaction_hash"])
data = to_hex(SimpleStorageContract.function_by_name("set_value").abi.encode_call(7))
send("tx.submit", session=session, account="census", to=contract, data=data)
send("contract.call", session=session, contract=contract, function="get_value", allow_raa=False)
send("state.balance", session=session, account=to_hex(address_from_label("census")))
send("state.storage", session=session, contract=contract, slot=0)
send("hms.status", session=session)
send("session.run", session=session)
send("session.summary", session=session)
send("session.metrics", session=session)
for oversized in ({"clients": 10**7}, {"workload": "victim_market", "params": {"reprice_interval": 1e-9}}):
    try:
        send("session.create", **oversized)
    except ServiceRPCError as error:
        assert error.kind == "invalid_params", error
    else:
        raise AssertionError(f"an oversized session was served: {oversized}")
send("session.close", session=session)
send("session.create", experiment="sequential")  # left open: the --resume restart rebuilds it
send("service.shutdown")
assert sent == set(VERBS), set(VERBS) - sent
"""
"""One request for every verb in ``repro.service.verbs.VERBS`` (asserted),
through the client, the last one ``service.shutdown``."""


@contextmanager
def served(environment: Dict[str, str], options: Sequence[str]) -> Iterator[str]:
    """``repro serve --port 0 <options>`` in the background; yields its URL.
    The body must end with a ``service.shutdown`` request, so the server
    exits through atexit."""
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", *options],
        cwd=REPO_ROOT, env=environment, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        url = None
        for line in server.stdout:
            match = re.search(r"serving at (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        if url is None:
            raise SystemExit("repro serve exited before announcing its URL")
        yield url
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    print(f"  repro serve {' '.join(options)}: exit {server.returncode}", flush=True)


def client_script(url: str, body: str) -> List[str]:
    return [sys.executable, "-c", f"from repro.service import ServiceClient; client = ServiceClient({url!r}); {body}"]


def serve_legs(environment: Dict[str, str], workdir: Path) -> None:
    """``repro loadgen --smoke`` with each arrival process, a ``session.list``
    while a session is open, then every RPC verb against a journaling server
    and a ``--resume`` restart that rebuilds the session it left open.

    The listing reads every open session's ``idle_seconds``; without it that
    property is reached only if the idle reaper happens to tick while a
    session is open, and the table would differ between two runs."""
    with served(environment, ["--workers", "2"]) as url:
        for arrival in ARRIVALS:
            run_hooked(
                f"repro loadgen --arrival {arrival}",
                [sys.executable, "-m", "repro.cli", "loadgen", "--smoke", "--url", url,
                 "--arrival", arrival, "--output", str(workdir / f"loadgen-{arrival}.json")],
                environment,
            )
        run_hooked(
            "session.list",
            client_script(url, "session = client.create_session(params={'num_buys': 4}); "
                          "assert session in [entry['session'] for entry in client.list_sessions()]; "
                          "client.close_session(session); client.shutdown_server()"),
            environment,
        )
    journal = workdir / "journal"
    with served(environment, ["--persist", str(journal)]) as url:
        run_hooked("every RPC verb", [sys.executable, "-c", DRIVE_EVERY_VERB, url], environment)
    with served(environment, ["--persist", str(journal), "--resume"]) as url:
        run_hooked(
            "repro serve --resume",
            client_script(url, "assert len(client.list_sessions()) == 1; client.shutdown_server()"),
            environment,
        )


def collect(out_dir: Path) -> Set[Tuple[str, int]]:
    reached: Set[Tuple[str, int]] = set()
    prefix = str(SOURCE_ROOT) + os.sep
    for dump in out_dir.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, _, number = line.rpartition(":")
            module = filename[len(prefix):].replace(os.sep, "/")
            reached.add((module, int(number)))
    return reached


def census() -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, int]]]:
    """(reached by an entry point, reached by the tier-1 suite)."""
    with tempfile.TemporaryDirectory(prefix="reachability-") as workdir_name:
        workdir = Path(workdir_name)
        hook_dir, entry_dir, tests_dir = workdir / "hook", workdir / "entry", workdir / "tests"
        for directory in (hook_dir, entry_dir, tests_dir):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")

        print("entry points:", flush=True)
        environment = hooked_environment(hook_dir, entry_dir)
        for label, command in entry_point_commands(workdir):
            run_hooked(label, command, environment)
        serve_legs(environment, workdir)

        print("tier-1 suite:", flush=True)
        run_hooked(
            "python -m pytest -x -q",
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            hooked_environment(hook_dir, tests_dir),
        )
        return collect(entry_dir), collect(tests_dir)


# -- the table ----------------------------------------------------------------------------


CLASSES = ("a", "b", "c")
CLASS_TITLES = {
    "a": "reached by an entry point",
    "b": "reached only by tests",
    "c": "reached by nothing",
}


def classify(
    functions: Sequence[Function], entry: Set[Tuple[str, int]], tests: Set[Tuple[str, int]]
) -> Dict[str, List[Function]]:
    classes: Dict[str, List[Function]] = {name: [] for name in CLASSES}
    for function in functions:
        key = (function.module, function.first_line)
        classes["a" if key in entry else "b" if key in tests else "c"].append(function)
    return classes


def render(classes: Dict[str, List[Function]]) -> str:
    lines = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python tools/reachability.py` (see its docstring for what",
        "each entry point runs); `--check` re-derives it and fails on drift.",
        "Every function defined under `src/repro` is in one class:",
        "",
        "- **(a)** reached by an entry point: `repro run <exp> --smoke --workers 1",
        "  --export DIR` for every registered experiment (`attack_matrix` once more",
        "  with the adversaries its smoke grid leaves out), the `trace`/`sweep`/`list`/",
        "  `claims` verbs, `repro golden check`, `repro loadgen --smoke` with each",
        "  `--arrival` and every RPC verb against `repro serve` (once with",
        "  `--persist`, then `--resume`),",
        "  `bench/run.py --smoke` and `examples/`;",
        "- **(b)** reached only by the tier-1 suite;",
        "- **(c)** reached by nothing.",
        "",
        "Each module with (b) or (c) functions says why it keeps them.",
        "",
        "Lines are a function's own lines (decorators included, nested functions",
        "counted in their own row).",
        "",
        "| class | functions | lines |",
        "| --- | ---: | ---: |",
    ]
    for name in CLASSES:
        members = classes[name]
        lines.append(
            f"| ({name}) {CLASS_TITLES[name]} | {len(members)} | {sum(f.own_lines for f in members)} |"
        )

    per_module: Dict[str, Dict[str, List[Function]]] = defaultdict(lambda: {n: [] for n in CLASSES})
    for name in CLASSES:
        for function in classes[name]:
            per_module[function.module][name].append(function)
    lines += [
        "",
        "## Per module",
        "",
        "functions / lines in each class.",
        "",
        "| module | (a) | (b) | (c) |",
        "| --- | ---: | ---: | ---: |",
    ]
    for module in sorted(per_module):
        cells = [
            f"{len(members)} / {sum(f.own_lines for f in members)}" if members else "-"
            for members in (per_module[module][name] for name in CLASSES)
        ]
        lines.append(f"| `{module}` | " + " | ".join(cells) + " |")

    for name in ("b", "c"):
        lines += [
            "",
            f"## ({name}) {CLASS_TITLES[name]}",
            "",
            "| module | functions | kept because |",
            "| --- | --- | --- |",
        ]
        for module in sorted(per_module):
            members = per_module[module][name]
            if members:
                names = ", ".join(f"`{function.qualname}`" for function in members)
                lines.append(f"| `{module}` | {names} | {KEPT_BECAUSE.get(module, '(no reason given)')} |")
    return "\n".join(lines) + "\n"


def unreached_lines(table: str) -> Optional[int]:
    """The class (b)+(c) line total a rendered table records (``None``: none)."""
    totals = re.findall(r"^\| \([bc]\) [^|]+ \| \d+ \| (\d+) \|$", table, re.MULTILINE)
    return sum(int(total) for total in totals) if len(totals) == 2 else None


def gate_failures(classes: Dict[str, List[Function]]) -> List[str]:
    return [
        f"{function.module}: {function.qualname}"
        for function in classes["c"]
        if function.module.startswith(GATED_PREFIXES)
    ]


def _keeping_modules(classes: Dict[str, List[Function]]) -> Set[str]:
    """Modules with at least one class (b) or (c) function."""
    return {function.module for name in ("b", "c") for function in classes[name]}


def unexplained_modules(classes: Dict[str, List[Function]]) -> List[str]:
    """Modules with class (b) or (c) functions and no ``KEPT_BECAUSE`` entry."""
    return sorted(_keeping_modules(classes) - set(KEPT_BECAUSE))


def stale_reasons(classes: Dict[str, List[Function]]) -> List[str]:
    """``KEPT_BECAUSE`` rows whose module keeps no class (b) or (c) function."""
    return sorted(set(KEPT_BECAUSE) - _keeping_modules(classes))


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed table instead of writing it")
    arguments = parser.parse_args(argv)

    entry, tests = census()
    classes = classify(defined_functions(), entry, tests)
    table = render(classes)
    status = 0
    if arguments.check:
        committed = TABLE_PATH.read_text(encoding="utf-8") if TABLE_PATH.exists() else ""
        if committed != table:
            sys.stdout.writelines(
                difflib.unified_diff(
                    committed.splitlines(True), table.splitlines(True),
                    "REACHABILITY.md (committed)", "REACHABILITY.md (re-derived)",
                )
            )
            print("REACHABILITY.md is out of date: run python tools/reachability.py")
            status = 1
        ceiling, total = unreached_lines(committed), unreached_lines(table)
        if ceiling is not None and total > ceiling:
            print(f"class (b)+(c) grew from {ceiling} to {total} lines: reach the new "
                  "code from an entry point, or delete it")
            status = 1
    else:
        TABLE_PATH.write_text(table, encoding="utf-8")
        print(f"wrote {TABLE_PATH.relative_to(REPO_ROOT)}")
    for name in CLASSES:
        print(f"({name}) {CLASS_TITLES[name]}: {len(classes[name])} functions, "
              f"{sum(f.own_lines for f in classes[name])} lines")
    failures = gate_failures(classes)
    if failures:
        print("unreached functions in the experiment layer, oracle, workloads or CLI:")
        print("\n".join(f"  {failure}" for failure in failures))
        status = 1
    unexplained = unexplained_modules(classes)
    if unexplained:
        print("modules keeping class (b) or (c) functions with no reason in KEPT_BECAUSE:")
        print("\n".join(f"  {module}" for module in unexplained))
        status = 1
    stale = stale_reasons(classes)
    if stale:
        print("KEPT_BECAUSE rows for modules that keep no class (b) or (c) function:")
        print("\n".join(f"  {module}" for module in stale))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
