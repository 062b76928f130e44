"""Which ``src/repro`` functions does anything reach?  Writes ``REACHABILITY.md``.

Runs every entry point of the program, then the tier-1 suite, each as a
subprocess under a stdlib ``sys.setprofile`` / ``threading.setprofile`` hook,
and sorts every function defined in ``src/repro`` into one of three classes:

(a) reached by an entry point: ``repro run <exp> --smoke --workers 1`` for
    every registered experiment (``ablation`` once per ablation), the
    ``serve``/``loadgen``/``trace``/``sweep``/``list``/``claims`` verbs,
    ``bench/run.py --smoke`` and the scripts in ``examples/``;
(b) reached only by the tier-1 suite (``python -m pytest -x -q``);
(c) reached by nothing.

The hook is a generated ``sitecustomize`` put first on ``PYTHONPATH``, so it
also covers the processes an entry point starts itself (``repro serve`` under
``bench/run.py``, spawned and forked sweep workers).

    python tools/reachability.py            # regenerate REACHABILITY.md (~5 min)
    python tools/reachability.py --check    # fail if the committed table drifted

Either way it exits nonzero if a function under ``experiments/``, ``oracle/``,
``workloads/`` or ``cli.py`` is in class (c).  ``--check`` also fails if the
class (b)+(c) line total grew past the committed table's: the ratchet only
turns one way.
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

EXPERIMENTS = (
    "figure2", "sequential", "frontrunning", "oracle", "attack_matrix",
    "propagation", "horizon", "chaos",
)
ABLATIONS = ("miner_fraction", "gossip", "submission_interval", "block_interval")

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
        (f"repro run {name}", cli + ["run", name, "--smoke", "--workers", "1"])
        for name in EXPERIMENTS
    ]
    commands += [
        (f"repro run ablation name={name}",
         cli + ["run", "ablation", "--smoke", "--workers", "1", "--set", f"name={name}"])
        for name in ABLATIONS
    ]
    commands += [
        ("repro claims", cli + ["claims", "sequential"]),
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


def serve_and_loadgen(environment: Dict[str, str]) -> None:
    """``repro serve`` in the background, ``repro loadgen --smoke`` against it,
    a ``session.list`` while a session is open, then the ``service.shutdown``
    verb, so the server exits through atexit.

    The listing reads every open session's ``idle_seconds``; without it that
    property is reached only if the idle reaper happens to tick while a
    session is open, and the table would differ between two runs."""
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", "--workers", "2"],
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
        run_hooked("repro loadgen", [sys.executable, "-m", "repro.cli", "loadgen", "--smoke", "--url", url], environment)
        run_hooked(
            "session.list",
            [sys.executable, "-c",
             f"from repro.service import ServiceClient; client = ServiceClient({url!r}); "
             "session = client.create_session(params={'num_buys': 4}); "
             "assert session in [entry['session'] for entry in client.list_sessions()]; "
             "client.close_session(session)"],
            environment,
        )
        run_hooked(
            "service.shutdown",
            [sys.executable, "-c",
             f"from repro.service import ServiceClient; ServiceClient({url!r}).shutdown_server()"],
            environment,
        )
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    print(f"  repro serve: exit {server.returncode}", flush=True)


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
        serve_and_loadgen(environment)

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
        "- **(a)** reached by an entry point: `repro run <exp> --smoke --workers 1`",
        "  for every registered experiment, the `serve`/`loadgen`/`trace`/`sweep`/",
        "  `list`/`claims` verbs, `bench/run.py --smoke` and `examples/`;",
        "- **(b)** reached only by the tier-1 suite;",
        "- **(c)** reached by nothing.",
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
        lines += ["", f"## ({name}) {CLASS_TITLES[name]}", ""]
        for module in sorted(per_module):
            members = per_module[module][name]
            if members:
                names = ", ".join(f"`{function.qualname}`" for function in members)
                lines.append(f"- `{module}`: {names}")
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
    return status


if __name__ == "__main__":
    sys.exit(main())
