"""``repro serve`` with the traced pass's span wrappers installed.

Usage: ``python bench/serve_traced.py SPANS_OUT serve [serve options...]``

Installs the wrappers, runs the ordinary ``serve`` entry point, and writes
every span to ``SPANS_OUT`` once the server has shut down.  The bench
process installs the same wrappers around its client, so a request's client
span and its server spans share one monotonic clock and no id has to cross
the wire.
"""

from __future__ import annotations

import sys
from pathlib import Path

import trace as bench_trace


def main() -> int:
    spans_out, cli_arguments = Path(sys.argv[1]), sys.argv[2:]
    from repro.cli import main as repro_main

    recorder = bench_trace.SpanRecorder()
    recorder.install()
    try:
        return repro_main(cli_arguments) or 0
    finally:
        recorder.uninstall()
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
