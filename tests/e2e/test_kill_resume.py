"""Kill -9 a persisted server mid-life; resume must serve identical state.

This is the durability story end to end, with a real process and a real
``SIGKILL`` — no graceful close, no flushed shutdown path.  The journal is
fsynced per accepted request, so the resumed server must rebuild every
journaled session byte-identically: same ids, same seeds, same summaries.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.service import ServiceClient
from repro.service.errors import ServiceConnectionError

pytestmark = pytest.mark.filterwarnings("error")

SESSION_SPEC = {"params": {"num_buys": 4}, "accounts": ["kill-alice"]}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_server(port: int, persist_dir: str, resume: bool = False) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        str(port),
        "--workers",
        "2",
        "--idle-timeout",
        "0",
        "--persist",
        persist_dir,
    ]
    if resume:
        command.append("--resume")
    return subprocess.Popen(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ),
    )


def wait_until_healthy(client: ServiceClient, process: subprocess.Popen, deadline: float = 30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if process.poll() is not None:
            raise AssertionError(f"server exited early with {process.returncode}")
        try:
            assert client.healthz() == {"ok": True}
            return
        except ServiceConnectionError:
            time.sleep(0.1)
    raise AssertionError("server never became healthy")


def reap(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10)


def test_sigkilled_server_resumes_byte_identical_sessions(tmp_path):
    persist_dir = str(tmp_path / "journal")
    port = free_port()

    first = spawn_server(port, persist_dir)
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    try:
        wait_until_healthy(client, first)
        session = client.create_session(**SESSION_SPEC)
        before = client.run(session)
        summary = client.request("session.summary", {"session": session})
    finally:
        # The point of the test: no graceful shutdown, no final flush.
        os.kill(first.pid, signal.SIGKILL)
        reap(first)

    second = spawn_server(port, persist_dir, resume=True)
    try:
        wait_until_healthy(client, second)
        listed = client.list_sessions()
        assert [row["session"] for row in listed] == [session]
        resumed = client.request("session.summary", {"session": session})
        assert json.dumps(resumed, sort_keys=True) == json.dumps(summary, sort_keys=True)
        assert json.dumps(client.run(session), sort_keys=True) == json.dumps(
            before, sort_keys=True
        )
        status = client.status()
        assert status["journal"]["replayed"] >= 2  # create + run at minimum
    finally:
        reap(second)
        client.close()
