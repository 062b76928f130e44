"""Fixtures for the live-server e2e suite.

Two ways to run:

* **Standalone** (the tier-1 default): each test session spawns an
  in-process :class:`ServiceServer` on an ephemeral port and tears it down
  afterwards — the suite stays runnable with nothing but ``pytest``.
* **Against a real server** (the CI ``service-smoke`` job): set
  ``REPRO_SERVICE_URL`` and the suite drives that server over the network
  instead, exercising the exact deployment the operator runs.
"""

from __future__ import annotations

import os

import pytest

import repro.contracts  # noqa: F401  (registers the shipped contracts)
from repro.service import ServiceClient, ServiceConfig, ServiceServer

ENV_URL = "REPRO_SERVICE_URL"


@pytest.fixture(scope="session")
def service_url():
    external = os.environ.get(ENV_URL)
    if external:
        yield external.rstrip("/")
        return
    server = ServiceServer(
        ServiceConfig(port=0, workers=4, idle_timeout=None, retention_default=64)
    )
    server.start()
    try:
        yield server.url
    finally:
        server.shutdown()


@pytest.fixture
def client(service_url):
    with ServiceClient(service_url, timeout=120.0) as client:
        yield client
