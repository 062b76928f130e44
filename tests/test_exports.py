"""Every name a package exports resolves, so a deletion leaves no dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.net", "repro.contracts", "repro.chain"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert package.__all__, f"{module} declares no exports"
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
