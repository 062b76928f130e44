"""The probe registry and the JSON contract every ``*_stats()`` surface keeps.

Satellite guarantee: every registered probe returns a plain,
``json.dumps``-serialisable dict with stable sorted keys — so
``obs.snapshot()`` (and the ``observability`` summary key built from it)
round-trips through every exporter without surprises.
"""

import json

import pytest

from repro import obs
from repro.obs import probe_names, register_probe, snapshot, unregister_probe


class TestRegistry:
    def test_builtin_probes_are_registered(self):
        assert {"hash_cache", "live_state", "memos", "wire_cache"} <= set(probe_names())

    def test_register_and_unregister_custom_probe(self):
        register_probe("test_custom", lambda: {"b": 2, "a": 1})
        try:
            assert "test_custom" in probe_names()
            assert snapshot()["test_custom"] == {"a": 1, "b": 2}
        finally:
            unregister_probe("test_custom")
        assert "test_custom" not in probe_names()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_probe("", lambda: {})

    def test_unregister_missing_probe_is_a_noop(self):
        unregister_probe("never_registered")


class TestStatsJsonContract:
    def test_snapshot_round_trips_through_json(self):
        readings = snapshot()
        rebuilt = json.loads(json.dumps(readings))
        assert rebuilt == readings

    def test_probe_names_and_keys_are_sorted(self):
        readings = snapshot()
        assert list(readings) == sorted(readings)
        for name, stats in readings.items():
            assert isinstance(stats, dict), name
            assert list(stats) == sorted(stats), name

    def test_every_stats_surface_is_plain_json(self):
        # The audited surfaces behind the built-in probes, called directly:
        # each must be a plain dict of scalars with stable sorted keys.
        from repro.chain.state import WorldState, live_state_stats
        from repro.chain.wire import wire_cache_stats
        from repro.memo import memo_stats

        surfaces = {
            "wire_cache_stats": wire_cache_stats(),
            "memo_stats": memo_stats(),
            "memo_stats[keccak256]": memo_stats()["keccak256"],
            "live_state_stats": live_state_stats(),
            "rss_stats": WorldState().rss_stats(),
        }
        for name, stats in surfaces.items():
            assert list(stats) == sorted(stats), name
            assert json.loads(json.dumps(stats)) == stats, name

    def test_network_stats_as_dict_is_plain_json(self):
        from repro.net.network import NetworkStats

        stats = NetworkStats().as_dict()
        assert list(stats) == sorted(stats)
        assert json.loads(json.dumps(stats)) == stats


class TestPackageSurface:
    def test_tracer_not_reexported_as_module_global(self):
        # ``from repro.obs import TRACER`` would freeze the import-time value
        # (None) and never observe activation; the package deliberately only
        # exposes ``active_tracer()`` / ``runtime.TRACER``.
        assert not hasattr(obs, "TRACER")
