"""The golden store: every entry reproduces, a drift names JSON paths, and
``record`` is the one logged writer."""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro import golden
from repro.cli import main

BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


@pytest.mark.parametrize("name", sorted(golden.GOLDENS))
def test_every_entry_holds(name):
    golden.assert_holds(name)


def test_every_entry_has_a_file_and_every_file_an_entry():
    files = {path.stem for path in golden.STORE.glob("*.json")}
    assert files == set(golden.GOLDENS)


def test_the_bench_gossip_goldens_are_the_stores_random_k_cells():
    """``bench/golden.json``'s ``gossip_1k`` is the same cell, at 1000 peers
    full-size and 100 peers smoke, as the store's ``random_k`` entries."""
    bench = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))
    assert bench["full"]["gossip_1k"]["sha256"] == golden.digest(golden.stored("random_k_1000"))
    assert bench["smoke"]["gossip_1k"]["sha256"] == golden.digest(golden.stored("random_k_100"))


def test_a_cold_trial_and_its_warm_rerun_both_hold():
    """Per-process memos (digests, trie roots, wire encodings, genesis
    templates) change how fast a trial runs, never what it outputs."""
    from repro.api import reset_process_caches

    reset_process_caches()
    golden.assert_holds("figure2_smoke_cell")
    golden.assert_holds("figure2_smoke_cell")


def test_differences_walk_to_the_leaves_in_document_order():
    stored = {"a": [1, 2, {"b": 1.0}], "c": True, "gone": 0}
    new = {"a": [1, 3, {"b": 1}, 4], "c": 1}
    assert golden.differences(stored, new) == [
        ("$.a[1]", 2, 3),
        ("$.a[2].b", 1.0, 1),
        ("$.a[3]", golden.ABSENT, 4),
        ("$.c", True, 1),
        ("$.gone", 0, golden.ABSENT),
    ]


def test_a_perturbed_producer_reports_json_paths_with_both_values(monkeypatch, capsys):
    spec = golden._gossip_spec("random_k", 100)
    perturbed = replace(spec, gossip_latency=spec.gossip_latency + 0.001)
    monkeypatch.setitem(golden.GOLDENS, "random_k_100", golden.Golden(lambda: golden._summary(perturbed)))
    assert main(["golden", "check", "random_k_100"]) == 1
    out = capsys.readouterr().out
    moved = re.findall(r"^  (\$\S*): stored (.+) -> new (.+)$", out, re.M)
    assert moved, out
    assert any(path.startswith("$.extras.network.block_propagation") for path, _old, _new in moved), out
    assert all(old != new for _path, old, new in moved)
    assert not re.search(r"[0-9a-f]{64}", out), "a drift must read as paths, not two hashes"


@pytest.fixture
def scratch_store(tmp_path, monkeypatch):
    """A copy of one entry in a temporary store, so ``record`` writes there."""
    shutil.copy(golden.STORE / "genesis_roots.json", tmp_path)
    monkeypatch.setattr(golden, "STORE", tmp_path)
    return tmp_path


def test_record_without_a_reason_is_refused(scratch_store, capsys):
    with pytest.raises(SystemExit) as refused:
        main(["golden", "record", "genesis_roots"])
    assert refused.value.code == 2
    assert "--reason" in capsys.readouterr().err
    with pytest.raises(SystemExit, match="needs a reason"):
        main(["golden", "record", "genesis_roots", "--reason", "  "])
    assert not (scratch_store / golden.LOG_NAME).exists()


def test_a_record_appends_exactly_one_log_line(scratch_store):
    before = (scratch_store / "genesis_roots.json").read_text(encoding="utf-8")
    assert main(["golden", "record", "genesis_roots", "--reason", "re-pinned unchanged"]) == 0
    log = (scratch_store / golden.LOG_NAME).read_text(encoding="utf-8").splitlines()
    assert len(log) == 1
    line = json.loads(log[0])
    assert line["name"] == "genesis_roots" and line["reason"] == "re-pinned unchanged"
    assert line["from"] == line["to"] == golden.digest(golden.stored("genesis_roots"))
    after = json.loads((scratch_store / "genesis_roots.json").read_text(encoding="utf-8"))
    assert after["value"] == json.loads(before)["value"]
    assert after["provenance"] == "re-pinned unchanged"
    main(["golden", "record", "genesis_roots", "--reason", "again"])
    assert len((scratch_store / golden.LOG_NAME).read_text(encoding="utf-8").splitlines()) == 2


def test_a_hand_edited_value_fails_its_own_sha256(scratch_store):
    path = scratch_store / "genesis_roots.json"
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["value"]["market"] = "00" * 32
    path.write_text(json.dumps(entry), encoding="utf-8")
    [(where, _stored, _new)] = golden.check("genesis_roots")
    assert where == "$"


def test_unknown_names_are_refused():
    with pytest.raises(SystemExit, match="unknown name"):
        main(["golden", "check", "no_such_golden"])
