"""``repro.memo``: the one bounded-memo primitive and its registry."""

import sys
import threading
import time

import pytest

from repro import memo as memo_module
from repro.api import reset_process_caches
from repro.chain.genesis import GenesisConfig, build_genesis, build_genesis_cached
from repro.crypto.keccak import KECCAK_MEMO_SIZE, keccak256
from repro.memo import bounded_memo, memo_stats
from repro.obs import snapshot


@pytest.fixture
def scratch_memo():
    calls = []

    @bounded_memo("test_scratch", 2)
    def double(value):
        calls.append(value)
        return 2 * value

    yield double, calls
    del memo_module._MEMOS["test_scratch"]


class TestPrimitive:
    def test_is_a_bounded_lru(self, scratch_memo):
        double, calls = scratch_memo
        assert [double(1), double(2), double(1), double(3), double(2)] == [2, 4, 2, 6, 4]
        assert calls == [1, 2, 3, 2]  # 2 was the least recently used when 3 arrived
        assert memo_stats()["test_scratch"] == {"hits": 1, "max_size": 2, "misses": 4, "size": 2}

    def test_registry_is_what_reset_and_the_probe_read(self, scratch_memo):
        double, _calls = scratch_memo
        double(1)
        assert snapshot()["memos"]["test_scratch"]["size"] == 1
        reset_process_caches()
        assert snapshot()["memos"]["test_scratch"] == {"hits": 0, "max_size": 2, "misses": 0, "size": 0}

    def test_names_are_unique(self, scratch_memo):
        with pytest.raises(ValueError, match="test_scratch"):
            bounded_memo("test_scratch", 4)(len)

    def test_the_engine_s_memos_are_all_registered(self):
        assert {"abi_array_type", "genesis", "keccak256"} <= set(memo_stats())
        assert snapshot()["hash_cache"] == memo_stats()["keccak256"]
        assert list(snapshot()["hash_cache"]) == ["hits", "max_size", "misses", "size"]


class TestSharedAcrossThreads:
    def test_hashing_genesis_builds_and_resets_race_freely(self):
        """Eight threads hash and build genesis templates while a ninth resets
        every memo.  First, undisturbed, they push more distinct keys through
        both memos than either holds (eviction under contention); then they
        re-read a hot few configs while resets land every half millisecond —
        the hand-rolled genesis LRU this replaced raised there (``get`` hit,
        concurrent ``clear``, ``move_to_end`` -> ``KeyError``).  No call may
        raise, every answer must equal the serial one, and no memo may ever
        exceed its cap."""
        workers = 8
        inputs = [b"memo-stress-%d" % index for index in range(KECCAK_MEMO_SIZE + 512)]
        digests = [keccak256(data) for data in inputs]  # leaves the memo full
        configs = [GenesisConfig.for_labels(["alice"], balance=10**18 + index) for index in range(40)]
        genesis_hashes = [build_genesis(config)[0].hash for config in configs]
        failures, stop = [], threading.Event()

        def check_bounds() -> None:
            for name, stats in memo_stats().items():
                assert stats["size"] <= stats["max_size"], (name, stats)

        def worker(offset: int) -> None:
            try:
                for index in range(offset, len(inputs), workers):
                    assert keccak256(inputs[index]) == digests[index]
                for index in range(len(configs)):
                    assert build_genesis_cached(configs[index])[0].hash == genesis_hashes[index]
                    check_bounds()
                deadline = time.monotonic() + 0.6
                while time.monotonic() < deadline:
                    for index in [0, 1, 2, 3] * 25:
                        assert build_genesis_cached(configs[index])[0].hash == genesis_hashes[index]
                        assert keccak256(inputs[index]) == digests[index]
            except Exception as error:  # surfaced below, on the main thread
                failures.append(error)

        def resetter() -> None:
            pause = 0.05  # the eviction phase runs against full memos first
            try:
                while not stop.wait(pause):
                    reset_process_caches()
                    check_bounds()
                    pause = 0.0005
            except Exception as error:
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(workers)]
        clearing = threading.Thread(target=resetter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clearing.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            clearing.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [clearing])
        assert not failures, failures[:3]
