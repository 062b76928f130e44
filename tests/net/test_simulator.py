"""Tests for the discrete-event simulator and latency models."""

import pytest

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(5.0, lambda: fired.append("late"))
        simulator.schedule_at(1.0, lambda: fired.append("early"))
        simulator.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append("first"))
        simulator.schedule_at(1.0, lambda: fired.append("second"))
        simulator.run()
        assert fired == ["first", "second"]

    def test_schedule_in_is_relative(self):
        simulator = Simulator(start_time=10.0)
        times = []
        simulator.schedule_in(5.0, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [15.0]

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            simulator.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            simulator.schedule_in(-1.0, lambda: None)

    def test_cannot_schedule_at_nan(self):
        """NaN compares false to everything: a ``time < now`` guard let it
        onto the heap, where it poisons the ordering of every later entry."""
        simulator = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            simulator.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            simulator.schedule_in(float("nan"), lambda: None)
        assert simulator.pending_events() == 0

    def test_events_scheduled_during_events_run(self):
        simulator = Simulator()
        fired = []

        def outer():
            simulator.schedule_in(1.0, lambda: fired.append("inner"))

        simulator.schedule_at(1.0, outer)
        simulator.run()
        assert fired == ["inner"]
        assert simulator.now == 2.0

    def test_cancelled_events_do_not_fire(self):
        simulator = Simulator()
        fired = []
        event = simulator.schedule_at(1.0, lambda: fired.append("x"))
        simulator.cancel(event)
        simulator.run()
        assert fired == []


class TestRunModes:
    def test_run_until_stops_at_deadline_and_advances_clock(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append(1))
        simulator.schedule_at(10.0, lambda: fired.append(10))
        simulator.run_until(5.0)
        assert fired == [1]
        assert simulator.now == 5.0
        simulator.run_until(20.0)
        assert fired == [1, 10]

    def test_run_while_condition(self):
        simulator = Simulator()
        fired = []
        for index in range(10):
            simulator.schedule_at(float(index + 1), lambda index=index: fired.append(index))
        simulator.run_while(lambda: len(fired) < 3)
        assert len(fired) == 3

    def test_pending_events_count(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        cancelled = simulator.schedule_at(2.0, lambda: None)
        simulator.cancel(cancelled)
        assert simulator.pending_events() == 1

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestEntryShape:
    """Heap entries are ``[time, sequence, callback, args]`` lists compared
    in C; these pin the semantics that shape must keep."""

    def test_schedule_passes_positional_args(self):
        simulator = Simulator()
        calls = []
        simulator.schedule_at(1.0, lambda *args: calls.append(args), "a", 2)
        simulator.schedule_in(2.0, lambda *args: calls.append(args), "b")
        simulator.schedule_at(3.0, lambda *args: calls.append(args))
        simulator.run()
        assert calls == [("a", 2), ("b",), ()]

    def test_event_exposes_time_sequence_and_cancelled(self):
        simulator = Simulator()
        first = simulator.schedule_at(2.0, lambda: None)
        second = simulator.schedule_at(1.0, lambda: None)
        assert (first[0], first[1], first[2] is None) == (2.0, 0, False)
        assert (second[0], second[1]) == (1.0, 1)
        simulator.cancel(first)
        assert first[2] is None

    def test_entry_is_an_exact_list(self):
        """Exact lists keep CPython's list fast paths (unpack, subscript,
        free list) that a ``list`` subclass misses."""
        simulator = Simulator()
        assert type(simulator.schedule_at(1.0, lambda: None)) is list
        assert type(simulator.schedule_in(1.0, lambda: None)) is list

    def test_same_time_events_never_compare_callbacks(self):
        """Ordering stops at the unique sequence number, so callbacks and
        args that define no ordering (or raise on comparison) are safe."""

        class Unorderable:
            def __init__(self, fired, label):
                self.fired, self.label = fired, label

            def __call__(self, *_args):
                self.fired.append(self.label)

            def __lt__(self, other):
                raise AssertionError("callbacks must never be compared")

            __gt__ = __le__ = __ge__ = __lt__

        simulator = Simulator()
        fired = []
        for label in range(50):
            simulator.schedule_at(1.0, Unorderable(fired, label), object())
        simulator.run()
        assert fired == list(range(50))

    def test_run_until_does_not_run_past_a_cancelled_head(self):
        simulator = Simulator()
        fired = []
        simulator.cancel(simulator.schedule_at(1.0, lambda: fired.append("cancelled")))
        simulator.schedule_at(10.0, lambda: fired.append("late"))
        assert simulator.run_until(5.0) == 0
        assert fired == []
        assert simulator.now == 5.0
        assert simulator.run_until(10.0) == 1
        assert fired == ["late"]

    def test_run_until_honours_max_events_without_advancing_the_clock(self):
        simulator = Simulator()
        for index in range(5):
            simulator.schedule_at(float(index + 1), lambda: None)
        assert simulator.run_until(10.0, max_events=2) == 2
        assert simulator.now == 2.0
        assert simulator.pending_events() == 3

    def test_cancelled_events_are_not_counted(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.cancel(simulator.schedule_at(2.0, lambda: None))
        simulator.schedule_at(3.0, lambda: None)
        assert simulator.pending_events() == 2
        assert simulator.run() == 2
        assert simulator.events_processed == 2
        assert simulator.pending_events() == 0

    def test_reset_restarts_sequence_numbers(self):
        simulator = Simulator()
        for _ in range(3):
            simulator.schedule_at(1.0, lambda: None)
        simulator.run()
        simulator.reset()

        def drive(instance):
            fired = []
            events = [instance.schedule_at(1.0, fired.append, label) for label in "xyz"]
            instance.run()
            return [event[1] for event in events], fired

        assert drive(simulator) == drive(Simulator()) == ([0, 1, 2], ["x", "y", "z"])


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(0.25).sample("a", "b") == 0.25

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_bounds_and_determinism(self):
        model = UniformLatency(0.1, 0.5, seed=3)
        samples = [model.sample("a", "b") for _ in range(100)]
        assert all(0.1 <= sample <= 0.5 for sample in samples)
        replay = UniformLatency(0.1, 0.5, seed=3)
        assert [replay.sample("a", "b") for _ in range(100)] == samples

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)


class TestLatencySeeding:
    """Unseeded models must not share RNG streams (the old ``seed=0`` default
    made every construction site outside the engine replay one sequence)."""

    def test_unseeded_uniform_models_are_independent(self):
        first = UniformLatency(0.0, 1.0)
        second = UniformLatency(0.0, 1.0)
        assert [first.sample("a", "b") for _ in range(16)] != [
            second.sample("a", "b") for _ in range(16)
        ]

    def test_explicit_seeds_still_replay(self):
        assert [
            UniformLatency(0.0, 1.0, seed=9).sample("a", "b") for _ in range(8)
        ] == [UniformLatency(0.0, 1.0, seed=9).sample("a", "b") for _ in range(8)]
