"""Simulator.reset(): a reused event loop must be indistinguishable from a
fresh one (the warm-sweep-worker contract)."""

from repro.net.sim import Simulator


def drive(simulator: Simulator):
    """Schedule a deterministic tangle of events and record firing order."""
    fired = []
    simulator.schedule_in(2.0, lambda: fired.append("late"))
    simulator.schedule_in(1.0, lambda: fired.append("early"))
    tie_a = simulator.schedule_in(1.5, lambda: fired.append("tie-a"))
    simulator.schedule_in(1.5, lambda: fired.append("tie-b"))
    cancelled = simulator.schedule_in(1.7, lambda: fired.append("cancelled"))
    simulator.cancel(cancelled)
    simulator.run()
    return fired, simulator.now, simulator.events_processed, tie_a[1]


class TestReset:
    def test_reset_restores_constructed_state(self):
        simulator = Simulator()
        simulator.schedule_in(5.0, lambda: None)
        simulator.run()
        simulator.schedule_in(1.0, lambda: None)  # leave one pending
        simulator.reset()
        assert simulator.now == 0.0
        assert simulator.pending_events() == 0
        assert simulator.events_processed == 0

    def test_reset_run_matches_fresh_run(self):
        fresh = drive(Simulator())
        reused_simulator = Simulator()
        drive(reused_simulator)  # dirty it thoroughly
        reused_simulator.reset()
        reused = drive(reused_simulator)
        assert reused == fresh, "order, clock, counters, and sequences must match"

    def test_reset_to_start_time(self):
        simulator = Simulator()
        simulator.schedule_in(1.0, lambda: None)
        simulator.run()
        simulator.reset(start_time=10.0)
        assert simulator.now == 10.0
