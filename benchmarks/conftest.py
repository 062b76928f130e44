"""Benchmark harness configuration.

The pytest benchmarks time the HMS view path (A6) and the sweep engine's
parallel mode, printing their tables via
:func:`repro.experiments.reporting.emit_block`::

    pytest benchmarks/ --benchmark-only -s

The paper's reported results themselves are regenerated, and claim-gated,
by ``repro run <experiment>`` (see ``repro list --experiments``).
"""
