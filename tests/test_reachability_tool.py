"""``tools/reachability.py``'s reason gates, on synthetic classifications
(the census itself runs the whole suite, so it is not run here)."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reachability = load_tool()
Function = reachability.Function


def classes_keeping(kept_b=(), kept_c=(), reached=("net/network.py",)):
    """A classification with one function per named module in each class."""
    return {
        "a": [Function(module, "reached", 1, 1) for module in reached],
        "b": [Function(module, "tests_only", 2, 1) for module in kept_b],
        "c": [Function(module, "unreached", 3, 1) for module in kept_c],
    }


def test_every_reason_row_is_live_when_each_module_keeps_something():
    rows = sorted(reachability.KEPT_BECAUSE)
    half = len(rows) // 2
    classes = classes_keeping(kept_b=rows[:half], kept_c=rows[half:])
    assert reachability.stale_reasons(classes) == []
    assert reachability.unexplained_modules(classes) == []


def test_a_row_whose_module_keeps_nothing_is_stale():
    rows = sorted(reachability.KEPT_BECAUSE)
    classes = classes_keeping(kept_b=rows[1:])
    assert reachability.stale_reasons(classes) == [rows[0]]
    assert reachability.unexplained_modules(classes) == []


def test_a_module_keeping_functions_without_a_row_is_unexplained():
    rows = sorted(reachability.KEPT_BECAUSE)
    classes = classes_keeping(kept_b=rows, kept_c=["net/unlisted.py"])
    assert reachability.unexplained_modules(classes) == ["net/unlisted.py"]
    assert reachability.stale_reasons(classes) == []
