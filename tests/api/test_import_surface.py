"""``import repro.api`` loads the registered experiments and nothing of the
per-experiment config/runner layer they replaced."""

import subprocess
import sys


def test_api_import_loads_no_legacy_experiment_layer():
    probe = (
        "import sys, repro.api; "
        "loaded = sorted(name for name in sys.modules "
        "if name == 'repro.analysis' or name.startswith('repro.analysis.') "
        "or name == 'repro.experiments.runner'); "
        "assert 'repro.experiments.figure2' in sys.modules; "
        "print(loaded)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
