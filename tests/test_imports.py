"""What importing an entry point loads, checked in fresh interpreters.

``repro/__init__`` and ``repro/core/__init__`` resolve their public
names on first use, so a narrow entry point (the lint gate, the CLI,
the report) loads only what it needs, and no module under ``src/``
imports numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBES = ("repro.core", "repro.core.experiments", "numpy")


def _loaded_after(module: str) -> dict[str, bool]:
    """Which of ``_PROBES`` are in ``sys.modules`` after one import."""
    code = (f"import json, sys\nimport {module}\n"
            f"print(json.dumps({{m: m in sys.modules for m in {_PROBES!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_lint_import_leaves_the_simulator_unloaded():
    loaded = _loaded_after("repro.lint")
    assert not loaded["repro.core"]
    assert not loaded["numpy"]


@pytest.mark.parametrize("module", ["repro.__main__", "repro.analysis.report"])
def test_cli_and_report_imports_leave_numpy_unloaded(module):
    loaded = _loaded_after(module)
    assert loaded["repro.core.experiments"]
    assert not loaded["numpy"]


@pytest.mark.parametrize("module", ["repro.analysis", "repro.measure.records",
                                    "repro.measure.parallel"])
def test_entry_modules_import_on_their_own(module):
    """No import cycle depends on ``repro.core`` being loaded first."""
    _loaded_after(module)


def test_package_names_resolve_lazily():
    import repro
    import repro.core
    from repro.core.experiments import run_experiment
    from repro.core.ptperf import PTPerf

    assert repro.PTPerf is PTPerf
    assert repro.core.run_experiment is run_experiment
    assert repro.__version__ == "1.0.0"
    assert set(repro.__all__) - {"__version__"} <= set(repro.core.__all__)
    with pytest.raises(AttributeError):
        getattr(repro, "no_such_name")
    with pytest.raises(AttributeError):
        getattr(repro.core, "no_such_name")
