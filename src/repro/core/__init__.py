"""Core: world construction, experiment registry, and the PTPerf facade.

The public names resolve on first use (PEP 562): :mod:`repro.measure`
imports :mod:`repro.core.world`, and an eager import of the experiment
registry here would close an import cycle through :mod:`repro.analysis`
back into :mod:`repro.measure`.
"""

from __future__ import annotations

import importlib
from typing import Any

_HOMES = {
    "EXPERIMENTS": "experiments",
    "ExperimentDef": "experiments",
    "ExperimentResult": "experiments",
    "PTPerf": "ptperf",
    "Scale": "config",
    "World": "world",
    "WorldConfig": "config",
    "list_experiments": "experiments",
    "run_experiment": "experiments",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
