"""PTPerf reproduction package.

A faithful, simulator-backed reproduction of *"PTPerf: On the
Performance Evaluation of Tor Pluggable Transports"* (IMC 2023). See
``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured comparison of every table and figure.

Quickstart::

    from repro import PTPerf

    perf = PTPerf(seed=1)
    print(perf.website_access(["tor", "obfs4", "meek"], n_sites=20))
    result = perf.run("fig2a")
    print(result.comparison())
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

__all__ = [
    "EXPERIMENTS", "ExperimentResult", "PTPerf", "Scale", "World",
    "WorldConfig", "__version__", "list_experiments", "run_experiment",
]


def __getattr__(name: str) -> Any:
    """Resolve the simulator's public names on first use (PEP 562).

    Importing a subpackage such as :mod:`repro.lint` runs this package
    first; deferring :mod:`repro.core` keeps that from loading the
    whole simulator.
    """
    if name in __all__:
        from repro import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
