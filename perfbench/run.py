"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 2023 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lint --seed 7 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics (``wall_ref_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports every per-layer
metric and writes the run's spans to ``.perfbench/traces/``. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_REPEATS = 5
#: Seconds each of them then spends measuring the host's speed.
SETUP_PROBE_S = 0.4
#: Appended to the set-up code: the moment the entry point became
#: callable (``perf_counter`` is the system-wide monotonic clock, so the
#: parent can compare it), then the host's speed right after.
SETUP_PROBE = f"""
import time as _time
_ready = _time.perf_counter()
import sys as _sys
_sys.path.append({str(HERE)!r})
import calibrate as _calibrate
print(_ready, _calibrate.probe({SETUP_PROBE_S}))
"""


def setup_seconds(code: str) -> float:
    """Median seconds, at reference speed, from a fresh interpreter to a
    callable entry point."""
    from calibrate import REFERENCE_PROBE_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, host = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code + SETUP_PROBE],
                               cwd=ROOT, env=env, check=True,
                               capture_output=True, text=True)
        ready, probe_s = map(float, child.stdout.split()[-2:])
        host.append(ready - start)
        times.append((ready - start) * REFERENCE_PROBE_S / probe_s)
    print(f"perfbench: set-up (reference s, host s) "
          f"{[(round(t, 4), round(h, 4)) for t, h in zip(times, host)]}",
          file=sys.stderr)
    return statistics.median(times)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    from calibrate import Sampler

    # Built before the program is imported, so that gc.freeze() in it
    # leaves the program's own objects to the collector.
    sampler = Sampler(active=not args.trace)
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ROOT,
                                            sampler)
        if args.trace:
            measured, probes = workload.trace()
            metrics = {name: measured.get(name, 0.0)
                       for name in layers.metric_names()}
            for index, probe in enumerate(probes):
                probe.tracer.write(
                    OUT / "traces" /
                    f"{args.workload}-{args.seed}-{index}.jsonl.gz",
                    {"workload": args.workload, "seed": args.seed,
                     "metrics": metrics})
        else:
            metrics = workload.measure(args.seconds)
            metrics["setup_s"] = setup_seconds(workload.setup_code)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = workload.outcome
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
