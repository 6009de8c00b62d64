"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/baseline.json
    python3 perfbench/record.py --workloads lint --seeds 1-5 --trace 1

Each (workload, seed) is one ``run.py`` process, run one after another.
For every metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. ``--out`` writes the
summary, with every run's raw values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            # Host seconds and pass counts, as run.py prints them.
            result["log"] = [line for line in proc.stderr.splitlines()
                             if line.startswith("perfbench: ")]
            runs.append(result)
            values = {name: round(m["value"], 4)
                      for name, m in result["metrics"].items()
                      if name in ("wall_ref_s", "setup_s", "peak_rss_mb")}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"{values}", flush=True)
        names = list(runs[0]["metrics"])
        summary[workload] = {
            "metrics": {name: summarise([r["metrics"][name]["value"]
                                         for r in runs])
                        for name in names},
            "runs": runs,
        }
        for name in names:
            stats = summary[workload]["metrics"][name]
            if args.trace == 0:
                print(f"  {workload:12s} {name:14s} median={stats['median']:.4f}"
                      f" spread={stats['spread']:.3f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
