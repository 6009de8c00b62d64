"""The three workloads: inputs from a seed, a timed section, a check.

Each workload runs its timed section in this process, repeating it while
another repetition still fits in the run's measuring time (at least
once), and reports the median of the repetitions' times at reference
host speed (``calibrate.py``). ``setup_s`` is measured separately, in
fresh interpreters (see ``run.py``). A traced run times the section once
untraced and once with every layer wrapped (``layers.py``), checks that
both produce the same output, and reports the per-layer numbers of the
traced pass, in plain wall seconds.

Failure accounting counts the workload's own operations: experiments
(``pipeline``), work units (``seed_fanout``) and lint runs (``lint``).
A simulated fetch that ends ``PARTIAL`` or ``FAILED`` (meek, dnstt and
snowflake do, by design) is model output, not a failed operation.
"""

from __future__ import annotations

import hashlib
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers
import lintcorpus
from calibrate import Sampler, Window
from spans import Tracer

#: The experiment, scale and worker count ``seed_fanout`` fans out.
FANOUT_EXPERIMENT = "fig2a"
FANOUT_SEEDS = 16
FANOUT_WORKERS = 2


@dataclass
class Outcome:
    """Operations attempted and failed, and why, for one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, weight: int, problem: str) -> None:
        """Count ``weight`` operations; all of them fail unless ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(problem)


def peak_rss_mb(sampler: Sampler) -> float:
    """Peak RSS of this process or of its largest waited-for child.

    Without the sampler's working set, which both carry (workers are
    forked from this process).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0 - sampler.footprint_mb


def repeat(seconds: float, sampler: Sampler,
           body: Callable[[], Window]) -> tuple[list[float], float]:
    """Repeat ``body`` (which returns its timed section) within ``seconds``.

    A repetition starts only if a section as long as the last still ends
    in time; there is always at least one. Returns the sections' times
    at reference speed and the peak RSS after the first repetition:
    later repetitions inherit the heap the first one grew, so the
    high-water mark of a run would depend on how many fit in it.
    """
    start = time.perf_counter()
    windows: list[Window] = []
    rss = 0.0
    while (not windows or
           time.perf_counter() - start + windows[-1].wall <= seconds):
        windows.append(body())
        if len(windows) == 1:
            rss = peak_rss_mb(sampler)
    shown = [(round(w.seconds, 4), round(w.host_seconds, 4), len(w.passes))
             for w in windows]
    print(f"perfbench: repetitions (reference s, host s, passes) {shown}",
          file=sys.stderr)
    return [w.seconds for w in windows], rss


def digest_lines(lines: Any) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


class Probe:
    """A tracer plus the program results collected while it is installed."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.campaigns = layers.CampaignLog()
        self.experiments: list[Any] = []
        self.outcomes: list[Any] = []

    def __enter__(self) -> "Probe":
        layers.install(self.tracer, self.campaigns, self.experiments,
                       self.outcomes)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.restore()

    def metrics(self, perfs: list[dict]) -> dict[str, float]:
        """Per-layer metrics, with program counters summed over ``perfs``."""
        counters: dict[str, float] = {}
        for perf in perfs:
            for key, value in perf.items():
                counters[key] = counters.get(key, 0.0) + float(value)
        return layers.layer_metrics(self.tracer, self.campaigns, counters)


def trace_summary(parts: list[tuple[Probe, float]],
                  untraced_s: float, traced_s: float) -> dict[str, float]:
    """Self time per layer, span coverage and tracing overhead.

    ``parts`` pairs each probe with the traced wall time it covered;
    coverage is the summed self time over that wall time.
    """
    self_s = dict.fromkeys(layers.LAYERS, 0.0)
    for probe, _ in parts:
        for layer, seconds in probe.tracer.layer_self_s().items():
            self_s[layer] += seconds
    wall = sum(seconds for _, seconds in parts)
    out = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    out["trace.coverage_ratio"] = sum(self_s.values()) / wall
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


# ---------------------------------------------------------------------------
# pipeline: the 23-experiment report at the EXPERIMENTS.md scale
# ---------------------------------------------------------------------------


def report_sections(text: str) -> dict[str, str]:
    """The report split into its per-experiment sections, by id."""
    sections: dict[str, str] = {}
    for chunk in text.split("\n## ")[1:]:
        marker = chunk.find("Experiment id: `")
        if marker >= 0:
            eid = chunk[marker + 16:chunk.index("`", marker + 16)]
            sections[eid] = chunk
    return sections


class Pipeline:
    """Regenerates the committed report, EXPERIMENTS.md, in one process.

    The report seed is EXPERIMENTS.md's own, 2023. What a render costs
    varies by roughly 13 % (one standard deviation) from one report seed to
    another, which alone spreads a ten-seed sample about as wide as the
    largest bound the benchmark may set. The workload seed picks the
    experiment that is re-run on its own after the render, as the check
    that a repeat gives the same answer.
    """

    name = "pipeline"
    setup_code = "import repro.analysis.report"
    report_seed = 2023
    #: The EXPERIMENTS.md scale (``render_markdown``'s default).
    scale = dict(n_sites=40, site_repetitions=2, file_attempts=8,
                 fixed_circuit_iterations=30)

    def __init__(self, seed: int, workdir: Path, root: Path,
                 sampler: Sampler) -> None:
        from repro.core.experiments import EXPERIMENTS
        self.sampler = sampler
        self.ids = list(EXPERIMENTS)
        self.spot_check = random.Random(seed).choice(self.ids)
        self.expected_text = (root / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        self.expected = report_sections(self.expected_text)
        self.outcome = Outcome()
        self.text = ""

    def _render(self) -> Window:
        """One render, checked experiment by experiment; its timing."""
        from repro.analysis import report
        try:
            with self.sampler as window:
                text = report.render_markdown(self.report_seed)
        except Exception as exc:  # a raising experiment aborts the render
            self.outcome.check(False, len(self.ids), f"render raised {exc!r}")
            return window
        self.text = self.text or text
        sections = report_sections(text)
        ordered = list(sections) == self.ids
        for eid in self.ids:
            self.outcome.check(
                ordered and sections.get(eid) == self.expected.get(eid), 1,
                f"{eid}: section missing, out of order or not as in "
                "EXPERIMENTS.md")
        self.outcome.check(text == self.expected_text, 1,
                           "report is not byte-identical to EXPERIMENTS.md")
        return window

    def _spot_check(self) -> None:
        from repro.core.config import Scale
        from repro.core.experiments import run_experiment
        again = run_experiment(self.spot_check, seed=self.report_seed,
                               scale=Scale(**self.scale))
        block = ("```\n" + again.comparison() + "\n```\n\n"
                 "### Regenerated output\n```\n" + again.text + "\n```\n")
        self.outcome.check(block in self.text, 1,
                           f"{self.spot_check} re-run differs from report")

    def measure(self, seconds: float) -> dict[str, float]:
        times, rss = repeat(seconds, self.sampler, self._render)
        self._spot_check()
        return {"wall_ref_s": statistics.median(times), "peak_rss_mb": rss}

    def trace(self) -> tuple[dict[str, float], list[Probe]]:
        untraced_s = self._render().seconds
        with Probe() as probe:
            traced_s = self._render().seconds
        out = probe.metrics([r.perf for r in probe.experiments])
        out.update(trace_summary([(probe, traced_s)], untraced_s, traced_s))
        return out, [probe]


# ---------------------------------------------------------------------------
# seed_fanout: run_experiment_seeds across worker processes, spooled
# ---------------------------------------------------------------------------


class SeedFanout:
    name = "seed_fanout"
    setup_code = ("import repro.__main__\n"
                  "from repro.core.experiments import run_experiment_seeds")

    def __init__(self, seed: int, workdir: Path, root: Path,
                 sampler: Sampler) -> None:
        self.sampler = sampler
        self.seeds = random.Random(seed).sample(range(1, 1_000_000),
                                                FANOUT_SEEDS)
        self.workdir = workdir
        self.outcome = Outcome()
        self.digests: list[str] = []
        self._spools = 0
        self.spool = workdir
        self.spool_failed = False

    def _fanout(self) -> Window:
        """One spooled fan-out, checked afterwards; its timing."""
        from repro.core import experiments
        from repro.core.config import Scale
        from repro.errors import UnitsExhaustedError

        self._spools += 1
        self.spool = self.workdir / f"spool-{self._spools}"
        try:
            with self.sampler.in_workers(self.workdir / f"passes-{self._spools}",
                                         FANOUT_WORKERS) as window:
                experiments.run_experiment_seeds(
                    FANOUT_EXPERIMENT, self.seeds, scale=Scale.small(),
                    workers=FANOUT_WORKERS, spool_dir=self.spool)
        except UnitsExhaustedError as exc:
            self.outcome.check(False, len(self.seeds), str(exc))
            self.spool_failed = True
        else:
            self.spool_failed = False
        return window

    def _collect(self) -> None:
        """Digest the last fan-out's merged store, then delete the spool."""
        from repro.measure import io as measure_io
        from repro.measure.parallel import MERGED_SUBDIR
        from repro.measure.store import ShardedResultStore

        if not self.spool_failed:
            store = ShardedResultStore.open(self.spool / MERGED_SUBDIR)
            self.digests.append(digest_lines(measure_io.row_lines(store)))
        shutil.rmtree(self.spool)

    def _timed_fanout(self) -> Window:
        window = self._fanout()
        self._collect()
        return window

    def _reference(self) -> float:
        """The same seeds in process (workers=1, no spool), then the check."""
        from repro.core import experiments
        from repro.core.config import Scale
        from repro.errors import UnitsExhaustedError
        from repro.measure import io as measure_io

        start = time.perf_counter()
        try:
            results = experiments.run_experiment_seeds(
                FANOUT_EXPERIMENT, self.seeds, scale=Scale.small(), workers=1)
        except UnitsExhaustedError as exc:
            self.outcome.check(False, len(self.seeds), str(exc))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        ordered = sorted(zip(self.seeds, results), key=lambda pair: pair[0])
        reference = digest_lines(
            line for _, result in ordered if result.results is not None
            for line in measure_io.row_lines(result.results))
        self.outcome.check(bool(ordered), len(self.seeds),
                           "in-process run returned nothing")
        for digest in self.digests:
            self.outcome.check(digest == reference, len(self.seeds),
                               "merged store differs from the in-process run")
        return wall

    def measure(self, seconds: float) -> dict[str, float]:
        times, rss = repeat(seconds, self.sampler, self._timed_fanout)
        self._reference()
        return {"wall_ref_s": statistics.median(times), "peak_rss_mb": rss}

    def trace(self) -> tuple[dict[str, float], list[Probe]]:
        untraced_s = self._timed_fanout().seconds
        with Probe() as fanout:
            traced_s = self._fanout().seconds
        self._collect()
        with Probe() as inproc:
            ref_s = self._reference()
        # The fan-out's own machinery comes from the spooled pass; what
        # the units compute (core, tor, pts, simnet) from the in-process
        # pass, where it runs in this process and can be traced.
        fan = fanout.metrics([o.perf_summary() for o in fanout.outcomes])
        out = inproc.metrics([o.perf_summary() for o in inproc.outcomes])
        for key in ("measure.supervisor_s", "measure.workers_spawned",
                    "measure.unit_retries", "measure.failed_units",
                    "measure.journal_s", "measure.journal_records",
                    "measure.merge_s"):
            out[key] = fan[key]
        unit_s = inproc.tracer.seconds(f"core.exp.{FANOUT_EXPERIMENT}")
        out["measure.fanout_efficiency"] = unit_s / (FANOUT_WORKERS
                                                     * traced_s)
        out.update(trace_summary([(fanout, traced_s), (inproc, ref_s)],
                                 untraced_s, traced_s))
        return out, [fanout, inproc]


# ---------------------------------------------------------------------------
# lint: replint over a generated corpus, cold and then warm after an edit
# ---------------------------------------------------------------------------


class Lint:
    name = "lint"

    def __init__(self, seed: int, workdir: Path, root: Path,
                 sampler: Sampler) -> None:
        self.sampler = sampler
        self.corpus = lintcorpus.generate(workdir / "corpus", seed)
        self.cache = workdir / "replint-cache.json"
        self.config = self.corpus.root / "pyproject.toml"
        self.setup_code = (
            "from pathlib import Path\n"
            "import repro.lint\n"
            f"repro.lint.load_policy(Path({str(self.config)!r}))")
        self.outcome = Outcome()
        self.stats: dict[str, float] = {}
        self.first_cold: Any = None

    def _locations(self, diagnostics: Any) -> set[tuple[str, int]]:
        root = self.corpus.root.resolve()
        return {(Path(d.path).resolve().relative_to(root).as_posix(), d.line)
                for d in diagnostics}

    def _lint(self) -> tuple[Window, Any]:
        import repro.lint
        policy = repro.lint.load_policy(self.config)
        try:
            with self.sampler as window:
                result = repro.lint.run_lint([self.corpus.root / "src"],
                                             policy, cache_path=self.cache)
        except Exception as exc:  # a crashed lint run is a failed run
            self.outcome.problems.append(f"lint raised {exc!r}")
            result = None
        return window, result

    def _cold_and_warm(self) -> tuple[Window, Window]:
        """Cold run into a fresh cache, edit the leaf, warm run."""
        self.cache.unlink(missing_ok=True)
        lintcorpus.restore_leaf(self.corpus)
        cold_window, cold = self._lint()
        found = set() if cold is None else self._locations(cold.diagnostics)
        expected = self.corpus.expected
        if self.first_cold is None and cold is not None:
            self.first_cold = cold.diagnostics
        self.outcome.check(
            found == expected and cold.diagnostics == self.first_cold, 1,
            f"cold run: missing {sorted(expected - found)}, "
            f"unexpected {sorted(found - expected)}, or not as the first")
        lintcorpus.edit_leaf(self.corpus)
        warm_window, warm = self._lint()
        self.outcome.check(
            cold is not None and warm is not None
            and warm.diagnostics == cold.diagnostics, 1,
            "warm run reports different diagnostics from the cold run")
        lintcorpus.restore_leaf(self.corpus)
        if cold is not None and warm is not None:
            self.stats = {"lint.files": float(cold.stats.files),
                          "lint.findings": float(len(cold.diagnostics)),
                          "lint.cache_hits": float(warm.stats.cache_hits),
                          "lint.cache_misses": float(warm.stats.cache_misses)}
        return cold_window, warm_window

    def _cold(self) -> Window:
        """A further cold run, checked against the first."""
        self.cache.unlink(missing_ok=True)
        window, cold = self._lint()
        self.outcome.check(
            cold is not None and cold.diagnostics == self.first_cold, 1,
            "cold run reports different diagnostics from the first")
        return window

    def measure(self, seconds: float) -> dict[str, float]:
        # The warm run is checked once; later repetitions are cold only.
        bodies = iter([lambda: self._cold_and_warm()[0]])
        times, rss = repeat(seconds, self.sampler,
                            lambda: next(bodies, self._cold)())
        return {"wall_ref_s": statistics.median(times), "peak_rss_mb": rss}

    def trace(self) -> tuple[dict[str, float], list[Probe]]:
        untraced, untraced_warm = self._cold_and_warm()
        with Probe() as probe:
            traced, traced_warm = self._cold_and_warm()
        untraced_s, traced_s = untraced.seconds, traced.seconds
        out = probe.metrics([])
        out.update(self.stats)
        out["lint.warm_s"] = untraced_warm.seconds
        out.update(trace_summary([(probe, traced_s + traced_warm.seconds)],
                                 untraced_s, traced_s))
        return out, [probe]


WORKLOADS = {cls.name: cls for cls in (Pipeline, SeedFanout, Lint)}
