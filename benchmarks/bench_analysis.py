"""Analysis benchmark: full figure/table pipeline at scale.

Synthesizes a paper-scale result set (>= 50k download records across
13 transports, two access methods, and a realistic target panel), then
times one run of the whole statistical pipeline the report generator
needs — box plots, per-PT means, ECDF construction + evaluation, the
full paired t-test matrix, category t-tests, and reliability fractions.
"""

from __future__ import annotations

import random
import time

from repro.analysis import backend
from repro.units import seconds_to_ms
from repro.analysis.aggregate import (
    box_by_pt,
    category_ttests,
    ecdf_by_pt,
    mean_by_pt,
    reliability_by_pt,
    ttest_matrix,
)
from repro.analysis.tables import ttest_table
from repro.measure.records import (
    MeasurementRecord,
    Method,
    ResultSet,
    TargetKind,
)
from repro.web.types import Status

_SEED = 2023
_N_TARGETS = 55
_REPETITIONS = 70  # per (pt, target, method): 13 * 55 * 2 * 70 = 100,100

#: (pt, category, mean duration scale) — the paper's 12 PTs + baseline.
_PTS = (
    ("tor", "baseline", 2.3), ("obfs4", "fully encrypted", 2.4),
    ("shadowsocks", "fully encrypted", 2.9), ("conjure", "proxy layer", 2.5),
    ("snowflake", "proxy layer", 3.4), ("psiphon", "proxy layer", 3.1),
    ("meek", "proxy layer", 5.8), ("dnstt", "tunneling", 4.4),
    ("camoufler", "tunneling", 12.8), ("webtunnel", "tunneling", 3.2),
    ("cloak", "fully encrypted", 2.8), ("stegotorus", "mimicry", 6.2),
    ("marionette", "mimicry", 20.8),
)


def synthesize_records(n_targets: int = _N_TARGETS,
                       repetitions: int = _REPETITIONS) -> ResultSet:
    """A deterministic synthetic campaign shaped like Figure 2's data."""
    rng = random.Random(_SEED)
    targets = [f"site{i:03d}" for i in range(n_targets)]
    results = ResultSet()
    for pt, category, scale in _PTS:
        for method in (Method.CURL, Method.SELENIUM):
            browser_factor = 4.0 if method is Method.SELENIUM else 1.0
            for target in targets:
                site_factor = 0.6 + 0.8 * rng.random()
                for repetition in range(repetitions):
                    duration = scale * browser_factor * site_factor * \
                        rng.lognormvariate(0.0, 0.35)
                    failed = rng.random() < 0.04
                    results.append(MeasurementRecord(
                        pt=pt, category=category, target=target,
                        kind=TargetKind.WEBSITE, method=method,
                        client_city="London", server_city="Frankfurt",
                        medium="wired", duration_s=duration,
                        status=Status.FAILED if failed else Status.COMPLETE,
                        bytes_expected=1e6,
                        bytes_received=0.0 if failed else 1e6,
                        ttfb_s=None if failed else duration * 0.2,
                        speed_index_s=duration * 0.7
                        if method is Method.SELENIUM else None,
                        repetition=repetition))
    return results


def run_pipeline(results: ResultSet) -> dict:
    """Every reduction the report/table generators perform."""
    out: dict = {}
    out["box_curl"] = box_by_pt(results, method=Method.CURL)
    out["box_selenium"] = box_by_pt(results, method=Method.SELENIUM)
    out["mean_curl"] = mean_by_pt(results, method=Method.CURL)
    out["mean_si"] = mean_by_pt(results, value="speed_index_s",
                                method=Method.SELENIUM)
    out["ecdf_ttfb"] = ecdf_by_pt(results, value="ttfb_s",
                                  method=Method.CURL)
    out["ecdf_duration"] = ecdf_by_pt(results, value="duration_s",
                                      method=Method.SELENIUM)
    out["ecdf_all"] = ecdf_by_pt(results, value="duration_s")
    # Figure rendering samples each curve densely (fraction-below grid).
    grid = [0.25 * i for i in range(1, 401)]
    out["ecdf_eval"] = {pt: e.evaluate_many(grid)
                        for pt, e in out["ecdf_ttfb"].items()}
    out["ecdf_eval_all"] = {pt: e.evaluate_many(grid)
                            for pt, e in out["ecdf_all"].items()}
    out["medians"] = {pt: (e.quantile(0.5), e.quantile(0.9))
                      for pt, e in out["ecdf_duration"].items()}
    # Per-site spread (the paper averages per website before testing;
    # per-site medians/p90s drive the variability discussion).
    per_site = results.values_by("duration_s", by="target", sort=True)
    out["site_quantiles"] = {
        target: (backend.nearest_rank_quantile(vals, 0.5),
                 backend.nearest_rank_quantile(vals, 0.9))
        for target, vals in per_site.items() if vals}
    out["ttests_curl"] = ttest_matrix(results, method=Method.CURL)
    out["ttests_si"] = ttest_matrix(results, value="speed_index_s",
                                    method=Method.SELENIUM)
    out["category"] = category_ttests(results, method=Method.CURL)
    out["reliability"] = reliability_by_pt(results)
    out["table_text"] = ttest_table(out["ttests_curl"])
    return out


def test_bench_analysis_backend(benchmark):
    results = synthesize_records()
    n = len(results)
    assert n >= 50_000
    # Columnar extraction (one pass over the records) is built outside
    # the timed region, so the timing covers the reductions alone.
    results.columns()
    start = time.perf_counter()
    benchmark.pedantic(lambda: run_pipeline(results), rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    print(f"\nanalysis pipeline over {n} records "
          f"({len(_PTS)} PTs x {_N_TARGETS} targets x 2 methods): "
          f"{seconds_to_ms(elapsed):7.1f} ms")


def test_bench_analysis_matches_legacy_semantics():
    """The columnar pipeline reproduces the pre-backend per-PT loops."""
    results = synthesize_records(n_targets=8, repetitions=4)
    means = mean_by_pt(results, method=Method.CURL)
    for pt, _, _ in _PTS:
        legacy = results.filter(pt=pt, method=Method.CURL)
        per_target = {}
        for r in legacy:
            per_target.setdefault(r.target, []).append(r.duration_s)
        legacy_mean = sum(sum(v) / len(v) for v in per_target.values()) \
            / len(per_target)
        assert abs(means[pt] - legacy_mean) < 1e-9
