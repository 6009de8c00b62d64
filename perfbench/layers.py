"""Where the benchmark's wrappers go, one table per ``repro.*`` layer.

Every entry names the attribute a caller looks up: a method on the class
that defines it (overrides included), or a function in the namespace of
the module that calls it. Nothing under ``src/`` changes; the wrappers
are removed when the traced section ends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import types
from typing import Any, Callable

from spans import Tracer

from repro.units import seconds_to_ms

#: The ``repro.*`` packages the per-layer metrics are named after.
LAYERS = ("analysis", "core", "lint", "measure", "pts", "simnet", "tor",
          "web")

#: Reductions and renderers ``repro.core.experiments`` calls by name.
REDUCERS = ("box_by_pt", "category_ttests", "ecdf_by_pt", "mean_by_pt",
            "reliability_by_pt", "ttest_matrix", "paired_t_test")
RENDERERS = ("render_table", "ttest_table")

#: Program counters read from ``World.perf_summary()`` (summed through
#: ``ExperimentResult.perf`` / ``CampaignOutcome.perf_summary()``).
SIM_COUNTERS = ("events_fired", "reallocations", "flows_allocated",
                "classes_allocated", "waterfill_rounds", "warm_start_hits",
                "rounds_replayed", "coalesced_mutations")


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch_methods(tracer: Tracer, base: type, attr: str, name: str) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            tracer.patch(cls, attr, name)


class CampaignLog:
    """Counts campaign calls and the distinct campaigns among them.

    Two calls are the same campaign when they share a key of the world's
    config, its measurement counter and ``kernel.now`` at entry, the
    runner's pacing and the call's arguments.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.keys: set[str] = set()

    def wrap(self, method: str) -> Callable[[Callable], Callable]:
        def factory(fn: Callable) -> Callable:
            def wrapper(runner: Any, *args: Any, **kwargs: Any) -> Any:
                world = runner.world
                key = repr((method, world.config,
                            world._measurement_counter, world.kernel.now,
                            runner.pacing, _frozen(args),
                            _frozen(sorted(kwargs.items()))))
                self.calls += 1
                self.keys.add(hashlib.sha256(key.encode()).hexdigest())
                return fn(runner, *args, **kwargs)
            return wrapper
        return factory


def _frozen(value: Any) -> Any:
    """Lists and tuples as tuples, so equal arguments give equal keys."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def _ast_proxy(tracer: Tracer, ast_module: types.ModuleType) -> Any:
    """``ast`` as seen by the lint engine, with ``parse`` timed."""
    proxy = types.SimpleNamespace(**vars(ast_module))
    proxy.parse = tracer.timed("lint.parse", ast_module.parse)
    return proxy


def _keep_results(results: list, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        results.append(result)
        return result
    return wrapper


def install(tracer: Tracer, campaigns: CampaignLog, experiments: list,
            outcomes: list) -> None:
    """Wrap every layer boundary the per-layer metrics need.

    ``experiments`` collects the ``ExperimentResult`` of every experiment
    the report renders, ``outcomes`` every ``CampaignOutcome``; their
    ``perf`` counters are the program's own.
    """
    from repro.analysis import report
    from repro.core import experiments as exp_mod
    from repro.core import world as world_mod
    from repro.core.world import World
    from repro.measure import campaign as campaign_mod
    from repro.measure.campaign import CampaignRunner
    from repro.measure.parallel import ParallelCampaign
    from repro.measure.store import ShardedResultStore
    from repro.measure.supervise import Supervisor, UnitJournal
    from repro.pts.base import PluggableTransport
    from repro.simnet import geo, latency, rng
    from repro.simnet.fairshare import FairShareAllocator
    from repro.simnet.kernel import EventKernel
    from repro.tor.consensus import Consensus
    from repro.tor.path import PathSelector
    import repro.lint
    from repro.lint import callgraph, engine
    from repro.lint.registry import FILE_RULES, PROJECT_RULES

    patch = tracer.patch
    # analysis: the report renderer, reductions and table rendering.
    patch(report, "render_markdown", "analysis.report")
    tracer.wrap(report, "run_experiment",
                lambda fn: _keep_results(experiments, fn))
    for name in REDUCERS:
        patch(exp_mod, name, "analysis.reduce")
    for name in RENDERERS:
        patch(exp_mod, name, "analysis.render")

    # core: experiments, world construction, measurement epochs, fetches.
    patch(exp_mod, "run_experiment_seeds", "core.run_experiment_seeds")
    for eid, definition in list(exp_mod.EXPERIMENTS.items()):
        wrapped = dataclasses.replace(
            definition, fn=tracer.timed(f"core.exp.{eid}", definition.fn))
        tracer.replace_item(exp_mod.EXPERIMENTS, eid, wrapped)
    patch(World, "__init__", "core.world_build")
    patch(World, "begin_measurement", "core.begin_measurement")
    patch(World, "fetch_page_curl", "core.fetch_curl")
    patch(World, "fetch_page_browser", "core.fetch_browser")
    patch(World, "download_file", "core.download")

    # measure: campaigns (with the duplication key), fan-out machinery.
    for method in ("run_website_campaign", "run_file_campaign"):
        patch(CampaignRunner, method, "measure.campaign")
        tracer.wrap(CampaignRunner, method, campaigns.wrap(method))
    patch(ParallelCampaign, "run", "measure.parallel_run")
    tracer.wrap(ParallelCampaign, "run",
                lambda fn: _keep_results(outcomes, fn))
    patch(Supervisor, "run", "measure.supervisor")
    patch(UnitJournal, "record", "measure.journal")
    patch(ShardedResultStore, "open", "measure.merge")

    # tor: consensus, load resampling, path selection.
    patch(world_mod, "generate_consensus", "tor.consensus_build")
    patch(Consensus, "resample_all_loads", "tor.resample_loads")
    patch(PathSelector, "select", "tor.path_select")

    # pts: installation, channels, bridge load resampling.
    _patch_methods(tracer, PluggableTransport, "install", "pts.install")
    _patch_methods(tracer, PluggableTransport, "create_channel",
                   "pts.create_channel")
    _patch_methods(tracer, PluggableTransport, "resample_bridge_load",
                   "pts.resample_bridge")

    # web: catalogs and the speed index.
    for name in ("make_tranco_catalog", "make_cbl_catalog", "standard_files"):
        patch(world_mod, name, "web.catalog_build")
    patch(campaign_mod, "speed_index_of", "web.speed_index")

    # simnet: process driving, kernel runs, the allocator, hot leaves.
    patch(world_mod, "run_process", "simnet.run_process")
    patch(EventKernel, "run", "simnet.kernel_run")
    patch(FairShareAllocator, "allocate", "simnet.allocate")
    patch(geo, "great_circle_km", "simnet.great_circle_km", count_only=True)
    patch(latency, "lognormal_factor", "simnet.lognormal_factor",
          count_only=True)
    patch(rng, "lognormal_factor", "simnet.lognormal_factor",
          count_only=True)

    # lint: the engine's phases and each rule.
    patch(repro.lint, "run_lint", "lint.run")
    tracer.replace(engine, "ast", _ast_proxy(tracer, engine.ast))
    patch(callgraph.CallGraph, "build", "lint.callgraph_build")
    patch(callgraph.CallGraph, "complete_calls", "lint.callgraph_complete")
    patch(engine, "_check_file", "lint.file_rules")
    for rule in (*FILE_RULES, *PROJECT_RULES):
        method = "check" if rule in FILE_RULES else "check_project"
        patch(rule, method, f"lint.rule.{rule.rule_id}", materialize=True)


def _percentile_ms(values: list[float], percent: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return seconds_to_ms(values[0])
    return seconds_to_ms(statistics.quantiles(values, n=100)[percent - 1])


def layer_metrics(tracer: Tracer, campaigns: CampaignLog,
                  counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics one traced section measured."""
    from repro.core.experiments import EXPERIMENTS
    from repro.lint.registry import FILE_RULES, PROJECT_RULES

    s = tracer.seconds
    calls = tracer.calls
    out: dict[str, float] = {
        "core.world_build_s": s("core.world_build"),
        "core.worlds": float(calls["core.world_build"]),
        "core.begin_measurement_s": s("core.begin_measurement"),
        "core.fetch_curl_s": s("core.fetch_curl"),
        "core.fetch_browser_s": s("core.fetch_browser"),
        "core.download_s": s("core.download"),
    }
    for kind in ("curl", "browser"):
        durations = tracer.durations_s(f"core.fetch_{kind}")
        out[f"core.fetch_{kind}_p50_ms"] = _percentile_ms(durations, 50)
        out[f"core.fetch_{kind}_p99_ms"] = _percentile_ms(durations, 99)
    for eid in EXPERIMENTS:
        out[f"core.exp.{eid}_s"] = s(f"core.exp.{eid}")

    distinct = len(campaigns.keys)
    out.update({
        "measure.campaigns": float(campaigns.calls),
        "measure.campaigns_distinct": float(distinct),
        "measure.campaign_useful_ratio":
            distinct / campaigns.calls if campaigns.calls else 0.0,
        "measure.campaign_s": s("measure.campaign"),
        "measure.supervisor_s": s("measure.supervisor"),
        "measure.workers_spawned": counters.get("workers_spawned", 0.0),
        "measure.unit_retries": counters.get("unit_retries", 0.0),
        "measure.failed_units": counters.get("failed_units", 0.0),
        "measure.journal_s": s("measure.journal"),
        "measure.journal_records": float(calls["measure.journal"]),
        "measure.merge_s": s("measure.merge"),
        "tor.consensus_build_s": s("tor.consensus_build"),
        "tor.resample_loads_s": s("tor.resample_loads"),
        "tor.resample_loads_calls": float(calls["tor.resample_loads"]),
        "tor.path_select_s": s("tor.path_select"),
        "pts.install_s": s("pts.install"),
        "pts.create_channel_s": s("pts.create_channel"),
        "pts.resample_bridge_s": s("pts.resample_bridge"),
        "web.catalog_build_s": s("web.catalog_build"),
        "web.speed_index_s": s("web.speed_index"),
        "simnet.run_process_s": s("simnet.run_process"),
        "simnet.run_process_calls": float(calls["simnet.run_process"]),
        "simnet.kernel_run_s": s("simnet.kernel_run"),
        "simnet.allocate_s": s("simnet.allocate"),
        "simnet.allocate_calls": float(calls["simnet.allocate"]),
        "simnet.great_circle_km_calls":
            float(calls["simnet.great_circle_km"]),
        "simnet.lognormal_factor_calls":
            float(calls["simnet.lognormal_factor"]),
        "analysis.reduce_s": s("analysis.reduce"),
        "analysis.render_s": s("analysis.render"),
        "lint.parse_s": s("lint.parse"),
        "lint.callgraph_build_s": s("lint.callgraph_build"),
        "lint.callgraph_complete_s": s("lint.callgraph_complete"),
        "lint.file_rules_s": s("lint.file_rules"),
        "lint.project_rules_s": sum(
            s(f"lint.rule.{rule.rule_id}") for rule in PROJECT_RULES),
    })
    for name in SIM_COUNTERS:
        out[f"simnet.{name}"] = counters.get(name, 0.0)
    simulating_s = out["simnet.run_process_s"] + out["simnet.kernel_run_s"]
    out["simnet.events_per_s"] = (out["simnet.events_fired"] / simulating_s
                                  if simulating_s else 0.0)
    for rule in (*FILE_RULES, *PROJECT_RULES):
        out[f"lint.rule.{rule.rule_id}_s"] = s(f"lint.rule.{rule.rule_id}")
    return out


def metric_names() -> list[str]:
    """Every per-layer metric name, in reporting order."""
    tracer = Tracer()
    names = list(layer_metrics(tracer, CampaignLog(), {}))
    names += ["measure.fanout_efficiency", "lint.warm_s", "lint.files",
              "lint.findings", "lint.cache_hits", "lint.cache_misses"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.overhead_ratio", "trace.coverage_ratio"]
    return names
