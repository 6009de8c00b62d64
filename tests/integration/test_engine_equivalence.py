"""The optimized allocation engine must not change experiment results.

Acceptance criterion for the incremental fair-share engine: at a fixed
seed, every ``run_experiment`` output dict is unchanged versus the
reference water-filling path. Campaign flows overwhelmingly have weight
1.0 and reuse circuit paths, so class aggregation is float-exact and the
two engines produce bit-identical rate vectors end-to-end. fig2b is the
case where classes collapse (about 1.65 flows per class at tiny scale);
the others run one flow per class.
"""

import pytest

from repro.core.config import Scale
from repro.core.experiments import run_experiment
from repro.simnet.fairshare import use_engine


@pytest.mark.parametrize("experiment_id", ["fig2a", "fig2b", "fig10b",
                                           "fig5"])
def test_experiment_metrics_identical_across_engines(experiment_id):
    with use_engine("reference"):
        reference = run_experiment(experiment_id, seed=11, scale=Scale.tiny())
    optimized = run_experiment(experiment_id, seed=11, scale=Scale.tiny())
    assert optimized.metrics == reference.metrics
    assert optimized.text == reference.text


def test_optimized_engine_is_the_default_for_worlds():
    from repro.core.config import WorldConfig
    from repro.core.world import World
    from repro.simnet.fairshare import current_engine

    assert current_engine() == "optimized"
    world = World(WorldConfig(seed=3, transports=("tor",), tranco_size=2,
                              cbl_size=2))
    page = world.tranco[0]
    result = world.fetch_page_curl("tor", page)
    assert result.duration_s > 0
    summary = world.perf_summary()
    assert summary["reallocations"] > 0
    assert summary["flows_per_class"] >= 1.0
    assert summary["events_fired"] > 0
