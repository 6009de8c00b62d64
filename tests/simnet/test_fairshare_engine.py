"""Equivalence and invariant tests for the incremental fair-share engine.

The optimized engine (flow-class collapsing + incremental aggregates +
share-ordered heap) must produce the same rate vector as the reference
water-filling loop, up to float round-off, on any flow population.

Equality is *exact* on star topologies with single-flow classes and
dyadic weights: there every per-resource weight sum is float-exact and
every residual receives at most one charge per round, so both engines
execute the same operations on the same operands (this is the campaign
shape — one access link per circuit, a shared bridge/backbone).

Network-level: per-flow ``bytes_done`` is materialized lazily from the
class service accumulators; both engines share that algebra, so with
equal rate vectors the materialized byte counts are bit-identical too.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simnet.fairshare import (
    FairShareAllocator,
    compute_fair_rates,
    compute_fair_rates_optimized,
    compute_fair_rates_reference,
    current_engine,
    set_engine,
    use_engine,
)
from repro.simnet.flow import Flow
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource
from repro.simnet.rng import substream

REL_TOL = 1e-9

#: Weights whose sums/differences are exact in binary floating point for
#: any realistic population size, keeping incremental aggregate
#: maintenance float-exact (the bit-identity tests rely on this).
DYADIC_WEIGHTS = (0.5, 1.0, 1.0, 2.0, 4.0)


def assert_rate_vectors_match(flows, reference, optimized):
    assert set(reference) == set(optimized) == set(flows)
    for flow in flows:
        assert optimized[flow] == pytest.approx(reference[flow],
                                                rel=REL_TOL, abs=1e-9), flow


def random_scenario(rng: random.Random, *, n_res: int, n_flows: int,
                    n_signatures: int):
    """Random resources + flows drawn from a limited signature pool.

    A small signature pool mirrors real campaigns (many flows share the
    same circuit path and weight) and exercises class collapsing.
    """
    resources = [Resource(f"r{i}", capacity_bps=rng.uniform(10.0, 1e6),
                          background_load=rng.choice([0.0, rng.uniform(0, 10)]))
                 for i in range(n_res)]
    signatures = []
    for _ in range(n_signatures):
        k = rng.randint(1, n_res)
        path = tuple(rng.sample(resources, k))
        weight = rng.choice([1.0, 1.0, 2.0, rng.uniform(0.1, 5.0)])
        signatures.append((path, weight))
    flows = []
    for _ in range(n_flows):
        path, weight = rng.choice(signatures)
        flows.append(Flow(path, rng.uniform(1.0, 1e7), weight=weight))
    return resources, flows


@pytest.mark.parametrize("seed", range(25))
def test_engines_agree_on_randomized_collapsible_flow_sets(seed):
    rng = random.Random(seed)
    resources, flows = random_scenario(
        rng, n_res=rng.randint(1, 8), n_flows=rng.randint(1, 60),
        n_signatures=rng.randint(1, 6))
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates_optimized(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@pytest.mark.parametrize("seed", range(25, 40))
def test_engines_agree_when_every_flow_is_unique(seed):
    """No collapsing opportunity: every flow its own class."""
    rng = random.Random(seed)
    resources, flows = random_scenario(
        rng, n_res=rng.randint(2, 6), n_flows=20, n_signatures=40)
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates_optimized(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@st.composite
def flow_scenarios(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    resources = [
        Resource(f"r{i}",
                 capacity_bps=draw(st.floats(min_value=10.0, max_value=1e6)),
                 background_load=draw(st.floats(min_value=0.0, max_value=10.0)))
        for i in range(n_res)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        k = draw(st.integers(min_value=1, max_value=n_res))
        idx = draw(st.permutations(range(n_res)))
        path = tuple(resources[i] for i in idx[:k])
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        flows.append(Flow(path, draw(st.floats(min_value=1.0, max_value=1e7)),
                          weight=weight))
    return resources, flows


@given(flow_scenarios())
@settings(max_examples=120, deadline=None)
def test_property_engines_equivalent(scenario):
    _, flows = scenario
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates_optimized(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@given(flow_scenarios())
@settings(max_examples=120, deadline=None)
def test_property_no_resource_oversubscribed_optimized(scenario):
    resources, flows = scenario
    rates = compute_fair_rates_optimized(flows)
    for res in resources:
        used = sum(rate for flow, rate in rates.items() if res in flow.path)
        assert used <= res.capacity_bps * (1 + 1e-9) + 1e-6


@given(flow_scenarios())
@settings(max_examples=80, deadline=None)
def test_property_work_conserving_at_bottleneck_optimized(scenario):
    """Every flow is frozen at some saturated resource: it could not go
    faster without taking capacity from an equal-or-slower competitor."""
    resources, flows = scenario
    rates = compute_fair_rates_optimized(flows)
    leftover = {}
    for res in resources:
        used = sum(rate for flow, rate in rates.items() if res in flow.path)
        leftover[res] = res.capacity_bps - used
    for flow in flows:
        share = rates[flow] / flow.weight
        bottlenecked = any(
            leftover[res] <= share * res.background_load + res.capacity_bps * 1e-6
            for res in flow.path)
        assert bottlenecked, f"flow {flow} has no saturated bottleneck"


def test_identical_signature_flows_get_identical_rates():
    r1, r2 = Resource("a", 1000.0), Resource("b", 5000.0)
    flows = [Flow((r1, r2), 1e6, weight=2.0) for _ in range(50)]
    rates = compute_fair_rates_optimized(flows)
    values = set(rates.values())
    assert len(values) == 1
    assert values.pop() == pytest.approx(1000.0 / 50)


def test_duplicate_resource_in_path_charged_per_occurrence():
    """A path crossing one resource twice pays its rate twice there."""
    r = Resource("loop", 1000.0)
    f1 = Flow((r, r), 1e6)
    f2 = Flow((r,), 1e6)
    reference = compute_fair_rates_reference([f1, f2])
    optimized = compute_fair_rates_optimized([f1, f2])
    assert_rate_vectors_match([f1, f2], reference, optimized)


def test_counters_report_collapsing():
    r = Resource("r", 1000.0)
    flows = [Flow((r,), 1e6) for _ in range(40)]
    counters = PerfCounters()
    compute_fair_rates_optimized(flows, counters=counters)
    assert counters.reallocations == 1
    assert counters.flows_allocated == 40
    assert counters.classes_allocated == 1
    assert counters.flows_per_class == pytest.approx(40.0)
    assert counters.waterfill_rounds == 1


def test_engine_switch_roundtrip():
    assert current_engine() == "optimized"
    with use_engine("reference"):
        assert current_engine() == "reference"
        r = Resource("r", 100.0)
        f = Flow((r,), 10.0)
        assert compute_fair_rates([f])[f] == pytest.approx(100.0)
    assert current_engine() == "optimized"
    with pytest.raises(ConfigError):
        set_engine("no-such-engine")


def test_empty_and_inactive_inputs():
    assert compute_fair_rates_optimized([]) == {}
    r = Resource("r", 100.0)
    f1, f2 = Flow((r,), 10.0), Flow((r,), 10.0)
    from repro.simnet.flow import FlowState
    f2.state = FlowState.COMPLETED
    rates = compute_fair_rates_optimized([f1, f2])
    assert set(rates) == {f1}
    assert rates[f1] == pytest.approx(100.0)


# -- persistent allocator under churn ------------------------------------


def _rates_by_key(alloc: FairShareAllocator) -> dict:
    return {cls.key: cls.rate for cls in alloc.classes()}


@st.composite
def churn_scripts(draw):
    """A resource pool, a signature pool, and a churn op sequence."""
    n_res = draw(st.integers(min_value=2, max_value=6))
    # A small capacity alphabet makes share ties frequent.
    caps = draw(st.lists(st.sampled_from(
        [100.0, 200.0, 200.0, 400.0, 1000.0]),
        min_size=n_res, max_size=n_res))
    n_sig = draw(st.integers(min_value=1, max_value=5))
    sig_specs = []
    for _ in range(n_sig):
        k = draw(st.integers(min_value=1, max_value=n_res))
        idx = draw(st.permutations(range(n_res)))
        weight = draw(st.sampled_from(DYADIC_WEIGHTS))
        sig_specs.append((tuple(idx[:k]), weight))
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["join", "join", "join", "leave",
                                     "load"]))
        if kind == "join":
            ops.append(("join", draw(st.integers(0, n_sig - 1))))
        elif kind == "leave":
            ops.append(("leave", draw(st.integers(0, 10 ** 6))))
        else:
            ops.append(("load", draw(st.integers(0, n_res - 1)),
                        draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5]))))
    return caps, sig_specs, ops


@given(churn_scripts())
@settings(max_examples=120, deadline=None)
def test_property_persistent_allocator_matches_fresh_under_churn(script):
    """Join/leave/load churn on one long-lived allocator must give the
    rates a freshly built one gives for the live flows: the incremental
    weight totals stay exact with dyadic weights. The fresh build is fed
    the live flows in the persistent allocator's class order, because
    classes freezing in one round charge shared residuals in that order
    and float subtraction does not commute in the last ulp."""
    caps, sig_specs, ops = script
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(caps)]
    signatures = [(tuple(resources[i] for i in idx), weight)
                  for idx, weight in sig_specs]
    alloc = FairShareAllocator()
    live: list[Flow] = []
    for op in ops:
        if op[0] == "join":
            path, weight = signatures[op[1]]
            flow = Flow(path, 1e6, weight=weight)
            live.append(flow)
            alloc.add_flow(flow)
        elif op[0] == "leave":
            if not live:
                continue
            alloc.remove_flow(live.pop(op[1] % len(live)))
        else:
            resources[op[1]].background_load = op[2]
        if not live:
            continue
        alloc.allocate()
        fresh = compute_fair_rates_optimized(
            [flow for cls in alloc.classes() for flow in cls.members])
        # The reference loop may accumulate sums in a different order:
        # equality holds only up to round-off there.
        reference = compute_fair_rates_reference(live)
        for flow in live:
            rate = alloc.class_of(flow).rate
            assert rate == fresh[flow]  # bit-identical, not approx
            assert rate == pytest.approx(reference[flow],
                                         rel=REL_TOL, abs=1e-12)


@st.composite
def star_scripts(draw):
    n_links = draw(st.integers(min_value=2, max_value=8))
    caps = draw(st.lists(st.integers(min_value=10, max_value=10 ** 6),
                         min_size=n_links, max_size=n_links, unique=True))
    weights = draw(st.lists(st.sampled_from(DYADIC_WEIGHTS),
                            min_size=n_links, max_size=n_links))
    n_ops = draw(st.integers(min_value=1, max_value=20))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["join", "join", "leave", "backbone"]))
        if kind == "join":
            ops.append(("join", draw(st.integers(0, n_links - 1))))
        elif kind == "leave":
            ops.append(("leave", draw(st.integers(0, 10 ** 6))))
        else:
            ops.append(("backbone",
                        draw(st.floats(min_value=0.0, max_value=20.0))))
    return caps, weights, ops


@given(star_scripts())
@settings(max_examples=120, deadline=None)
def test_property_star_single_flow_classes_bitwise_equal_reference(script):
    """Single-flow classes on a star: one access link per flow plus one
    shared backbone. Every water-filling operand is identical between
    engines, so rate vectors are bit-identical — including share ties
    between links and zero-weight fringes."""
    caps, weights, ops = script
    backbone = Resource("backbone", 1e9)
    links = [Resource(f"l{i}", float(cap)) for i, cap in enumerate(caps)]
    alloc = FairShareAllocator()
    live: dict[int, Flow] = {}
    for op in ops:
        if op[0] == "join":
            i = op[1]
            if i in live:  # one flow per link keeps classes single-flow
                continue
            flow = Flow((links[i], backbone), 1e6, weight=weights[i])
            live[i] = flow
            alloc.add_flow(flow)
        elif op[0] == "leave":
            if not live:
                continue
            i = sorted(live)[op[1] % len(live)]
            alloc.remove_flow(live.pop(i))
        else:
            backbone.background_load = op[1]
        if not live:
            continue
        alloc.allocate()
        reference = compute_fair_rates_reference(list(live.values()))
        for flow in live.values():
            assert alloc.class_of(flow).rate == reference[flow]


def test_zero_rate_stall_matches_reference():
    """A resource drained to residual 0.0 yields an exact 0.0 share, and
    stays stalled when churn elsewhere triggers a reallocation."""
    r1 = Resource("r1", 10.0)
    r2 = Resource("r2", 6.25)
    r3 = Resource("r3", 1e6)
    heavy = Flow((r1, r1, r2), 1e6, weight=4.0)  # charges r1 twice
    light = Flow((r2,), 1e6)
    stalled = Flow((r1,), 1e6)
    alloc = FairShareAllocator()
    for flow in (heavy, light, stalled):
        alloc.add_flow(flow)
    alloc.allocate()
    # r2 freezes first (share 1.25); heavy's double charge drains r1 to
    # exactly 0.0, stalling the remaining flow at rate 0.0.
    assert alloc.class_of(heavy).rate == 5.0
    assert alloc.class_of(stalled).rate == 0.0
    # Churn on a disjoint resource: the stalled flow stays at 0.0.
    extra = Flow((r3,), 1e6)
    alloc.add_flow(extra)
    alloc.allocate()
    live = (heavy, light, stalled, extra)
    reference = compute_fair_rates_reference(live)
    assert {f: alloc.class_of(f).rate for f in live} == reference
    assert alloc.class_of(stalled).rate == 0.0


# -- network level: engines and materialized bytes ----------------------


def _churn_trace(engine: str) -> list[tuple]:
    """Start/abort/complete churn on a star; returns per-flow facts."""
    with use_engine(engine):
        kernel = EventKernel()
        counters = PerfCounters()
        net = FluidNetwork(kernel, counters=counters)
        rng = substream(42, "engine-churn", "trace")
        backbone = Resource("backbone", 5e5)
        links = [Resource(f"link{i}", 1e4 * (i + 1)) for i in range(6)]
        record: list[tuple] = []
        flows: list[Flow] = []
        for wave in range(12):
            for i in range(6):
                flow = net.start_flow((links[i], backbone),
                                      rng.uniform(1e4, 2e5))
                flows.append(flow)
            kernel.run(until=kernel.now + rng.uniform(0.5, 2.0))
            victims = [f for f in flows if f.is_active][::3]
            for victim in victims:
                net.abort_flow(victim)  # forces materialization mid-flight
        kernel.run()
        for index, flow in enumerate(flows):
            record.append((index, flow.state.value, flow.bytes_done,
                           flow.remaining, flow.started_at,
                           flow.finished_at))
        return record, counters


def test_network_churn_bit_identical_across_engines():
    reference, _ = _churn_trace("reference")
    optimized, counters = _churn_trace("optimized")
    assert optimized == reference  # bytes_done/timestamps bit-identical
    assert counters.lazy_materializations > 0


def test_abort_materializes_partial_bytes_from_class_service():
    kernel = EventKernel()
    counters = PerfCounters()
    net = FluidNetwork(kernel, counters=counters)
    r = Resource("r", 100.0)
    a = net.start_flow([r], 1000.0)
    b = net.start_flow([r], 1000.0)
    kernel.run(until=4.0)
    net.abort_flow(a)  # advances class service, then materializes
    assert a.bytes_done == pytest.approx(200.0)  # 50 B/s each for 4s
    assert counters.lazy_materializations == 1
    kernel.run()
    assert b.state.value == "completed"
    assert b.bytes_done == pytest.approx(1000.0)
    assert b.remaining == 0.0
