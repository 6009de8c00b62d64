"""Property tests for the batched reductions in ``repro.analysis.backend``.

Sorting, searching and rank selection are exact, and every scalar
reduction is fsum-funnelled (exactly rounded, order-free). These tests
pin the batched operations bit for bit against their one-at-a-time
definitions, and box stats and paired t-tests against a shuffled
input, over random samples including ties, signed zeros, n=1/2 and
all-equal inputs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import backend
from repro.analysis.boxstats import BoxStats
from repro.analysis.ecdf import ECDF
from repro.analysis.stats import paired_t_test

# Finite floats with deliberately coarse granularity so ties and
# all-equal samples are common; n=1 and n=2 sit at the minimum sizes.
_value = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 1e-300, 7.25]),
)
_samples = st.lists(_value, min_size=1, max_size=300)
_pairs = st.lists(st.tuples(_value, _value), min_size=2, max_size=200)


def _bits(values):
    """Sign-aware view: ``==`` cannot tell 0.0 from -0.0."""
    return [(math.copysign(1.0, v), v) for v in values]


# -- batched operations vs their one-at-a-time definitions ------------


@given(_samples)
@settings(max_examples=120, deadline=None)
def test_sort_values_bit_equal(values):
    """A stable sort: signed zeros keep their input order."""
    assert _bits(backend.sort_values(values)) == _bits(sorted(values))


@given(_samples)
@settings(max_examples=120, deadline=None)
def test_ecdf_bit_equal(values):
    ecdf = ECDF.from_values(values)
    assert _bits(ecdf.xs) == _bits(sorted(values))
    queries = [min(values) - 1.0, min(values), max(values), 0.0, -0.0]
    assert ecdf.evaluate_many(queries) == [ecdf.evaluate(q) for q in queries]


@given(_samples, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_boxstats_bit_equal(values, rnd):
    """Exact sort + fsum: the record order cannot change a box."""
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert BoxStats.from_values(shuffled) == BoxStats.from_values(values)


@given(_pairs, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_paired_t_bit_equal(pairs, rnd):
    """fsum moments: the pair order cannot change a t-test."""
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    expected = paired_t_test([x for x, _ in pairs], [y for _, y in pairs])
    assert paired_t_test([x for x, _ in shuffled],
                         [y for _, y in shuffled]) == expected


@given(st.lists(st.tuples(st.integers(min_value=-1, max_value=6), _value),
                min_size=0, max_size=200))
@settings(max_examples=120, deadline=None)
def test_grouping_bit_equal(rows):
    """Groups keep record order and drop negative codes."""
    codes = [c for c, _ in rows]
    values = [v for _, v in rows]
    expected = [[v for c, v in rows if c == g] for g in range(7)]
    flat, starts = backend.group_flat(codes, values, 7)
    assert len(flat) == sum(1 for c in codes if c >= 0)
    for g in range(7):
        assert _bits(flat[starts[g]:starts[g + 1]]) == _bits(expected[g])
    assert [_bits(group) for group in
            backend.group_values(codes, values, 7)] == \
        [_bits(group) for group in expected]
    assert backend.group_means(codes, values, 7) == \
        [math.fsum(group) / len(group) if group else None
         for group in expected]
    assert backend.group_counts(codes, 7) == [len(g) for g in expected]


# -- shared scalar kernels --------------------------------------------


@given(_samples)
@settings(max_examples=100, deadline=None)
def test_nearest_rank_quantile_matches_ecdf(values):
    xs = sorted(values)
    for q in (0.1, 0.5, 0.9, 1.0):
        assert backend.nearest_rank_quantile(xs, q) == \
            ECDF.from_values(values).quantile(q)


def test_nearest_rank_p90_does_not_over_index():
    xs = list(range(1, 11))  # n=10: int(0.9 * 10) would report the max
    assert backend.nearest_rank_quantile(xs, 0.9) == 9


def test_quantile_validation():
    with pytest.raises(ValueError):
        backend.nearest_rank_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        backend.nearest_rank_quantile([], 0.5)
    with pytest.raises(ValueError):
        backend.mean([])


def test_mean_sd_edge_cases():
    assert backend.mean_sd([4.0]) == (4.0, 0.0)
    mean, sd = backend.mean_sd([2.0, 4.0, 6.0])
    assert mean == 4.0 and sd == 2.0
    mean, sd = backend.mean_sd([3.0, 3.0, 3.0])
    assert mean == 3.0 and sd == 0.0
