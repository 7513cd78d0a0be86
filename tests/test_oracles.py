"""Input checks and memory of the reference implementations in oracles.py.

These pin the oracles themselves, not the package: a failure here means a
reference that other tests compare against has changed."""

import tracemalloc

import numpy as np
import pytest

from fadestream.channel import PowerBudget

from oracles import prefix_sum_rate_mc, st_power_allocation, st_subset_capacity


@pytest.mark.parametrize("rate_r", [np.nan, np.inf, 0.0, -1.0])
def test_prefix_sum_rate_mc_follows_the_rate_rule(rate_r):
    """The decoders' finite positive rate rule, as the package's estimators
    follow it."""
    with pytest.raises(ValueError):
        prefix_sum_rate_mc(PowerBudget(1.0), 5, rate_r, 100, master_seed=1)


@pytest.mark.parametrize(
    "m_total, trials",
    [(0, 100), (-1, 100), (2.5, 100), (5, 0), (5, 2.5), (5, 100.0)],
)
def test_prefix_sum_rate_mc_rejects_bad_counts(m_total, trials):
    """Counts are integers >= 1; a float is refused even when it is whole."""
    with pytest.raises(ValueError):
        prefix_sum_rate_mc(PowerBudget(1.0), m_total, 1.0, trials, master_seed=1)


@pytest.mark.parametrize("estimate", [prefix_sum_rate_mc])
def test_estimates_stay_bounded_in_memory_at_long_deadlines(estimate):
    """8192 trials x 2000 blocks in one chunk peaked at 375 MB."""
    tracemalloc.start()
    try:
        estimate(PowerBudget.from_db(2.0), 2000, 1.0, 8192, master_seed=55)
        assert tracemalloc.get_traced_memory()[1] < 100 * 2**20
    finally:
        tracemalloc.stop()


def test_st_power_allocation_columns():
    alloc = st_power_allocation(1, PowerBudget(4.0))
    assert alloc.shape == (1, 1) and alloc[0, 0] == 4.0
    alloc = st_power_allocation(2, PowerBudget(2.0))
    assert np.array_equal(alloc, [[2.0, 1.0], [0.0, 1.0]])
    alloc = st_power_allocation(3, PowerBudget(3.0))
    assert np.array_equal(alloc[:, 2], [1.0, 1.0, 1.0])
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        p = float(rng.uniform(0.1, 50.0))
        alloc = st_power_allocation(m, PowerBudget(p))
        assert np.allclose(alloc.sum(axis=0), p, rtol=1e-12)
        assert np.all(np.triu(np.ones((m, m))) * alloc == alloc)  # no power before arrival
    for m_total in (0, 2.5):
        with pytest.raises(ValueError):
            st_power_allocation(m_total, PowerBudget(1.0))


def test_st_subset_capacity_rejects_bad_subsets():
    alloc = st_power_allocation(2, PowerBudget(2.0))
    with pytest.raises(ValueError):
        st_subset_capacity([1.0, 1.0], alloc, {1, 2}, set())
    with pytest.raises(ValueError):
        st_subset_capacity([1.0, 1.0], alloc, {2}, {1})
