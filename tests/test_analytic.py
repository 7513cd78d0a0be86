"""Analytic quantities vs their Monte Carlo and quadrature counterparts."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from fadestream import channel
from fadestream.analytic import je_pmf_exact_smallM, mt_pmf_exact, mt_success_prob
from fadestream.channel import PowerBudget, QuadratureError, trial_stream
from fadestream.engine import ExperimentSpec, decode_counts, run_experiment
from fadestream.schemes import JE, TS, je_counts, mt_counts

from gates import binomial_se, combined_se
from oracles import prefix_sum_rate_mc


# ---------------------------------------------------------------------------
# single-block success probability
# ---------------------------------------------------------------------------


def test_mt_success_prob_reference_point():
    p = mt_success_prob(PowerBudget.from_db(1.44), 1.0)
    assert p == pytest.approx(0.4879, abs=5e-4)
    assert abs(p - 0.5) < 0.02  # the operating point quoted as "p = 0.5"


def test_mt_success_prob_limits():
    assert mt_success_prob(PowerBudget(1.0), 1e-12) == pytest.approx(1.0)
    assert mt_success_prob(PowerBudget(1.0), 1.0) == pytest.approx(np.exp(-1.0))


def test_tails_past_the_float_range_of_two_to_the_rate_are_zero():
    """2**R overflows a float above R = 1024; the tail there is far below
    the smallest double, so it is 0.0, not an OverflowError."""
    assert mt_success_prob(PowerBudget(1.0), 1100.0) == 0.0
    pmf = je_pmf_exact_smallM(2, PowerBudget(1.0), 600.0)
    assert pmf.probs.tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("rate_r", [np.nan, np.inf, 0.0, -1.0])
def test_rate_rule_of_the_estimators(rate_r):
    """The decoders' finite positive rate rule: a NaN rate fails every
    comparison, so a bare `<= 0` check lets it through."""
    with pytest.raises(ValueError):
        mt_success_prob(PowerBudget(1.0), rate_r)
    with pytest.raises(ValueError):
        je_pmf_exact_smallM(2, PowerBudget(1.0), rate_r)


def test_mt_success_prob_matches_tail_quadrature():
    # independent route: integrate the gain density over the success region
    for db, rate in ((0.0, 1.0), (1.44, 1.0), (2.0, 0.5)):
        power = PowerBudget.from_db(db)
        threshold = (2.0**rate - 1.0) / power.p_linear
        tail, _ = quad(lambda g: np.exp(-g), threshold, 60.0)
        assert mt_success_prob(power, rate) == pytest.approx(tail, abs=1e-9)


@pytest.mark.parametrize("db", [0.0, 1.44])
def test_mt_success_prob_against_monte_carlo(db):
    power = PowerBudget.from_db(db)
    p = mt_success_prob(power, 1.0)
    draws = 200000
    caps = np.log2(1.0 + trial_stream(31, 0).exponential(1.0, draws) * power.p_linear)
    p_hat = float(np.mean(caps >= 1.0))
    assert abs(p_hat - p) <= 3.0 * binomial_se(p_hat, draws)


# ---------------------------------------------------------------------------
# decode-count pmf (memoryless)
# ---------------------------------------------------------------------------


def test_mt_pmf_small_cases():
    assert np.allclose(mt_pmf_exact(2, 0.5).probs, [0.25, 0.5, 0.25])
    probs = mt_pmf_exact(3, 1.0).probs
    assert np.array_equal(probs, [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("m_total", [2.5, -1, 0, 3.0])
def test_mt_pmf_rejects_bad_counts(m_total):
    """The count check's own message, not one about the probabilities."""
    with pytest.raises(ValueError, match="m_total must be an integer >= 1"):
        mt_pmf_exact(m_total, 0.5)

def test_mt_pmf_mean_and_normalization():
    for m_total, p in ((10, 0.3), (1000, 0.4879), (10000, 0.5)):
        pmf = mt_pmf_exact(m_total, p)
        assert abs(pmf.probs.sum() - 1.0) < 1e-9
        assert pmf.mean() == pytest.approx(m_total * p, rel=1e-9)
        assert np.all(pmf.probs >= 0.0)


def test_mt_pmf_matches_decode_histogram():
    m_total, trials = 50, 200000
    power = PowerBudget.from_db(1.44)
    p = mt_success_prob(power, 1.0)
    pmf = mt_pmf_exact(m_total, p)
    caps = np.log2(
        1.0 + trial_stream(32, 0).exponential(1.0, (trials, m_total)) * power.p_linear
    )
    hist = np.bincount(mt_counts(caps, 1.0), minlength=m_total + 1) / trials
    for m in range(m_total + 1):
        se = binomial_se(pmf.probs[m], trials)
        assert abs(hist[m] - pmf.probs[m]) <= 3.0 * se + 1e-12


# ---------------------------------------------------------------------------
# prefix-sum identity for joint encoding
# ---------------------------------------------------------------------------


def test_prefix_prob_estimates_are_deterministic():
    a = prefix_sum_rate_mc(PowerBudget(1.0), 5, 1.0, 2000, master_seed=77)
    b = prefix_sum_rate_mc(PowerBudget(1.0), 5, 1.0, 2000, master_seed=77)
    assert a == b  # bit-equal rate and standard error
    assert 0.0 <= a[0] <= 1.0  # within [0, R]


def test_prefix_identity_matches_independent_je_run():
    m_total, trials = 4, 100000
    power_db = 0.0
    est, est_se = prefix_sum_rate_mc(
        PowerBudget.from_db(power_db), m_total, 1.0, trials, master_seed=41
    )
    spec = ExperimentSpec(
        power_db=power_db,
        m_total=m_total,
        rate_r=1.0,
        scheme=JE(),
        trials=trials,
        master_seed=42,
    )
    run = run_experiment(spec)
    assert abs(est - run.mean_rate) <= 3.0 * combined_se(est_se, run.rate_se)


def test_prefix_identity_holds_per_trial_in_expectation():
    # the identity's count and the je decoder's count on the same trials
    seed, m_total, trials = 43, 6, 50000
    est, _ = prefix_sum_rate_mc(
        PowerBudget.from_db(2.0), m_total, 1.0, trials, master_seed=seed
    )
    spec = ExperimentSpec(
        power_db=2.0,
        m_total=m_total,
        rate_r=1.0,
        scheme=JE(),
        trials=trials,
        master_seed=seed,
    )
    (counts,) = decode_counts([spec])
    assert counts.mean() == pytest.approx(est * m_total, abs=4.0 * np.sqrt(m_total / trials))


# ---------------------------------------------------------------------------
# exact small-deadline pmf from Spitzer's identity
# ---------------------------------------------------------------------------


def test_je_pmf_single_block_collapses_to_tail():
    power = PowerBudget.from_db(1.44)
    p = mt_success_prob(power, 1.0)
    pmf = je_pmf_exact_smallM(1, power, 1.0)
    assert pmf.probs[1] == pytest.approx(p, abs=1e-6)
    assert pmf.probs[0] == pytest.approx(1.0 - p, abs=1e-6)


@pytest.mark.parametrize("m_total", [2, 3])
def test_je_pmf_normalizes(m_total):
    pmf = je_pmf_exact_smallM(m_total, PowerBudget.from_db(1.44), 1.0)
    assert abs(pmf.probs.sum() - 1.0) < 1e-4
    assert np.all(pmf.probs >= 0.0)


@pytest.mark.parametrize("m_total", [1, 2, 3])
def test_je_pmf_matches_monte_carlo_histogram(m_total):
    trials = 200000
    power = PowerBudget.from_db(1.44)
    pmf = je_pmf_exact_smallM(m_total, power, 1.0)
    caps = np.log2(
        1.0 + trial_stream(33, 0).exponential(1.0, (trials, m_total)) * power.p_linear
    )
    hist = np.bincount(je_counts(caps, 1.0), minlength=m_total + 1) / trials
    for m in range(m_total + 1):
        assert abs(hist[m] - pmf.probs[m]) <= 3.0 * binomial_se(pmf.probs[m], trials) + 1e-5


def test_je_pmf_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        je_pmf_exact_smallM(4, PowerBudget(1.0), 1.0)


def _capacity_density(c, p_linear):
    return math.log(2.0) * 2.0**c / p_linear * math.exp(-(2.0**c - 1.0) / p_linear)


@pytest.mark.parametrize("db", [-3.0, 1.44, 20.0])
def test_je_pmf_two_blocks_matches_a_direct_double_integral(db):
    """Both messages decode iff c2 >= R and c1 + c2 >= 2R; none does iff
    c1 < R and c1 + c2 < 2R.  Integrated directly over the two blocks'
    densities, not through the tails of their sums."""
    rate, p_linear = 1.0, PowerBudget.from_db(db).p_linear
    top = math.log2(1.0 + p_linear * 60.0)  # density below e^-59 beyond it

    def density(c2, c1):
        return _capacity_density(c1, p_linear) * _capacity_density(c2, p_linear)

    tol = dict(epsabs=1e-13, epsrel=1e-12)
    # split at c1 = R, where the lower edge max(R, 2R - c1) of c2 has its kink
    both = (
        dblquad(density, 0.0, rate, lambda c1: 2.0 * rate - c1, top, **tol)[0]
        + dblquad(density, rate, top, rate, top, **tol)[0]
    )
    none = dblquad(density, 0.0, rate, 0.0, lambda c1: 2.0 * rate - c1, **tol)[0]
    probs = je_pmf_exact_smallM(2, PowerBudget.from_db(db), rate).probs
    assert probs[2] == pytest.approx(both, abs=1e-9)
    assert probs[0] == pytest.approx(none, abs=1e-9)


@pytest.mark.parametrize(
    "db, rate, frozen",
    [
        (1.44, 1.0, [0.2967696438, 0.1800253934, 0.1951957170, 0.3280092486]),
        (0.0, 1.0, [0.4720535665, 0.1932601552, 0.1530492029, 0.1816370641]),
        (-3.0, 0.5, [0.3443492087, 0.1833874384, 0.1883009316, 0.2839624174]),
        (20.0, 4.0, [0.0184768410, 0.0399997820, 0.1161190025, 0.8254043738]),
    ],
)
def test_je_pmf_three_blocks_keeps_the_nested_block_integrals(db, rate, frozen):
    """Values of the former hand-nested integrals of the decodable and
    undecodable block probabilities, at tolerance 1e-5."""
    probs = je_pmf_exact_smallM(3, PowerBudget.from_db(db), rate).probs
    assert np.allclose(probs, frozen, rtol=0.0, atol=1e-7)


def test_je_pmf_raises_when_the_quadrature_misses_its_tolerance(monkeypatch):
    monkeypatch.setattr(channel, "_QUAD_TOL", 1e-20)
    with pytest.raises(QuadratureError):
        je_pmf_exact_smallM(3, PowerBudget.from_db(2.0), 1.0)


# ---------------------------------------------------------------------------
# time sharing against closed forms
# ---------------------------------------------------------------------------


def test_ts_estimate_single_block():
    # with M = 1 the one message gets the whole block, as under mt
    power = PowerBudget.from_db(0.0)
    p = mt_success_prob(power, 1.0)
    spec = ExperimentSpec(
        power_db=0.0,
        m_total=1,
        rate_r=1.0,
        scheme=TS(),
        trials=50000,
        master_seed=51,
    )
    run = run_experiment(spec)
    assert abs(run.mean_rate - p) <= 3.0 * run.rate_se


# ---------------------------------------------------------------------------
# standard-error helpers
# ---------------------------------------------------------------------------


def test_se_helpers():
    assert binomial_se(0.5, 10000) == pytest.approx(0.005)
    assert binomial_se(0.0, 100) == 0.0
    assert combined_se(3.0, 4.0) == pytest.approx(5.0)
