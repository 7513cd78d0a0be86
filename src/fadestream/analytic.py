"""Closed-form and semi-analytic performance quantities.

Each is a route to numbers that the Monte Carlo engine also produces, by
other means than running a decoder:

* mt_success_prob - the single-block success probability Pr{cap >= R}
  (closed form for the Rayleigh gain);
* mt_pmf_exact - the memoryless decode-count pmf, binomial in log space;
* prefix_sum_rate_mc - the joint-encoding average rate from the prefix-sum
  identity E[n_d] = sum_m Pr{cap[1] + ... + cap[m] >= m R}, estimated on
  the engine's trial streams, with its standard error;
* je_pmf_exact_smallM - the exact joint-encoding pmf by nested quadrature
  for up to three blocks.
"""

from dataclasses import dataclass

import numpy as np
import scipy  # scipy.special loads on first use, in mt_pmf_exact

from .channel import LN2, FadingModel, PowerBudget, QuadratureError, capacities
from .engine import _chunk_ranges, _sample_gain_block
from .schemes import _check_count, _check_rate

# ---------------------------------------------------------------------------
# decode-count pmf container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeCountPmf:
    """Probability of decoding exactly m messages, for m = 0..M."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("probs must be a non-empty vector")
        if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-3:
            raise ValueError("probs must be non-negative and sum to one")
        object.__setattr__(self, "probs", probs)

    @property
    def m_total(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


# ---------------------------------------------------------------------------
# memoryless transmission
# ---------------------------------------------------------------------------


def mt_success_prob(power: PowerBudget, rate_r: float) -> float:
    """Per-block decode probability Pr{log2(1 + phi P) >= R}: the exponential
    tail exp(-(2^R - 1) / P) of the Rayleigh gain.
    """
    _check_rate(rate_r)
    return float(np.exp(-(2.0**rate_r - 1.0) / power.p_linear))


def mt_pmf_exact(m_total: int, p: float) -> DecodeCountPmf:
    """Binomial decode-count pmf, accumulated in log space for large M."""
    _check_count("m_total", m_total)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    m = np.arange(m_total + 1)
    if p == 0.0 or p == 1.0:
        probs = np.zeros(m_total + 1)
        probs[m_total if p == 1.0 else 0] = 1.0
        return DecodeCountPmf(probs=probs)
    gammaln = scipy.special.gammaln
    log_comb = gammaln(m_total + 1) - gammaln(m + 1) - gammaln(m_total - m + 1)
    log_probs = log_comb + m * np.log(p) + (m_total - m) * np.log1p(-p)
    return DecodeCountPmf(probs=np.exp(log_probs))


# ---------------------------------------------------------------------------
# joint encoding: prefix-sum identity for the average rate
# ---------------------------------------------------------------------------


def prefix_sum_rate_mc(
    model: FadingModel,
    power: PowerBudget,
    m_total: int,
    rate_r: float,
    trials: int,
    master_seed: int,
) -> tuple[float, float]:
    """Joint-encoding average rate from the prefix-sum identity, with its SE.

    The expected decoded count equals the sum over m of
    Pr{cap[1] + ... + cap[m] >= m R}, so the average rate is R/M times the
    mean over trials of the number of m whose prefix sum clears m R.  Trials
    0..trials-1 use the engine's (master_seed, trial) streams and chunks.
    """
    _check_count("m_total", m_total)
    _check_rate(rate_r)
    _check_count("trials", trials)
    thresholds = rate_r * np.arange(1, m_total + 1)
    s1 = s2 = 0.0
    starts = _chunk_ranges(trials, m_total)
    for start in starts:
        count = min(starts.step, trials - start)
        caps = capacities(_sample_gain_block(model, m_total, master_seed, start, count), power)
        counts = (np.cumsum(caps, axis=1) >= thresholds).sum(axis=1)
        s1 += counts.sum()
        s2 += (counts.astype(float) ** 2).sum()
    mean = s1 / trials
    var = max(s2 / trials - mean**2, 0.0) * trials / max(trials - 1, 1)
    scale = rate_r / m_total
    return scale * mean, scale * np.sqrt(var / trials)


# ---------------------------------------------------------------------------
# joint encoding: exact decode-count pmf for up to three blocks
# ---------------------------------------------------------------------------


def _capacity_pdf(c, p_linear):
    # change of variables from the exponential gain density
    g = (2.0**c - 1.0) / p_linear
    return LN2 * 2.0**c / p_linear * np.exp(-g)


def _capacity_cdf(c, p_linear):
    if c <= 0.0:
        return 0.0
    return 1.0 - float(np.exp(-(2.0**c - 1.0) / p_linear))


def _capacity_tail(c, p_linear):
    if c <= 0.0:
        return 1.0
    return float(np.exp(-(2.0**c - 1.0) / p_linear))


def _quad(f, lo, hi, tol, points=()):
    # imported here: scipy.integrate is only needed by je_pmf_exact_smallM,
    # and importing it at start-up would cost every run about 25 MB
    from scipy.integrate import quad

    inner = [x for x in points if lo < x < hi]
    value, abserr = quad(f, lo, hi, epsabs=tol, limit=200, points=inner or None)
    if abserr > 10.0 * tol + 1e-12:
        raise QuadratureError(f"nested quadrature error {abserr:.2e} at tolerance {tol:.2e}")
    return value


def _decode_block_prob(m, p_linear, r, tol, c_max):
    """Pr{suffix sums over the last i of m blocks all reach i R, i = 1..m}."""
    if m == 0:
        return 1.0
    if m == 1:
        return _capacity_tail(r, p_linear)
    if m == 2:
        return _quad(
            lambda x2: _capacity_pdf(x2, p_linear)
            * _capacity_tail(max(2.0 * r - x2, 0.0), p_linear),
            r,
            c_max,
            tol,
            points=(2.0 * r,),
        )

    def inner(x3):
        lo = max(2.0 * r - x3, 0.0)
        return _quad(
            lambda x2: _capacity_pdf(x2, p_linear)
            * _capacity_tail(max(3.0 * r - x3 - x2, 0.0), p_linear),
            lo,
            c_max,
            tol / 10.0,
            points=(3.0 * r - x3,),
        )

    return _quad(lambda x3: _capacity_pdf(x3, p_linear) * inner(x3), r, c_max, tol)


def _fail_block_prob(j, p_linear, r, tol):
    """Pr{prefix sums over the first i of j blocks all fall short of i R}."""
    if j == 0:
        return 1.0
    if j == 1:
        return _capacity_cdf(r, p_linear)
    if j == 2:
        return _quad(
            lambda y1: _capacity_pdf(y1, p_linear) * _capacity_cdf(2.0 * r - y1, p_linear),
            0.0,
            r,
            tol,
        )

    def inner(y1):
        return _quad(
            lambda y2: _capacity_pdf(y2, p_linear) * _capacity_cdf(3.0 * r - y1 - y2, p_linear),
            0.0,
            2.0 * r - y1,
            tol / 10.0,
        )

    return _quad(lambda y1: _capacity_pdf(y1, p_linear) * inner(y1), 0.0, r, tol)


# absolute tolerance of je_pmf_exact_smallM's nested quadrature
_JE_PMF_TOL = 1e-5


def je_pmf_exact_smallM(m_total: int, power: PowerBudget, rate_r: float) -> DecodeCountPmf:
    """Exact joint-encoding decode-count pmf by nested quadrature, M <= 3.

    The probability of decoding exactly m messages factorizes (the blocks
    are independent) into a decodable part over blocks 1..m and a
    non-decodable part over blocks m+1..M; each factor is integrated against
    the capacity density.  The nesting depth grows with M, so larger
    deadlines are out of scope.
    """
    if m_total not in (1, 2, 3):
        raise ValueError("exact pmf quadrature supports m_total in {1, 2, 3} only")
    _check_rate(rate_r)
    p = power.p_linear
    # capacity tail mass beyond c_max is < 1e-13
    c_max = float(np.log2(1.0 + p * np.log(1e13)))
    inner_tol = _JE_PMF_TOL / 20.0
    probs = np.array(
        [
            _decode_block_prob(m, p, rate_r, inner_tol, c_max)
            * _fail_block_prob(m_total - m, p, rate_r, inner_tol)
            for m in range(m_total + 1)
        ]
    )
    return DecodeCountPmf(probs=probs)
