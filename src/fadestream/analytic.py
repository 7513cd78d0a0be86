"""Closed-form and semi-analytic performance quantities.

Each is a route to numbers that the Monte Carlo engine also produces, by
other means than running a decoder:

* mt_success_prob - the single-block success probability Pr{cap >= R}
  (closed form for the Rayleigh gain);
* mt_pmf_exact - the memoryless decode-count pmf, binomial in log space;
* je_pmf_exact_smallM - the exact joint-encoding pmf for up to three blocks,
  from Spitzer's identity and tails of capacity sums, nested over the block
  gains on channel._rayleigh_expectation's rule, the package's one quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import LN2, PowerBudget, _check_count, _check_positive, _finite_real, _rayleigh_expectation

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
    _check_positive("rate_r", rate_r)
    return float(_capacity_tail(rate_r, power.p_linear))


def mt_pmf_exact(m_total: int, p: float) -> DecodeCountPmf:
    """Binomial decode-count pmf, accumulated in log space for large M."""
    _check_count("m_total", m_total)
    if not (_finite_real(p) and 0.0 <= p <= 1.0):
        raise ValueError("p must be a probability")
    m = np.arange(m_total + 1)
    if p == 0.0 or p == 1.0:
        probs = np.zeros(m_total + 1)
        probs[m_total if p == 1.0 else 0] = 1.0
        return DecodeCountPmf(probs=probs)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(m_total + 1)])
    log_comb = log_factorial[m_total] - log_factorial - log_factorial[::-1]
    log_probs = log_comb + m * np.log(p) + (m_total - m) * np.log1p(-p)
    return DecodeCountPmf(probs=np.exp(log_probs))


# ---------------------------------------------------------------------------
# joint encoding: exact decode-count pmf for up to three blocks
# ---------------------------------------------------------------------------


def _gain_threshold(c, p_linear):
    """The gain (2**c - 1) / P at which log2(1 + g P) reaches c, elementwise:
    0 where c <= 0, and inf where 2**c overflows (c >= 1024).  For P below
    2**1014 (3052 dB) the threshold is then above 745, where its tail exp(-g)
    underflows to the 0 that exp(-inf) gives."""
    with np.errstate(over="ignore"):
        return np.maximum(np.exp2(c) - 1.0, 0.0) / p_linear


def _capacity_tail(c, p_linear):
    """Pr{log2(1 + phi P) > c}, elementwise: the Rayleigh gain's tail."""
    return np.exp(-_gain_threshold(c, p_linear))


def _sum_tail(j, y, p_linear):
    """Pr{C_1 + ... + C_j > y} for i.i.d. block capacities, elementwise in y.

    Either C_1 alone exceeds y (its gain is above g* = _gain_threshold(y)),
    or its gain g is below g* and the other j - 1 blocks exceed
    y - log2(1 + g P); so each block adds one level of quadrature over g.
    """
    if j == 1:
        return _capacity_tail(y, p_linear)
    y = np.asarray(y)

    def other_blocks(g):
        return _sum_tail(j - 1, y[..., None, None] - np.log1p(g * p_linear) / LN2, p_linear)

    below = _rayleigh_expectation(other_blocks, _gain_threshold(y, p_linear))
    return _capacity_tail(y, p_linear) + below


def je_pmf_exact_smallM(m_total: int, power: PowerBudget, rate_r: float) -> DecodeCountPmf:
    """Exact joint-encoding decode-count pmf from Spitzer's identity, M <= 3.

    The decoded count is the last argmax of the walk S_m = C_1 + ... + C_m
    - m R (je_counts), whose steps are i.i.d. and continuous.  So (Spitzer,
    Trans. AMS 82, 1956; Feller Vol. II, XII.7) Pr{count = m} = a_m b_{M-m},
    where a_n is the probability that every suffix sum of n steps is
    positive (the first n messages decode) and b_n that every prefix sum is
    not (none of the next n do).  With p_j = Pr{S_j > 0} and a_0 = b_0 = 1,
        n a_n = sum_{j<=n} p_j a_{n-j},  n b_n = sum_{j<=n} (1 - p_j) b_{n-j}.
    Each p_j nests j - 1 gain quadratures (_sum_tail), the inner one at every
    node of the outer, so its cost grows as 1830**(j - 1) evaluations and
    larger deadlines are out of scope.
    """
    _check_count("m_total", m_total)
    if m_total > 3:
        raise ValueError("exact pmf quadrature supports m_total in {1, 2, 3} only")
    _check_positive("rate_r", rate_r)
    p = [None] + [float(_sum_tail(j, j * rate_r, power.p_linear)) for j in range(1, m_total + 1)]
    a, b = [1.0], [1.0]
    for n in range(1, m_total + 1):
        a.append(sum(p[j] * a[n - j] for j in range(1, n + 1)) / n)
        b.append(sum((1.0 - p[j]) * b[n - j] for j in range(1, n + 1)) / n)
    return DecodeCountPmf(probs=np.array([a[m] * b[m_total - m] for m in range(m_total + 1)]))
