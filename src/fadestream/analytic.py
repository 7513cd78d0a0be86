"""Closed-form and semi-analytic performance quantities.

Each is a route to numbers that the Monte Carlo engine also produces, by
other means than running a decoder:

* mt_success_prob - the single-block success probability Pr{cap >= R}
  (closed form for the Rayleigh gain);
* mt_pmf_exact - the memoryless decode-count pmf, binomial in log space;
* je_pmf_exact_smallM - the exact joint-encoding pmf for up to three blocks,
  from Spitzer's identity and nested quadrature of the capacity-sum tails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import LN2, PowerBudget, QuadratureError, _check_count, _check_positive, _finite_real

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
    return _capacity_tail(rate_r, power.p_linear)


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


def _capacity_pdf(c, p_linear):
    # change of variables from the exponential gain density; 0.0 where
    # 2**c overflows, as _capacity_tail
    try:
        grow = 2.0**c
    except OverflowError:
        return 0.0
    return LN2 * grow / p_linear * np.exp(-(grow - 1.0) / p_linear)


def _capacity_tail(c, p_linear):
    """Pr{log2(1 + phi P) > c}: the exponential tail of the Rayleigh gain.

    0.0 where 2**c overflows: for P below 2**1014 (3052 dB), (2**c - 1) / P
    is then above 745, where the tail and the density underflow.
    """
    if c <= 0.0:
        return 1.0
    try:
        return float(np.exp(-(2.0**c - 1.0) / p_linear))
    except OverflowError:
        return 0.0


def _quad(f, lo, hi, tol):
    # imported here: scipy.integrate is only needed by je_pmf_exact_smallM,
    # and importing it at start-up would cost every run about 25 MB
    from scipy.integrate import quad

    value, abserr = quad(f, lo, hi, epsabs=tol, limit=200)
    if abserr > 10.0 * tol:
        raise QuadratureError(f"nested quadrature error {abserr:.2e} at tolerance {tol:.2e}")
    return value


def _sum_tail(j, y, p_linear, tol):
    """Pr{C_1 + ... + C_j > y} for i.i.d. block capacities.

    Either C_1 alone exceeds y, or C_1 = c <= y and the other j - 1 blocks
    exceed y - c; so each block adds one level of quadrature.
    """
    if j == 1 or y <= 0.0:
        return _capacity_tail(y, p_linear)

    def first_block(c):
        return _capacity_pdf(c, p_linear) * _sum_tail(j - 1, y - c, p_linear, tol / 10.0)

    return _quad(first_block, 0.0, y, tol) + _capacity_tail(y, p_linear)


# absolute tolerance of je_pmf_exact_smallM's nested quadrature
_JE_PMF_TOL = 1e-5


def je_pmf_exact_smallM(m_total: int, power: PowerBudget, rate_r: float) -> DecodeCountPmf:
    """Exact joint-encoding decode-count pmf from Spitzer's identity, M <= 3.

    The decoded count is the last argmax of the walk S_m = C_1 + ... + C_m
    - m R (je_counts), whose steps are i.i.d. and continuous.  So (Spitzer,
    Trans. AMS 82, 1956; Feller Vol. II, XII.7) Pr{count = m} = a_m b_{M-m},
    where a_n is the probability that every suffix sum of n steps is
    positive (the first n messages decode) and b_n that every prefix sum is
    not (none of the next n do).  With p_j = Pr{S_j > 0} and a_0 = b_0 = 1,
        n a_n = sum_{j<=n} p_j a_{n-j},  n b_n = sum_{j<=n} (1 - p_j) b_{n-j}.
    Each p_j nests j - 1 quadratures (_sum_tail), so larger deadlines are
    out of scope.
    """
    _check_count("m_total", m_total)
    if m_total > 3:
        raise ValueError("exact pmf quadrature supports m_total in {1, 2, 3} only")
    _check_positive("rate_r", rate_r)
    tol = _JE_PMF_TOL / 20.0
    p = [None] + [_sum_tail(j, j * rate_r, power.p_linear, tol) for j in range(1, m_total + 1)]
    a, b = [1.0], [1.0]
    for n in range(1, m_total + 1):
        a.append(sum(p[j] * a[n - j] for j in range(1, n + 1)) / n)
        b.append(sum((1.0 - p[j]) * b[n - j] for j in range(1, n + 1)) / n)
    return DecodeCountPmf(probs=np.array([a[m] * b[m_total - m] for m in range(m_total + 1)]))
