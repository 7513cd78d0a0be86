"""Upper bounds on the streaming decoder's performance.

The informed-transmitter bound assumes the transmitter knows all M channel
realizations up front and allocates blocks optimally; the ergodic bound is
the no-deadline limit min(R, c_bar).
"""

from dataclasses import dataclass

import numpy as np

from .channel import _check_positive


@dataclass(frozen=True)
class InformedBound:
    """Selector for running the informed-transmitter bound as if a scheme."""


def informed_counts(caps: np.ndarray, rate_r: float) -> np.ndarray:
    """Batched informed bound over (trials x blocks) capacity matrices.

    Decoding m messages needs (m - i + 1) R <= cap[i] + ... + cap[M] for
    i = 1..m.  Rearranged: m works iff the running minimum over i <= m of
    (suffix_sum_i + i * R) is >= (m + 1) * R.  The running minimum never
    increases in m and the threshold never decreases, in floating point too,
    so the feasible m form a prefix 1..n and the count n is their number.
    """
    m_total = caps.shape[1]
    suffix = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1]
    margin = np.minimum.accumulate(suffix + rate_r * np.arange(1, m_total + 1), axis=1)
    return (margin >= rate_r * np.arange(2, m_total + 2)).sum(axis=1)


def ergodic_upper_bound(rate_r: float, c_bar: float) -> float:
    """No-deadline ceiling on the average decoded rate: min(R, c_bar)."""
    _check_positive("rate_r", rate_r)
    _check_positive("c_bar", c_bar)
    return min(rate_r, c_bar)
