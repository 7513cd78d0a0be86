"""Each decoding rule written out by its definition, one realization at a
time: the independent second implementation that every batched kernel in
fadestream is checked against.  Each decoding oracle returns the decoded
count.  st_counts_row_scan keeps the st kernel's scan of every row, the
bit-for-bit reference for the kernel that skips rows, and st_power_allocation
and st_subset_capacity give the subset capacities that define greedy
superposition decoding.  capacity_moments restates the capacity statistics
by adaptive quadrature, against the package's fixed rule, and
rayleigh_ergodic_closed_form gives their mean in closed form.
choose_m_prime restates aje's M' search one M' at a time with scipy's
normal cdf.  prefix_sum_rate_mc estimates je's average rate from the
prefix-sum identity instead of its decoder."""

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, ndtr

from fadestream.channel import LN2, PowerBudget, _check_count, _check_positive, capacities
from fadestream.engine import _chunk_ranges, _sample_gain_block


def mt_count(cap, rate_r):
    return sum(1 for c in cap if c >= rate_r)


def je_prefix_feasible(cap, rate_r, m):
    """The first m messages decode jointly from blocks 1..m: (m - j + 1) R <=
    cap[j] + ... + cap[m] for every j = 1..m."""
    return all((m - j + 1) * rate_r <= sum(cap[j - 1 : m]) for j in range(1, m + 1))


def je_count(cap, rate_r):
    """Longest feasible prefix, scanning down from M."""
    return next(m for m in range(len(cap), -1, -1) if je_prefix_feasible(cap, rate_r, m))


def aje_count(cap, rate_r, m_prime):
    """je on the first m_prime blocks, each boosted by an equal share of the rest."""
    cap = np.asarray(cap, dtype=float)
    return je_count(cap[:m_prime] + cap[m_prime:].sum() / m_prime, rate_r)


def gts_decoded(cap, rate_r, window):
    """Each block is split equally among the messages that have arrived and
    whose W-block window is still open; a message decodes once it holds R.
    Returns the decoded messages, numbered from 1."""
    info = np.zeros(len(cap))
    for t in range(len(cap)):  # 0-based: messages 0..t have arrived
        active = range(max(0, t - window + 1), t + 1)
        for i in active:
            info[i] += cap[t] / len(active)
    return frozenset(int(i) + 1 for i in np.flatnonzero(info >= rate_r))


def gts_count(cap, rate_r, window):
    return len(gts_decoded(cap, rate_r, window))


def ts_count(cap, rate_r):
    return gts_count(cap, rate_r, len(cap))  # a window spanning all M blocks


def st_keys(phi, p_linear, rate_r):
    """The full profile K[j] = H[j] + j R, j = 0..M, of one realization (see
    st_counts): each row sums all M block terms, zeros included."""
    phi = np.asarray(phi, dtype=float)
    t = np.arange(1, len(phi) + 1)
    remaining = np.clip(t[None, :] - np.arange(len(phi) + 1)[:, None], 0, None)
    key = np.log1p((phi * (p_linear / t))[None, :] * remaining).sum(axis=1) / LN2
    return key + rate_r * np.arange(len(phi) + 1)


def st_count(phi, p_linear, rate_r, max_run):
    """Greedy superposition decoding as a scan over the full (M+1) x M
    capacity profile (st_keys): the running minima of H[j] + j R (see
    st_counts), stopping once the next minimum is more than max_run
    positions away.  max_run = M is the exact decoder, 1 single-user SIC.
    Each row here sums all M block terms, zeros included, where st_counts
    sums only the non-zero ones; the two sums can differ in the last bit,
    which changes a count only where a key equals its running minimum to
    within that bit."""
    key = st_keys(phi, p_linear, rate_r)
    anchor = 0
    for j in range(1, len(phi) + 1):
        if j - anchor > max_run:
            break
        if key[j] <= key[anchor]:
            anchor = j
    return anchor


def st_counts_row_scan(phis: np.ndarray, p_linear: float, rate_r: float) -> np.ndarray:
    """The st kernel as it was before it skipped rows: every row j of the key
    K[j] = H[j] + j R evaluated in order for every trial still scanning, the
    count being the last index attaining the running minimum.  Each row is
    evaluated by the same operations as st_counts' row evaluator, log_sums
    (the products of the blocks t > j with t - j, log1p, a sum along the
    row), so the two agree bit for bit."""
    trials, m_total = phis.shape
    t = np.arange(1, m_total + 1, dtype=float)
    per_message = phis * (p_linear / t)
    best = np.log1p(per_message * t).sum(axis=1) / LN2  # key row 0
    anchor = np.zeros(trials, dtype=np.int64)
    counts = np.zeros(trials, dtype=np.int64)
    running = np.arange(trials)  # trials still scanning; best, anchor, per_message follow
    for j in range(1, m_total + 1):
        going = rate_r * j <= best
        if not going.all():
            counts[running] = anchor
            running, best, anchor, per_message = (
                running[going], best[going], anchor[going], per_message[going]
            )
            if running.size == 0:
                break
        terms = per_message[:, j:] * t[: m_total - j]  # the blocks t > j, times t - j
        key = np.log1p(terms, out=terms).sum(axis=1) / LN2 + rate_r * j
        # <= moves the anchor to the last index attaining the running minimum
        improved = key <= best
        anchor[improved] = j
        best[improved] = key[improved]
    counts[running] = anchor
    return counts


def st_power_allocation(m_total: int, power: PowerBudget) -> np.ndarray:
    """Equal power split: message i gets P/t in every block t >= i.

    Returns the (messages x blocks) matrix; each column sums to P.
    """
    _check_count("m_total", m_total)
    t = np.arange(1, m_total + 1)
    alloc = np.where(np.arange(1, m_total + 1)[:, None] <= t[None, :], power.p_linear / t, 0.0)
    return alloc


def st_subset_capacity(phi, p_alloc: np.ndarray, undecoded, subset) -> float:
    """Joint capacity of a candidate subset, remaining undecoded as noise.

    Sum over blocks of log2(1 + phi_t * S_t / (1 + phi_t * N_t)) where S_t is
    the subset's allocated power in block t and N_t the power of the still
    undecoded messages outside the subset.  Messages already decoded must
    have been removed from `undecoded` by the caller (their signals are
    subtracted before this test).
    """
    subset = frozenset(subset)
    undecoded = frozenset(undecoded)
    if not subset:
        raise ValueError("subset must be non-empty")
    if not subset <= undecoded:
        raise ValueError("subset must be contained in the undecoded set")
    phi = np.asarray(phi, dtype=float)
    rows_s = [s - 1 for s in subset]
    rows_n = [s - 1 for s in undecoded - subset]
    s_pow = p_alloc[rows_s, :].sum(axis=0)
    n_pow = p_alloc[rows_n, :].sum(axis=0) if rows_n else np.zeros_like(phi)
    return float(np.sum(np.log1p(phi * s_pow / (1.0 + phi * n_pow)) / LN2))


def informed_feasible(cap, rate_r, m):
    """m messages fit with full channel knowledge: (m - i + 1) R <= cap[i] +
    ... + cap[M] for i = 1..m."""
    return all((m - i + 1) * rate_r <= sum(cap[i - 1 :]) for i in range(1, m + 1))


def informed_count(cap, rate_r):
    return max(m for m in range(len(cap) + 1) if informed_feasible(cap, rate_r, m))


def capacity_moments(p_linear):
    """Mean and variance of log2(1 + g P) under the Rayleigh density exp(-g),
    by scipy's adaptive quadrature over [0, 1/P] and [1/P, inf); the variance
    integrates the squared deviation from the mean directly."""

    def expect(f):
        return sum(
            quad(lambda g: f(g) * np.exp(-g), lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            for lo, hi in ((0.0, 1.0 / p_linear), (1.0 / p_linear, np.inf))
        )

    mean = expect(lambda g: np.log1p(g * p_linear) / LN2)
    return mean, expect(lambda g: (np.log1p(g * p_linear) / LN2 - mean) ** 2)


def rayleigh_ergodic_closed_form(power: PowerBudget) -> float:
    """Closed form for the Rayleigh ergodic capacity: e^(1/P) E1(1/P) / ln 2.

    Follows from integrating log2(1 + gP) exp(-g) by parts; kept as an
    independent cross-check for the quadrature route.
    """
    x = 1.0 / power.p_linear
    return float(np.exp(x) * exp1(x) / LN2)


def choose_m_prime(c_bar, rate_r, m_total, c_var):
    """The M' in [1, M] with the largest predicted decoded count
    sum_{n=1..M'} Phi(n (M c_bar/M' - R) / sqrt(c_var (n + n^2 (M - M')/M'^2))),
    the smallest on ties; c_var > 0."""
    predicted = np.empty(m_total)
    for m_prime in range(1, m_total + 1):
        n = np.arange(1, m_prime + 1, dtype=float)
        drift = n * (m_total * c_bar / m_prime - rate_r)
        spread = np.sqrt(c_var * (n + n * n * (m_total - m_prime) / m_prime**2))
        predicted[m_prime - 1] = ndtr(drift / spread).sum()
    return int(np.argmax(predicted)) + 1


def prefix_sum_rate_mc(
    power: PowerBudget, m_total: int, rate_r: float, trials: int, master_seed: int
) -> tuple[float, float]:
    """Joint-encoding average rate from the prefix-sum identity, with its SE.

    The expected decoded count equals the sum over m of
    Pr{cap[1] + ... + cap[m] >= m R}, so the average rate is R/M times the
    mean over trials of the number of m whose prefix sum clears m R.  Trials
    0..trials-1 use the engine's (master_seed, trial) streams and chunks.
    """
    _check_count("m_total", m_total)
    _check_positive("rate_r", rate_r)
    _check_count("trials", trials)
    thresholds = rate_r * np.arange(1, m_total + 1)
    s1 = s2 = 0.0
    starts = _chunk_ranges(trials, m_total)
    for start in starts:
        count = min(starts.step, trials - start)
        caps = capacities(_sample_gain_block(m_total, master_seed, start, count), power)
        counts = (np.cumsum(caps, axis=1) >= thresholds).sum(axis=1)
        s1 += counts.sum()
        s2 += (counts.astype(float) ** 2).sum()
    mean = s1 / trials
    var = max(s2 / trials - mean**2, 0.0) * trials / max(trials - 1, 1)
    scale = rate_r / m_total
    return scale * mean, scale * np.sqrt(var / trials)
