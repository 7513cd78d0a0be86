"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Every check is implemented at its stated operating point and
tolerance; a failing line means the target is not met by the implemented
schemes, not that the statistics are noisy (all gates carry explicit
standard-error arithmetic where sampling is involved).
"""

import numpy as np

from fadestream.analytic import je_pmf_exact_smallM, mt_success_prob, prefix_sum_rate_mc
from fadestream.bounds import InformedBound, ergodic_upper_bound
from fadestream.channel import (
    ChannelRealization,
    FadingModel,
    PowerBudget,
    capacities,
    ergodic_capacity,
    rayleigh_ergodic_closed_form,
    sample_realization,
    trial_stream,
)
from fadestream.engine import ExperimentSpec, decode_counts, run_experiment, sweep
from fadestream.schemes import (
    AJE,
    GTS,
    JE,
    MT,
    ST,
    TS,
    decode_gts,
    decode_mt,
    decode_ts,
    gts_counts,
    mt_counts,
    st_counts,
    ts_counts,
)

import oracles
from gates import binomial_se, combined_se

SEED = 20260809


def spec(scheme, power_db, m_total, trials, seed, rate_r=1.0, distance=None):
    return ExperimentSpec(
        power_db=power_db,
        m_total=m_total,
        rate_r=rate_r,
        scheme=scheme,
        trials=trials,
        master_seed=seed,
        distance=distance,
    )


def report(number, name, checks):
    """Print one pass/fail line per criterion, then assert all clauses."""
    status = "PASS" if all(ok for _, ok, _ in checks) else "FAIL"
    print(f"\n[criterion {number:02d}] {name}: {status}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    failing = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    assert not failing, f"criterion {number}: " + "; ".join(failing)


def test_c01_ergodic_capacity_anchors():
    checks = []
    for db, expected in ((-3.0, 0.522), (0.0, 0.86), (1.44, 1.07), (2.0, 1.158)):
        c_bar = ergodic_capacity(PowerBudget.from_db(db))
        checks.append(
            (
                f"quadrature at {db} dB",
                abs(c_bar - expected) <= 0.01,
                f"{c_bar:.4f} vs quoted {expected} (tol 0.01)",
            )
        )
    worst = 0.0
    for p_linear in (0.1, 0.5, 1.0, 1.585, 10.0, 100.0):
        power = PowerBudget(p_linear)
        gap = abs(ergodic_capacity(power) - rayleigh_ergodic_closed_form(power))
        worst = max(worst, gap)
    checks.append(("closed-form agreement", worst <= 1e-6, f"worst gap {worst:.2e} (tol 1e-6)"))
    report(1, "ergodic capacity anchors", checks)


def test_c02_mt_success_probability():
    power = PowerBudget.from_db(1.44)
    p = mt_success_prob(power, 1.0)
    draws = 10**6
    real = sample_realization(power, draws, trial_stream(SEED, 2))
    p_hat = float(np.mean(real.cap >= 1.0))
    gate = 3.0 * binomial_se(p_hat, draws)
    checks = [
        ("closed form", abs(p - 0.4879) <= 5e-4, f"{p:.5f} vs 0.4879"),
        ("rounded anchor", abs(p - 0.5) <= 0.02, f"|{p:.4f} - 0.5| <= 0.02"),
        ("monte carlo", abs(p_hat - p) <= gate, f"{p_hat:.5f} vs {p:.5f} (3se {gate:.5f})"),
    ]
    report(2, "memoryless success probability", checks)


def test_c03_prefix_sum_identity_vs_je_runs():
    trials = 10**5
    checks = []
    cell = 0
    for power_db in (-3.0, 0.0, 2.0):
        for m_total in range(1, 7):
            cell += 1
            est, est_se = prefix_sum_rate_mc(
                PowerBudget.from_db(power_db), m_total, 1.0, trials, SEED + 100 + cell
            )
            run = run_experiment(spec(JE(), power_db, m_total, trials, SEED + 200 + cell))
            gate = 3.0 * combined_se(est_se, run.rate_se)
            checks.append(
                (
                    f"M={m_total} P={power_db:+.0f}dB",
                    abs(est - run.mean_rate) <= gate,
                    f"identity {est:.5f} vs decoder {run.mean_rate:.5f} (3se {gate:.5f})",
                )
            )
    report(3, "prefix-sum rate identity", checks)


def test_c04_exact_small_deadline_pmf():
    power = PowerBudget.from_db(1.44)
    pmf = je_pmf_exact_smallM(2, power, 1.0)
    trials = 10**6
    run = run_experiment(spec(JE(), 1.44, 2, trials, SEED + 4))
    hist = np.diff(run.cmf, prepend=0.0)
    checks = [
        (
            "normalization",
            abs(pmf.probs.sum() - 1.0) <= 1e-4,
            f"sum {pmf.probs.sum():.6f} (tol 1e-4)",
        )
    ]
    for m in range(3):
        gate = 3.0 * binomial_se(pmf.probs[m], trials) + 1e-5
        checks.append(
            (
                f"bin m={m}",
                abs(hist[m] - pmf.probs[m]) <= gate,
                f"mc {hist[m]:.5f} vs quadrature {pmf.probs[m]:.5f} (3se {gate:.5f})",
            )
        )
    report(4, "exact two-block pmf", checks)


def test_c05_je_phase_transition():
    trials = 10**5
    high = run_experiment(spec(JE(), 2.0, 200, trials, SEED + 50))
    low = run_experiment(spec(JE(), -3.0, 200, trials, SEED + 51))
    checks = [
        ("above capacity margin", high.mean_rate >= 0.9, f"rate {high.mean_rate:.4f} >= 0.9"),
        ("below capacity collapse", low.mean_rate <= 0.05, f"rate {low.mean_rate:.4f} <= 0.05"),
    ]
    report(5, "joint-encoding phase transition", checks)


def test_c06_je_zero_decode_mass():
    trials = 2 * 10**5
    p0 = {}
    for tag, scheme in (
        ("je", JE()),
        ("mt", MT()),
        ("ts", TS()),
        ("gts", GTS(window=10)),
    ):
        run = run_experiment(spec(scheme, 0.0, 50, trials, SEED + 60))
        p0[tag] = float(run.cmf[0])
    checks = [
        (
            "je zero-decode probability",
            abs(p0["je"] - 0.30) <= 0.05,
            f"{p0['je']:.4f} within 0.30 +/- 0.05",
        )
    ]
    for tag in ("mt", "ts", "gts"):
        checks.append(
            (f"{tag} zero-decode", p0[tag] < 0.01, f"{p0[tag]:.5f} < 0.01")
        )
    report(6, "zero-decode mass at 0 dB", checks)


def test_c07_aje_near_bound():
    m_total, power_db = 100, 20.0
    c_bar = ergodic_capacity(PowerBudget.from_db(power_db))
    checks = []
    for idx, rate in enumerate((2.0, 4.0, 8.0)):
        run = run_experiment(spec(AJE(), power_db, m_total, 50000, SEED + 70 + idx, rate_r=rate))
        target = 0.85 * ergodic_upper_bound(rate, c_bar)
        checks.append(
            (
                f"aje vs bound at R={rate:g}",
                run.mean_rate >= target,
                f"rate {run.mean_rate:.4f} (se {run.rate_se:.4f}) vs 0.85*min(R,c_bar)={target:.4f}",
            )
        )
    rate = 8.0
    aje_run = run_experiment(spec(AJE(), power_db, m_total, 20000, SEED + 75, rate_r=rate))
    for tag, scheme in (
        ("mt", MT()),
        ("je", JE()),
        ("ts", TS()),
        ("gts", GTS(window=10)),
        ("st", ST()),
    ):
        other = run_experiment(spec(scheme, power_db, m_total, 20000, SEED + 75, rate_r=rate))
        checks.append(
            (
                f"aje dominates {tag} at R=8",
                aje_run.mean_rate >= other.mean_rate,
                f"{aje_run.mean_rate:.4f} >= {other.mean_rate:.4f}",
            )
        )
    report(7, "adaptive joint encoding near the bound", checks)


def test_c08_gts_window_trends():
    m_total, trials = 2000, 10**4
    base_high = spec(GTS(window=1), 2.0, m_total, trials, SEED + 80)
    high = dict(sweep(base_high, "window", [1, 50]))
    checks = [
        (
            "2 dB: W=50 beats W=1",
            high[50].mean_rate > high[1].mean_rate,
            f"{high[50].mean_rate:.4f} > {high[1].mean_rate:.4f}",
        ),
        (
            "2 dB: W=50 above 0.95",
            high[50].mean_rate > 0.95,
            f"{high[50].mean_rate:.4f} > 0.95",
        ),
    ]
    base_low = spec(GTS(window=1), 0.0, m_total, trials, SEED + 81)
    low = sweep(base_low, "window", [1, 2, 5, 10, 20])
    for (w_a, run_a), (w_b, run_b) in zip(low, low[1:]):
        gate = 3.0 * combined_se(run_a.rate_se, run_b.rate_se)
        checks.append(
            (
                f"0 dB: W={w_b} <= W={w_a}",
                run_b.mean_rate <= run_a.mean_rate + gate,
                f"{run_b.mean_rate:.4f} vs {run_a.mean_rate:.4f} (+3se {gate:.5f})",
            )
        )
    report(8, "windowed time-sharing trends", checks)


def test_c09_reduction_equalities():
    rng_master = SEED + 90
    per_m = 500
    counts_ok = True
    sets_ok = True
    checked = 0
    for m_total in range(1, 21):
        caps = np.empty((per_m, m_total))
        for k in range(per_m):
            caps[k] = capacities(
                FadingModel.sample_gains(trial_stream(rng_master + m_total, k), m_total),
                PowerBudget.from_db(1.44),
            )
        counts_ok &= bool(
            np.array_equal(gts_counts(caps, 1.0, 1), mt_counts(caps, 1.0))
            and np.array_equal(gts_counts(caps, 1.0, m_total), ts_counts(caps, 1.0))
        )
        for k in range(0, per_m, 10):
            real = ChannelRealization(phi=np.zeros(m_total), cap=caps[k])
            sets_ok &= decode_gts(real, 1.0, 1).decoded == decode_mt(real, 1.0).decoded
            sets_ok &= decode_gts(real, 1.0, m_total).decoded == decode_ts(real, 1.0).decoded
            checked += 1
    checks = [
        ("window=1 equals memoryless (counts, 10^4 realizations)", counts_ok, "exact equality"),
        (f"decoded sets equal on {checked} spot checks", sets_ok, "exact equality"),
    ]
    report(9, "window reductions", checks)


def test_c10_bound_dominance():
    trials, rate = 10**5, 1.0
    checks = []
    for power_db in (-3.0, 2.0, 20.0):
        c_bar = ergodic_capacity(PowerBudget.from_db(power_db))
        for m_total in (2, 10, 50):
            seed = SEED + 1000 + int(10 * power_db) + m_total
            bound_counts = decode_counts(spec(InformedBound(), power_db, m_total, trials, seed))
            worst = None
            for tag, scheme in (
                ("mt", MT()),
                ("je", JE()),
                ("aje", AJE()),
                ("ts", TS()),
                ("gts", GTS(window=min(10, m_total))),
                ("st", ST()),
            ):
                counts = decode_counts(spec(scheme, power_db, m_total, trials, seed))
                excess = int(np.sum(counts > bound_counts))
                if excess:
                    worst = f"{tag} beats the bound on {excess} trials"
            checks.append(
                (
                    f"dominance P={power_db:+.0f}dB M={m_total}",
                    worst is None,
                    worst or "no scheme exceeds the informed bound on any trial",
                )
            )
            mean_rate = bound_counts.mean() * rate / m_total
            se = bound_counts.std(ddof=1) / np.sqrt(trials) * rate / m_total
            ceiling = ergodic_upper_bound(rate, c_bar)
            checks.append(
                (
                    f"ergodic ceiling P={power_db:+.0f}dB M={m_total}",
                    mean_rate <= ceiling + 3.0 * se,
                    f"bound mean {mean_rate:.4f} <= min(R,c_bar)={ceiling:.4f} + 3se",
                )
            )
    report(10, "informed-bound dominance", checks)


def test_c11_distance_transition():
    m_total, power_db, alpha = 100, 20.0, 3.0
    je_trials = 10**5
    near = run_experiment(
        spec(JE(), power_db, m_total, je_trials, SEED + 110, distance=(4.0, alpha))
    )
    far = run_experiment(
        spec(JE(), power_db, m_total, je_trials, SEED + 111, distance=(6.0, alpha))
    )
    checks = [
        ("je near transition (d=4)", near.mean_rate >= 0.9, f"rate {near.mean_rate:.4f} >= 0.9"),
        ("je past transition (d=6)", far.mean_rate <= 0.2, f"rate {far.mean_rate:.4f} <= 0.2"),
    ]
    distances = list(range(1, 11))
    for tag, scheme in (("mt", MT()), ("ts", TS()), ("st", ST())):
        base = spec(scheme, power_db, m_total, 10**4, SEED + 112, distance=(1.0, alpha))
        rates = [run.mean_rate for _, run in sweep(base, "distance", distances)]
        jumps = np.abs(np.diff(rates))
        checks.append(
            (
                f"{tag} degrades gradually",
                bool(np.all(jumps < 0.35)),
                f"max adjacent change {jumps.max():.4f} < 0.35",
            )
        )
    report(11, "distance transition", checks)


def test_c12_st_search_sanity():
    rate = 1.0
    power_db = 2.0
    p_linear = PowerBudget.from_db(power_db).p_linear
    checks = []
    for m_total, trials in ((3, 3000), (6, 3000), (10, 4000)):
        phis = np.empty((trials, m_total))
        for k in range(trials):
            phis[k] = FadingModel.sample_gains(trial_stream(SEED + 120 + m_total, k), m_total)
        exact = st_counts(phis, p_linear, rate)
        # the decoder with decoded runs capped at 1 (size-1 subsets only) and at 4
        single_user = np.array([oracles.st_count(phi, p_linear, rate, max_run=1) for phi in phis])
        heuristic = np.array([oracles.st_count(phi, p_linear, rate, max_run=4) for phi in phis])
        checks.append(
            (
                f"exact >= single-user SIC (M={m_total})",
                bool(np.all(exact >= single_user)),
                f"violations {int(np.sum(exact < single_user))}/{trials}",
            )
        )
        checks.append(
            (
                f"heuristic <= exact (M={m_total})",
                bool(np.all(heuristic <= exact)),
                f"violations {int(np.sum(heuristic > exact))}/{trials}, "
                f"equal on {int(np.sum(heuristic == exact))}/{trials}",
            )
        )
    report(12, "superposition search sanity", checks)
