"""Adaptive joint encoding against the upper bounds, and the distance cliff.

Reproduces the two headline comparisons at desk scale and saves a figure:
 1. mean decoded rate vs message rate at high SNR, where adaptive joint
    encoding rides close to min(R, mean capacity) while plain joint encoding
    falls off a cliff;
 2. mean decoded rate vs distance, where the joint-encoding cliff sits at
    the distance where the mean capacity crosses the message rate, while
    the other schemes degrade gradually.
"""

from fadestream import (
    AJE,
    JE,
    MT,
    TS,
    ST,
    ExperimentSpec,
    InformedBound,
    PowerBudget,
    effective_power,
    ergodic_capacity,
    ergodic_upper_bound,
    sweep,
)

TRIALS = 3000
SCHEMES = (("mt", MT()), ("je", JE()), ("aje", AJE()), ("ts", TS()), ("st", ST()),
           ("bound", InformedBound()))


def base_spec(scheme, *, rate=1.0, distance=None, seed=11):
    return ExperimentSpec(
        power_db=20.0,
        m_total=100,
        rate_r=rate,
        scheme=scheme,
        trials=TRIALS,
        master_seed=seed,
        distance=distance,
    )


c_bar = ergodic_capacity(PowerBudget.from_db(20.0))
print(f"mean capacity at 20 dB: {c_bar:.3f} bpcu")

print("\n== mean decoded rate vs message rate (M=100, 20 dB) ==")
rates = [1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]
curves = {}
for tag, scheme in SCHEMES:
    curves[tag] = [run.mean_rate for _, run in sweep(base_spec(scheme), "rate_r", rates)]
header = f"{'R':>5} " + " ".join(f"{tag:>7}" for tag, _ in SCHEMES) + f" {'min(R,C)':>9}"
print(header)
for i, r in enumerate(rates):
    row = f"{r:5.1f} " + " ".join(f"{curves[tag][i]:7.3f}" for tag, _ in SCHEMES)
    print(row + f" {ergodic_upper_bound(r, c_bar):9.3f}")
print("adaptive joint encoding keeps the message count that maximizes its predicted")
print("decoded count and stays near both bounds; plain joint encoding dies past R ~ 6.")

print("\n== mean decoded rate vs distance (R=1, path loss exponent 3) ==")
distances = list(range(1, 11))
dist_curves = {}
for tag, scheme in SCHEMES:
    base = base_spec(scheme, distance=(1.0, 3.0), seed=13)
    dist_curves[tag] = [run.mean_rate for _, run in sweep(base, "distance", distances)]
print(f"{'d':>3} " + " ".join(f"{tag:>7}" for tag, _ in SCHEMES) + f" {'mean cap':>9}")
for i, d in enumerate(distances):
    received = effective_power(PowerBudget.from_db(20.0), d, 3.0)
    row = f"{d:3d} " + " ".join(f"{dist_curves[tag][i]:7.3f}" for tag, _ in SCHEMES)
    print(row + f" {ergodic_capacity(received):9.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.2))
    for tag, _ in SCHEMES:
        ax1.plot(rates, curves[tag], marker="o", label=tag)
    ax1.plot(rates, [ergodic_upper_bound(r, c_bar) for r in rates], "k--", label="min(R, C)")
    ax1.set_xlabel("message rate R (bpcu)")
    ax1.set_ylabel("mean decoded rate (bpcu)")
    ax1.set_title("rate sweep, M=100, 20 dB")
    ax1.legend(fontsize=8)
    for tag, _ in SCHEMES:
        ax2.plot(distances, dist_curves[tag], marker="o", label=tag)
    ax2.set_xlabel("distance")
    ax2.set_ylabel("mean decoded rate (bpcu)")
    ax2.set_title("distance sweep, R=1, path loss 3")
    ax2.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo04_bounds_and_adaptation.png", dpi=130)
    print("\nsaved demo04_bounds_and_adaptation.png")
except ImportError:
    print("\nmatplotlib not installed; skipped the figure")
