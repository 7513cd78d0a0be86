"""Block fading basics: sampling realizations and capacity statistics.

The channel model is mutual-information level: each block has a random power
gain, and a transmission at linear SNR P sees log2(1 + gain * P) bits per
channel use.  This script samples a few realizations, then checks the
quadrature ergodic capacity against the closed form and shows how path loss
moves the operating point.
"""

import numpy as np

from fadestream import (
    PowerBudget,
    capacity_moments,
    effective_power,
    ergodic_capacity,
    rayleigh_ergodic_closed_form,
    sample_realization,
    trial_stream,
)

print("== one realization per trial stream ==")
power = PowerBudget.from_db(2.0)
for trial in range(3):
    real = sample_realization(power, 6, trial_stream(master_seed=42, trial=trial))
    with np.printoptions(precision=3, suppress=True):
        print(f"trial {trial}: gains {real.phi}  capacities {real.cap} bpcu")

print("\n== ergodic capacity: quadrature vs closed form ==")
print(f"{'SNR (dB)':>8} {'quadrature':>11} {'closed form':>12} {'std dev':>9}")
for db in (-3.0, 0.0, 1.44, 2.0, 20.0):
    p = PowerBudget.from_db(db)
    c_q = ergodic_capacity(p)
    c_f = rayleigh_ergodic_closed_form(p)
    sd = np.sqrt(capacity_moments(p)[1])
    print(f"{db:8.2f} {c_q:11.4f} {c_f:12.4f} {sd:9.4f}")

print("\n== path loss drags the mean capacity below the message rate ==")
base = PowerBudget.from_db(20.0)
print(f"{'distance':>8} {'eff. SNR (dB)':>14} {'mean capacity':>14}")
for d in (1, 2, 4, 5, 6, 8):
    received = effective_power(base, distance=d, path_loss_exponent=3.0)
    print(f"{d:8d} {received.db:14.2f} {ergodic_capacity(received):14.4f}")
print("\nwith rate 1 bpcu, the mean capacity crosses 1 between d=4 and d=5;")
print("the joint-encoding scheme collapses right there (see demo 04).")
