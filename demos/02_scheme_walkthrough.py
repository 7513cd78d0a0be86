"""Decode one channel realization under every scheme, step by step.

A message of rate R arrives at the start of each block; all of them share
the deadline at the end of block M.  Each scheme allocates the M blocks
differently, so the same realization decodes differently.
"""

import numpy as np

from fadestream import (
    AJE,
    GTS,
    JE,
    MT,
    ST,
    TS,
    ChannelRealization,
    InformedBound,
    PowerBudget,
    decode,
)

RATE = 1.0

# a hand-picked capacity pattern: strong, weak, weak, strong, average
caps = np.array([1.9, 0.55, 0.75, 2.1, 0.95])
real = ChannelRealization(phi=(2.0**caps - 1.0), cap=caps)
power = PowerBudget(1.0)

print(f"capacities: {caps} bpcu, message rate R = {RATE}")
print()

rows = [
    ("mt (own block only)", decode(MT(), real, RATE)),
    ("je (joint prefix)", decode(JE(), real, RATE)),
    ("aje (keep first 4)", decode(AJE(m_prime=4), real, RATE)),
    ("ts (equal shares)", decode(TS(), real, RATE)),
    ("gts (window 2)", decode(GTS(window=2), real, RATE)),
    ("st (superposition)", decode(ST(), real, RATE, power)),
    ("informed bound", decode(InformedBound(), real, RATE)),
]
for name, out in rows:
    decoded = sorted(out.decoded) or "-"
    print(f"{name:22s} decoded {str(decoded):22s} rate {out.rate:.2f}")

print("""
Notes on what happened:
 * mt decodes exactly the blocks above the rate (1, 4), nothing else.
 * je pools blocks: the weak blocks 2 and 3 ride on the strong ones, but the
   whole prefix must stay feasible, so the short block 5 caps it at 4.
""".rstrip())

# joint information accounting for superposition decoding
print("\n== superposition subset capacities on a 2-block toy case ==")
power = PowerBudget(2.0)
toy = ChannelRealization.from_gains([1.0, 1.0], power)
# equal power split: message i gets P/t in every block t >= i
t = np.arange(1, 3)
alloc = np.where(np.arange(1, 3)[:, None] <= t, power.p_linear / t, 0.0)
print("power allocation (rows: messages, cols: blocks):")
print(alloc)
for subset in ([1], [2], [1, 2]):
    # sum_t log2(1 + phi_t S_t / (1 + phi_t N_t)): S_t the subset's power in
    # block t, N_t that of the other message, treated as noise
    s_pow = alloc[[i - 1 for i in subset]].sum(axis=0)
    n_pow = alloc.sum(axis=0) - s_pow
    c = np.log2(1.0 + toy.phi * s_pow / (1.0 + toy.phi * n_pow)).sum()
    print(f"C({subset}) treating the rest as noise = {c:.3f} bpcu")
out = decode(ST(), toy, 1.0, power)
print(f"greedy subset decoding at R=1 recovers {sorted(out.decoded)}:")
print("message 1 decodes alone, is subtracted, and message 2 then sees a")
print("clean block whose capacity exactly meets the rate.")
