"""Monte Carlo study of streaming transmission over block fading channels.

A transmitter receives one fixed-rate message per channel block and must
deliver as many as possible by a common deadline M blocks later.  This
package samples block fading channels, decodes them under six transmission
schemes (memoryless, joint encoding, adaptive joint encoding, time sharing,
windowed time sharing, superposition), and compares the average decoded rate
and decode-count distribution against the informed-transmitter and ergodic
upper bounds.
"""

__version__ = "0.1.0"

from .analytic import (
    DecodeCountPmf,
    je_pmf_exact_smallM,
    mt_pmf_exact,
    mt_success_prob,
)
from .bounds import InformedBound, ergodic_upper_bound, informed_upper_bound
from .channel import (
    ChannelRealization,
    PowerBudget,
    QuadratureError,
    capacity_moments,
    effective_power,
    ergodic_capacity,
    rayleigh_ergodic_closed_form,
    sample_realization,
    trial_stream,
)
from .engine import (
    ExperimentResult,
    ExperimentSpec,
    optimal_window,
    run_experiment,
    run_specs,
    sweep,
)
from .schemes import (
    AJE,
    GTS,
    JE,
    MT,
    ST,
    TS,
    DecodeOutcome,
    choose_m_prime,
    decode_aje,
    decode_gts,
    decode_je,
    decode_mt,
    decode_st,
    decode_ts,
    st_power_allocation,
    st_subset_capacity,
)

__all__ = [
    "AJE",
    "ChannelRealization",
    "DecodeCountPmf",
    "DecodeOutcome",
    "ExperimentResult",
    "ExperimentSpec",
    "GTS",
    "InformedBound",
    "JE",
    "MT",
    "PowerBudget",
    "QuadratureError",
    "ST",
    "TS",
    "capacity_moments",
    "choose_m_prime",
    "decode_aje",
    "decode_gts",
    "decode_je",
    "decode_mt",
    "decode_st",
    "decode_ts",
    "effective_power",
    "ergodic_capacity",
    "ergodic_upper_bound",
    "informed_upper_bound",
    "je_pmf_exact_smallM",
    "mt_pmf_exact",
    "mt_success_prob",
    "optimal_window",
    "rayleigh_ergodic_closed_form",
    "run_experiment",
    "run_specs",
    "sample_realization",
    "st_power_allocation",
    "st_subset_capacity",
    "sweep",
    "trial_stream",
]
