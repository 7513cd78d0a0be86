"""Standard-error arithmetic for the tests' Monte Carlo gates."""

import numpy as np


def binomial_se(p_hat: float, trials: int) -> float:
    """Standard error of a probability estimated from `trials` indicators."""
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))


def combined_se(*ses: float) -> float:
    """Standard error of a difference of independent estimates."""
    return float(np.sqrt(sum(se**2 for se in ses)))
