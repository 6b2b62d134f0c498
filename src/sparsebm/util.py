"""Small numerical helpers used throughout the package."""
from __future__ import annotations

import numpy as np
from scipy.special import expit

_SEED_MASK = (1 << 63) - 1


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator derived from a base seed plus a stream path.

    Distinct stream tags give statistically independent generators for the
    same base seed, which keeps e.g. weight initialisation and Gibbs noise
    decoupled while everything stays reproducible.
    """
    entropy = [int(seed) & _SEED_MASK] + [int(s) & _SEED_MASK for s in stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Refuse a bool, a non-integer, or an integer below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def sigmoid(x):
    """Numerically stable logistic function."""
    return expit(x)


def log_mean_exp(values) -> float:
    """log of the arithmetic mean of exp(values), computed stably."""
    values = np.asarray(values, dtype=np.float64)
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.mean(np.exp(values - m))))
