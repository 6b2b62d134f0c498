"""Small numerical helpers used throughout the package."""
from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 63) - 1


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator derived from a base seed plus a stream path.

    Distinct paths give statistically independent generators for the same
    base seed, which keeps e.g. weight initialisation and Gibbs noise
    decoupled while everything stays reproducible. Two paths are distinct
    only if their SeedSequence entropy differs: each value is taken modulo
    2**63 and split into its 32-bit words, with high zero words dropped, and
    the joined words are padded with zeros. So trailing zero tags change
    nothing, rng_from(s, 61, 0) is rng_from(s, 61), and a value of 2**32 or
    more runs into the next tag: rng_from(3 + 61 * 2**32) is rng_from(3, 61)
    and rng_from(s, 2**32) is rng_from(s, 0, 1).
    """
    entropy = [int(seed) & _SEED_MASK] + [int(s) & _SEED_MASK for s in stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Refuse a bool, a non-integer, or an integer below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def log_mean_exp(values) -> float:
    """log of the arithmetic mean of exp(values), computed stably."""
    values = np.asarray(values, dtype=np.float64)
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.mean(np.exp(values - m))))
