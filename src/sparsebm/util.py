"""Small numerical helpers used throughout the package, and the text codec
that every input file is read through."""
from __future__ import annotations

import contextlib
import warnings

import numpy as np

from .errors import FileFormatError

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


@contextlib.contextmanager
def open_text(path):
    """path opened as UTF-8 text; a file that is not, however much of it the
    with block reads, is refused naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_text(path, first_line: bool = False) -> str:
    """A file's text, or only its first line, through open_text."""
    with open_text(path) as fh:
        return fh.readline() if first_line else fh.read()


def read_columns(rows, dtype):
    """The columns of one np.loadtxt call over rows, lines of text or an open
    file: one per field of a structured dtype, else the one. This is the
    number grammar of every input: whitespace separates values, blank rows
    are skipped, an integer is an optionally signed run of ASCII digits and a
    float must be finite. None where the call refuses a row."""
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads "3.0" as an integer with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            # no rows is no error here
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
    except UnicodeDecodeError:
        # a ValueError too, but open_text refuses it naming the file
        raise
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    cols = [table[n] for n in table.dtype.names] if table.dtype.names else [table]
    # nan, inf and a float that overflows are refused
    return cols if all(np.isfinite(c).all() for c in cols if c.dtype.kind == "f") else None


def first_refused(lines, dtype) -> int:
    """The index of the first of lines that read_columns refuses alone. A
    refused call over the lines, or over the values they hold, has one."""
    return next(i for i, line in enumerate(lines) if read_columns([line], dtype) is None)
