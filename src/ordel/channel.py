"""The corruption map: one deletion, then at most one erasure.

A pattern (d, e) with 1 <= d <= e <= n removes bit x_d (shifting the tail
left) and then erases what is now the e-th symbol of the shortened word,
i.e. the original bit x_{e+1}.  The boundary case e = n means the deletion
happened alone.  The deletion position is invisible to a receiver; the
erasure position is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import ReceivedWord, Word, prefix_mask

__all__ = ["CorruptionPattern", "all_patterns", "corrupt", "corrupt_batch", "corrupt_symbols",
           "draw_pattern", "pattern_count", "patterns_at"]


@dataclass(frozen=True)
class CorruptionPattern:
    """Deletion position d and erasure parameter e, 1 <= d <= e."""

    d: int
    e: int

    def __post_init__(self) -> None:
        if not 1 <= self.d <= self.e:
            raise ValueError(f"pattern must satisfy 1 <= d <= e, got (d={self.d}, e={self.e})")


def corrupt(word: Word, pattern: CorruptionPattern) -> ReceivedWord:
    """Apply a deletion-erasure pattern to a word.

    Output symbols: y_i = x_i for i < d, y_i = x_{i+1} for d <= i <= n-1,
    and y_e erased when e <= n - 1.
    """
    n = word.n
    if pattern.e > n:
        raise ValueError(f"pattern (d={pattern.d}, e={pattern.e}) invalid for word length {n}")
    symbols = corrupt_symbols(word.bits, pattern.d, pattern.e)
    return ReceivedWord(symbols, pattern.e if pattern.e < n else None)


def corrupt_symbols(bits: tuple[int, ...], d: int, e: int) -> tuple[int | None, ...]:
    """The symbols of ``corrupt``, unchecked: the caller ensures 1 <= d <= e <= len(bits)."""
    shortened = bits[: d - 1] + bits[d:]
    if e == len(bits):
        return shortened
    return shortened[: e - 1] + (None,) + shortened[e:]


def corrupt_batch(words: np.ndarray, n: int, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``corrupt`` for B packed rows (``core.pack_rows``) of length n, B values of d and of e.

    Returns the packed received words, each erased symbol stored as 0 (the form
    ``decoder.decode_batch`` takes): each row shifted one position left from x_d on.
    """
    shifted = words << 1
    shifted[:, :-1] |= words[:, 1:] >> 63
    keep, pre_e, thru_e = prefix_mask((d - 1, e - 1, e), words.shape[1])
    # position e - 1 is cleared; for e = n that is position n - 1, a pad bit
    return (words & keep | shifted & ~keep) & ~(thru_e ^ pre_e)


def all_patterns(n: int) -> list[CorruptionPattern]:
    """All n(n+1)/2 valid patterns for word length n, in (d, e) lexicographic order."""
    if n < 3:
        raise ValueError(f"word length must be >= 3, got {n}")
    return [CorruptionPattern(d, e) for d in range(1, n + 1) for e in range(d, n + 1)]


def pattern_count(n: int) -> int:
    """n(n+1)/2, the number of patterns; n + 1 >= 2^31 raises, as ``patterns_at`` needs."""
    if n + 1 >= 2**31:
        raise ValueError(f"n = {n} is past n + 1 < 2^31, which keeps int64 pattern indices exact")
    return n * (n + 1) // 2


def patterns_at(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the patterns at 0-based positions ``index`` of ``all_patterns(n)``.

    Counted from the end, where d = n, n-1, ... hold 1, 2, ... patterns, q =
    n(n+1)/2 - 1 - index lies in the block d = n - j, j the triangular root
    of q.  A float64 root, corrected by one either way in int64, is exact
    while n(n+1)/2 < 2^62: for every n that ``pattern_count`` accepts.
    """
    q = pattern_count(n) - 1 - np.asarray(index, np.int64)
    j = ((np.sqrt(8.0 * q + 1) - 1) // 2).astype(np.int64)
    j -= j * (j + 1) // 2 > q
    j += (j + 1) * (j + 2) // 2 <= q
    return n - j, n - (q - j * (j + 1) // 2)


def draw_pattern(rng: random.Random, n: int) -> CorruptionPattern:
    """Draw one uniform pattern from an existing generator.

    Rejection sampling: draw (d, e) uniformly on the full square and retry
    until d <= e, leaving the pair uniform over the n(n+1)/2 valid patterns.
    """
    while True:
        d = rng.randint(1, n)
        e = rng.randint(1, n)
        if d <= e:
            return CorruptionPattern(d, e)
