"""Redundancy bounds, run statistics, and the bounds table.

The constructive upper bound log2(3(n+1)) comes straight from the pigeonhole
class size; the converse lower bound log2(n - 1 - 2*sqrt((n-1) * log2 n))
holds for large n because any code correcting these corruptions also corrects
a lone deletion, and single-deletion balls of typical words are large (a
word's deletion ball has exactly one element per run).  All logarithms are
base two, including the one inside the square root.

Run tallies over all 2^n words are exact binomial counts: a word with r runs
is fixed by its first bit and the r - 1 of the n - 1 adjacent pairs that
differ, so exactly 2 * C(n-1, r-1) words have r runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import check_length
from .vt_code import check_count

__all__ = ["BoundsRow", "RunStats", "bounds_csv", "bounds_table", "redundancy_lower_bound",
           "redundancy_upper_bound", "run_stats", "run_threshold"]

MIN_BOUND_ARGUMENT = 1.0


class BoundsRow(NamedTuple):
    """One table row; lower_bits/gap_bits are None below the bound's validity range."""

    n: int
    upper_bits: float
    lower_bits: float | None
    gap_bits: float | None


class RunStats(NamedTuple):
    """Exact run-count statistics over all 2^n words."""

    n: int
    words: int
    total_runs: int
    mean_runs: float
    threshold: float
    high_run_count: int
    high_run_fraction: float


def redundancy_upper_bound(n: int) -> float:
    """log2(n+1) + log2(3): redundancy achieved by the best parameter class."""
    check_length(n)
    return math.log2(n + 1) + math.log2(3)


def redundancy_lower_bound(n: int) -> float | None:
    """log2(n - 1 - 2*sqrt((n-1)*log2 n)) where defined, else None.

    The bound is asymptotic; below the point where the log argument exceeds 1
    it says nothing, and None is returned rather than an error.
    """
    check_length(n)
    # in units of 2^s, so that huge n never meets a float; s = 0 up to n ~ 10^301
    s = max(0, (n - 1).bit_length() - 1000)
    m = (n - 1) / 2**s
    argument = m - 2.0 * math.sqrt(m * math.ldexp(math.log2(n), -s))
    if argument <= math.ldexp(MIN_BOUND_ARGUMENT, -s):
        return None
    return s + math.log2(argument)


def run_threshold(n: int) -> float:
    """(n-1)/2 - sqrt(2(n-1) * log2 n); words with at least this many runs are 'typical'.

    Negative for small n, in which case every word qualifies.
    """
    check_length(n)
    return (n - 1) / 2.0 - math.sqrt(2.0 * (n - 1) * math.log2(n))


def run_stats(n: int) -> RunStats:
    """Exact run-count tallies over all 2^n words, for 3 <= n <= ``vt_code.COUNT_LIMIT``."""
    check_count(n)
    threshold = run_threshold(n)
    words = 1 << n
    # one run per word, plus one per differing adjacent pair; each of the
    # n - 1 pairs differs in half the words
    total_runs = (n + 1) << (n - 1)
    high = sum(2 * math.comb(n - 1, r - 1) for r in range(1, n + 1) if r >= threshold)
    return RunStats(
        n=n,
        words=words,
        total_runs=total_runs,
        mean_runs=total_runs / words,
        threshold=threshold,
        high_run_count=high,
        high_run_fraction=high / words,
    )


def bounds_table(n_values: list[int]) -> list[BoundsRow]:
    """Upper/lower redundancy bounds and their gap for each requested n."""
    rows = []
    for n in n_values:
        upper = redundancy_upper_bound(n)
        lower = redundancy_lower_bound(n)
        gap = None if lower is None else upper - lower
        rows.append(BoundsRow(n, upper, lower, gap))
    return rows


def bounds_csv(rows: list[BoundsRow]) -> str:
    """CSV with header n,upper_bits,lower_bits,gap_bits; undefined fields empty."""

    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.6f}"

    lines = ["n,upper_bits,lower_bits,gap_bits"]
    lines.extend(
        f"{r.n},{fmt(r.upper_bits)},{fmt(r.lower_bits)},{fmt(r.gap_bits)}" for r in rows
    )
    return "\n".join(lines)
