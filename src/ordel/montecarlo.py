"""Seeded Monte Carlo round trips through the channel and decoder.

One trial draws a codeword, corrupts it with a uniform random pattern,
decodes, and compares.  Two ways to draw the codeword:

* default: draw a uniform word and adopt the parameter class it already
  belongs to (a1 = bit sum mod 3, a2 = weighted sum mod n+1) — every word is
  a member of exactly one class, so this samples (class, member) pairs
  without any rejection and scales to large n;
* fixed class: with a1/a2 given, keep a uniform word's bits outside L
  completion positions and fill those from a table of the 2^L completions,
  rejecting with the probability that keeps members uniform (``_complete``).

Words are packed rows (``core.pack_rows``).  All randomness comes from one
`random.Random(seed)`, per batch ``getrandbits`` calls for the words, for a fixed class
their u, and the patterns, each sized to suffice: reports repeat byte for byte.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .core import CodeParams, check_length, prefix_mask
from .decoder import BATCH_WORDS, round_trip, row_sums
from .vt_code import class_sizes, subset_buckets

__all__ = ["TrialReport", "run_trials"]


class TrialReport(NamedTuple):
    n: int
    trials: int
    seed: int
    mode: str
    failures: int
    first_failure: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        line = f"n={self.n} trials={self.trials} seed={self.seed} mode={self.mode} failures={self.failures}"
        if self.first_failure is not None:
            line += f"\nfirst_failure: {self.first_failure}"
        return line


def _draw_words(rng: random.Random, rows: int, width: int) -> np.ndarray:
    """``rows`` x ``width`` uniform uint64 words from one ``getrandbits`` call."""
    raw = rng.getrandbits(64 * rows * width).to_bytes(8 * rows * width, "little")
    return np.frombuffer(raw, "<u8").reshape(rows, width)


def _sized(need: int, rate: float, width: int) -> int:
    """Draws for ``need`` rows kept at ``rate``, with 3 sd to spare, 1/``width`` of that for wider rows."""
    return int((need + 3 * need**0.5 / width) / rate) + 1


def _draw_below(rng: random.Random, count: int, bound: int) -> np.ndarray:
    """``count`` uniform values below ``bound``: top k bits of words, 2^k >= bound, kept below it."""
    k, found = (bound - 1).bit_length(), []
    while (need := count - sum(map(len, found))) > 0:
        top = _draw_words(rng, _sized(need, bound / 2**k, 1), 1)[:, 0] >> np.uint64(64 - k)
        found.append(top[top < bound])
    return np.concatenate(found)[:count].astype(np.int64)


def _draw_patterns(rng: random.Random, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of ``count`` uniform patterns: a value below n(n+1) is an ordered pair of distinct
    values of 0..n, so each lo < hi comes twice, as (lo + 1, hi); n <= 2^31 - 64 keeps n(n+1) < 2^62."""
    a, b = np.divmod(_draw_below(rng, count, n * (n + 1)), n)  # a < n + 1, b < n
    b += b >= a  # b skips a: a distinct pair
    return np.minimum(a, b) + 1, np.maximum(a, b)


def _completions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The completion table at length n: (spots, order, start, M), M its largest bucket.

    Row j of ``spots`` sets the j-th of L positions alone: every power of two <= n, whose
    subsets reach every weighted residue, then the smallest others.  Their 2^L subsets
    are bucketed by ``vt_code.subset_buckets``, as in class listing.
    """
    b = n.bit_length()
    if b > 22:  # the limit: 2^L entries, L = b past n = 2^15, take 0.3-0.6 s and 163 MB at L = 22
        raise ValueError(f"n = {n} is past n < 2^22, the limit of the fixed-class completion table")
    size = min(n, max(b, min(16, b + 5)))
    others = [i for i in range(3, 3 * size) if i & (i - 1)][: size - b]
    cols = np.array(sorted(others + [1 << j for j in range(b)]))
    buckets = subset_buckets(cols.tolist(), n + 1)  # first: spots held would add to its peak
    return (np.bitwise_xor(*prefix_mask((cols, cols - 1), -(-n // 64))), *buckets)


def _complete(table, words: np.ndarray, n: int, u: np.ndarray, a1: int, a2: int) -> np.ndarray:
    """The members that packed rows (free bits, u) select, in row order; a pure function.

    A row is kept iff u < the size of the bucket its bits outside the spots need, completed
    by the bucket's entry u, whose bits pick spots (summed by a matmul, as bits are distinct):
    one (free bits, u) per member, so uniform.
    """
    spots, order, start, _ = table
    free = words & ~np.bitwise_or.reduce(spots)
    bit_sum, weighted = row_sums(free, n, 1)
    key = (a1 - bit_sum) % 3 * (n + 1) + (a2 - weighted) % (n + 1)
    ok = u < start[key + 1] - start[key]
    fill = order[start[key[ok]] + u[ok], None] >> np.arange(len(spots)) & 1
    return free[ok] | fill.view(np.uint64) @ spots  # 0/1 int64, so a view reads the same


def _draw_codewords(
    rng: random.Random, n: int, count: int, a1: int | None, a2: int | None, table
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` words and their classes (a1 values, a2 values): each word's own, or a1/a2."""
    width = -(-n // 64)
    inside = prefix_mask(n, width)  # a row's n positions, not its pad
    if a1 is None:
        words = _draw_words(rng, count, width) & inside
        bit_sum, weighted = row_sums(words, n, 1)
        return words, bit_sum % 3, weighted % (n + 1)
    # a (free bits, u) pair is kept at about the mean bucket, 2^L / 3(n + 1), over M
    found, rate = [], len(table[1]) / (3 * n + 3) / table[3]
    while (need := count - sum(map(len, found))) > 0:  # size words, then their u below M
        size = _sized(need, rate, width)
        words, u = _draw_words(rng, size, width) & inside, _draw_below(rng, size, table[3])
        found.append(_complete(table, words, n, u, a1, a2))
    return np.concatenate(found)[:count], np.full(count, a1), np.full(count, a2)


def run_trials(
    n: int,
    trials: int,
    seed: int,
    a1: int | None = None,
    a2: int | None = None,
) -> TrialReport:
    """Round-trip `trials` random corruptions at length n; count decode failures.

    Trials run in batches of BATCH_WORDS // ceil(n / 64) words through ``decoder.round_trip``,
    which describes the first failing trial by the decoded word or failure reason it got.
    """
    check_length(n)
    if n > 2**31 - 64:  # a row's 64 * ceil(n / 64) bits come from one getrandbits call
        raise ValueError(f"n = {n} is past n <= 2^31 - 64, the most bits one getrandbits call draws")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if (a1 is None) != (a2 is None):
        raise ValueError("a1 and a2 must be given together")
    mode, table = "per-word-class", None
    if a1 is not None:
        CodeParams(n, a1, a2)  # rejects residues outside 0..2 and 0..n
        # no class is empty from n = 13 on: a subset of 7..n meets any weighted
        # residue, then {6}, {1, 5} or {1, 2, 3} adds 6 and the bit-sum residue
        if n < 13 and class_sizes(n)[a1, a2] == 0:
            raise ValueError(f"class (n={n}, a1={a1}, a2={a2}) is empty: no word has both residues")
        mode, table = f"rejection(a1={a1},a2={a2})", _completions(n)
    rng = random.Random(seed)
    rows = max(1, BATCH_WORDS // -(-n // 64))
    failures = 0
    first_failure: str | None = None
    for done in range(0, trials, rows):
        count = min(rows, trials - done)
        words, s1, s2 = _draw_codewords(rng, n, count, a1, a2, table)
        d, e = _draw_patterns(rng, count, n)
        # kernel held to the next batch: freed, glibc trims the heap and the next batch refaults it
        bad, first, kernel = round_trip(words, n, d, e, s1, s2)
        failures += bad.size
        if first is not None and first_failure is None:
            i, x, got = first
            first_failure = f"x={x} d={d[i]} e={e[i]} a1={s1[i]} a2={s2[i]} got={got}"
    return TrialReport(n, trials, seed, mode, failures, first_failure)
