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

All randomness comes from one `random.Random(seed)` in a fixed draw order (per
batch: ``getrandbits`` for the words' bits, for a fixed class then for their u,
and one ``randrange`` pattern index per trial): reports repeat byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .channel import corrupt_batch, patterns_at
from .core import CodeParams, render_bits
from .decoder import BATCH_BITS, FAILURE_STATUS, check_batch_length, decode_batch, row_sums
from .vt_code import class_sizes, subset_buckets


@dataclass(frozen=True)
class TrialReport:
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


def _draw_words(rng: random.Random, rows: int, n: int) -> np.ndarray:
    """``rows`` uniform words as a (rows, n) 0/1 uint8 array, from rows * n fresh bits."""
    count = rows * n
    raw = rng.getrandbits(count).to_bytes((count + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=count, bitorder="little")
    return bits.reshape(rows, n)


def _completions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The completion table at length n: (cols, order, start, k).

    ``cols`` are the 0-based columns of L positions: every power of two <= n,
    whose subsets reach every weighted residue, then the smallest others.
    Their 2^L subsets are bucketed by ``vt_code.subset_buckets``, as in class listing.
    """
    b = n.bit_length()
    size = min(n, max(b, min(16, b + 5)))
    others = [i for i in range(3, 3 * size) if i & (i - 1)][: size - b]
    cols = np.array(sorted(others + [1 << j for j in range(b)]))
    order, start = subset_buckets(cols, n + 1)
    k = int(np.diff(start).max() - 1).bit_length()  # 2^k >= the largest bucket
    return cols - 1, order, start, k


def _complete(table, words: np.ndarray, u: np.ndarray, a1: int, a2: int) -> np.ndarray:
    """The members that rows (free bits, u) select, in row order; a pure function.

    A row is kept iff u < the size of the bucket its bits outside ``cols`` need,
    completed by the bucket's entry u: one (free bits, u) per member, so uniform.
    """
    cols, order, start, _ = table
    m = words.shape[1] + 1
    free = words.copy()
    free[:, cols] = 0
    bit_sum, weighted = row_sums(free, 1)
    key = (a1 - bit_sum) % 3 * m + (a2 - weighted) % m
    ok = u < start[key + 1] - start[key]
    kept = free[ok]
    kept[:, cols] = order[start[key[ok]] + u[ok], None] >> np.arange(cols.size) & 1
    return kept


def _draw_codewords(
    rng: random.Random, n: int, count: int, a1: int | None, a2: int | None, table
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` words and their classes (a1 values, a2 values): each word's own, or a1/a2."""
    if a1 is None:
        words = _draw_words(rng, count, n)
        bit_sum, weighted = row_sums(words, 1)
        return words, bit_sum % 3, weighted % (n + 1)
    found: list[np.ndarray] = []
    while sum(map(len, found)) < count:  # count words, then their k-bit values of u
        words, u_bits = _draw_words(rng, count, n), _draw_words(rng, count, table[3])
        found.append(_complete(table, words, u_bits @ (1 << np.arange(table[3])), a1, a2))
    return np.concatenate(found)[:count], np.full(count, a1), np.full(count, a2)


def run_trials(
    n: int,
    trials: int,
    seed: int,
    a1: int | None = None,
    a2: int | None = None,
) -> TrialReport:
    """Round-trip `trials` random corruptions at length n; count decode failures.

    Trials run in batches of BATCH_BITS // n words through ``corrupt_batch``
    and ``decode_batch``; the first failing trial, if any, is described by
    what the kernel returned for it: the decoded word, or its failure reason.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    check_batch_length(n)
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
    rows = max(1, BATCH_BITS // n)
    failures = 0
    first_failure: str | None = None
    for done in range(0, trials, rows):
        count = min(rows, trials - done)
        words, s1, s2 = _draw_codewords(rng, n, count, a1, a2, table)
        d, e = patterns_at([rng.randrange(n * (n + 1) // 2) for _ in range(count)], n)
        decoded, _, status = decode_batch(corrupt_batch(words, d, e), e, s1, s2)
        bad = np.flatnonzero((status < 1) | (decoded != words).any(axis=1))
        failures += bad.size
        if bad.size and first_failure is None:
            i = bad[0]
            got = render_bits(decoded[i]) if status[i] > 0 else FAILURE_STATUS[status[i]]
            first_failure = (
                f"x={render_bits(words[i])} d={d[i]} e={e[i]} a1={s1[i]} a2={s2[i]} got={got}"
            )
    return TrialReport(n, trials, seed, mode, failures, first_failure)
