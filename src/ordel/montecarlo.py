"""Seeded Monte Carlo round trips through the channel and decoder.

One trial draws a codeword, corrupts it with a uniform random pattern,
decodes, and compares.  Two ways to draw the codeword:

* default: draw a uniform word and adopt the parameter class it already
  belongs to (a1 = bit sum mod 3, a2 = weighted sum mod n+1) — every word is
  a member of exactly one class, so this samples (class, member) pairs
  without any rejection and scales to large n;
* fixed class: with a1/a2 given, rejection-sample uniform words until one
  satisfies both congruences.  Acceptance is roughly 1/(3(n+1)), so this is
  for small n.

All randomness comes from one `random.Random(seed)` in a fixed draw order
(per batch: the words, as ``getrandbits`` of all their bits, then one
``draw_pattern`` per trial), so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .channel import corrupt, corrupt_batch, draw_pattern
from .core import CodeParams, Word
from .decoder import BATCH_BITS, Recovered, decode, decode_batch, row_sums


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


def _draw_codewords(
    rng: random.Random, n: int, count: int, rows: int, a1: int | None, a2: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` words and their classes (a1 values, a2 values).

    Without a fixed class each word adopts its own.  With one, words are
    drawn ``rows`` at a time and the members kept; a run of 300(n+1) draws
    without a member raises (acceptance is ~1/(3(n+1)), so far beyond that
    the class is empty or near-empty and the sampler would spin forever).
    """
    if a1 is None:
        words = _draw_words(rng, count, n)
        bit_sum, weighted = row_sums(words, 1)
        return words, bit_sum % 3, weighted % (n + 1)
    limit = 300 * (n + 1)
    found: list[np.ndarray] = []
    have = since = 0
    while have < count:
        words = _draw_words(rng, rows, n)
        bit_sum, weighted = row_sums(words, 1)
        hits = np.flatnonzero((bit_sum % 3 == a1) & (weighted % (n + 1) == a2))
        # draws without a member: before each hit, and after the last one
        edges = [-1 - since, *hits.tolist(), rows]
        gap = max(b - a - 1 for a, b in zip(edges, edges[1:]))
        if gap >= limit:
            raise ValueError(
                f"no member of class (a1={a1}, a2={a2}) found in {gap} consecutive "
                f"draws; the class is empty or near-empty"
            )
        since = rows - 1 - edges[-2]
        found.append(words[hits])
        have += hits.size
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
    and ``decode_batch``; the first failing trial, if any, is decoded again by
    the scalar ``decode`` to describe it.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if (a1 is None) != (a2 is None):
        raise ValueError("a1 and a2 must be given together")
    if a1 is not None:
        CodeParams(n, a1, a2)  # rejects residues outside 0..2 and 0..n
        mode = f"rejection(a1={a1},a2={a2})"
    else:
        mode = "per-word-class"
    rng = random.Random(seed)
    rows = max(1, BATCH_BITS // n)
    failures = 0
    first_failure: str | None = None
    for done in range(0, trials, rows):
        count = min(rows, trials - done)
        words, s1, s2 = _draw_codewords(rng, n, count, rows, a1, a2)
        patterns = [draw_pattern(rng, n) for _ in range(count)]
        d = np.array([p.d for p in patterns])
        e = np.array([p.e for p in patterns])
        decoded, _, status = decode_batch(corrupt_batch(words, d, e), e, s1, s2)
        bad = np.flatnonzero((status < 1) | (decoded != words).any(axis=1))
        failures += bad.size
        if bad.size and first_failure is None:
            i = bad[0]
            word, pattern = Word(tuple(words[i].tolist())), patterns[i]
            params = CodeParams(n, int(s1[i]), int(s2[i]))
            outcome = decode(corrupt(word, pattern), params)
            got = outcome.word.render() if isinstance(outcome, Recovered) else outcome.reason
            first_failure = (
                f"x={word.render()} d={pattern.d} e={pattern.e} "
                f"a1={params.a1} a2={params.a2} got={got}"
            )
    return TrialReport(n, trials, seed, mode, failures, first_failure)
