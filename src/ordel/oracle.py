"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` inserts a bit into y once per run it could join, fills the erasure, and
keeps the candidates that meet the class's two congruences (summed by definition) and re-corrupt to
y: O(n^2) work, no codebook rows.  Each sweep takes only the rows (codeword, d <= e) whose d starts
a run, in the order it reports.  The keyed sweeps, ``verify_code`` and ``deletion_balls_disjoint``,
corrupt each run start once, at e = n (pool e is those keys with position e erased), and look for a
key two codewords share.  As ``brute_force_decode``, they take nothing from ``decoder`` and touch
no checksum, so their agreement with it, which ``verify_decoder`` checks on every run-start row, is
genuine evidence.  ``check_rows`` charges |C| * n(n+1)/2 rows, refusing from |C| alone, and n > 64.
"""

from __future__ import annotations

import math
from itertools import compress, product
from typing import NamedTuple

import numpy as np

from .channel import CorruptionPattern, corrupt_batch, corrupt_symbols
from .core import ReceivedWord, Word, render_bits, unpack_rows
from .decoder import BATCH_WORDS, round_trip
from .vt_code import Codebook

__all__ = ["PreimageSet", "VerificationReport", "brute_force_decode", "check_rows",
           "deletion_balls_disjoint", "verify_code", "verify_decoder"]

ROW_CAP = 2**27  # every class fits through n = 24 (67,109,400 rows at most), none from n = 25


class PreimageSet(NamedTuple):
    """Codeword/pattern pairs consistent with one received word."""

    received: ReceivedWord
    candidates: frozenset[tuple[Word, CorruptionPattern]]

    @property
    def words(self) -> tuple[Word, ...]:
        """Distinct candidate codewords, sorted."""
        return tuple(sorted({w for w, _ in self.candidates}, key=lambda w: w.bits))


class VerificationReport(NamedTuple):
    """PASS/FAIL outcome of one exhaustive sweep."""

    check: str
    checked: int
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def render(self) -> str:
        if self.failure is not None:
            return self.failure
        return f"PASS checked={self.checked}"


def check_rows(n: int, size: int) -> None:
    """Refuse sweeps past the row cap, size * n(n+1)/2 rows, or past one word a row (n > 64,
    which only a hand-built codebook reaches under the cap)."""
    rows = size * (n * (n + 1) // 2)
    if rows > ROW_CAP:  # counts as powers of two: at n = 1024 both have about 300 digits
        raise ValueError(f"the sweeps need 2^{math.log2(rows):.1f} corrupted rows (n = {n}, "
                         f"|C| = 2^{math.log2(size):.1f}), above the row cap {ROW_CAP}")
    if n > 64:
        raise ValueError(f"the sweeps take one uint64 word per row, so n <= 64, got n = {n}")


def _run_starts(codebook: Codebook) -> np.ndarray:
    """(|C|, n) bools, column d - 1 set where x_d starts a run: d = 1 or x_{d-1} != x_d.
    Every sweep calls it first, so ``check_rows`` refuses before any row is corrupted."""
    check_rows(codebook.params.n, len(codebook))
    w = codebook.rows[:, :1]  # one word a row (check_rows)
    return unpack_rows(w ^ w >> 1 | np.uint64(1 << 63), codebook.params.n).view(bool)


def _balls(codebook: Codebook, owner: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The owners' rows with x_d deleted, as uint64 keys: ``corrupt_batch`` at e = n,
    BATCH_WORDS rows a call, so no transient grows.  Their position n - 1 holds a pad 0."""
    keys, n = np.empty(len(owner), np.uint64), codebook.params.n
    for s in range(0, len(owner), BATCH_WORDS):
        t = slice(s, s + BATCH_WORDS)
        keys[t] = corrupt_batch(codebook.rows[owner[t]], n, d[t], np.full_like(d[t], n))[:, 0]
    return keys


def _first_equal(keys: np.ndarray) -> np.ndarray | None:
    """For each row, the first row with an equal key; None when all keys differ, which one sort
    shows: only a failing pool pays for ``np.unique``'s index and inverse arrays."""
    ordered = np.sort(keys)
    if (ordered[1:] != ordered[:-1]).all():
        return None
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first[group]


def brute_force_decode(y: ReceivedWord, codebook: Codebook) -> PreimageSet:
    """Every (member, pattern) pair that corrupts to y; reads only ``codebook.params``.

    Each candidate z fills the erased slot (if any) and inserts a bit before y_d, d <= e: one z
    per stretch of d where filled_d == bit, as inserting before d or d + 1 is then the same.
    z is kept when it meets both congruences and re-corrupts to y, so a codebook that is not a
    whole class gets its class's preimages, not its rows'.  Only e, which y shows, is tried.
    """
    params, e, symbols = codebook.params, y.effective_erasure, y.symbols
    if y.n != params.n:
        raise ValueError(f"received word implies n={y.n}, code has n={params.n}")
    n, weights, ones, pairs = params.n, tuple(range(1, params.n + 1)), symbols.count(1), set()
    for fill, bit in product((0, 1) if e < n else (0,), (0, 1)):
        if (ones + fill + bit) % 3 != params.a1:
            continue
        filled = symbols[: e - 1] + (fill,) + symbols[e:] if e < n else symbols
        cuts = [0, *compress(range(1, e), map(bit.__xor__, filled)), e]
        for p, q in zip(cuts, cuts[1:]):
            z = filled[:p] + (bit,) + filled[p:]
            if sum(compress(weights, z)) % (n + 1) == params.a2:
                word = Word(z)
                for k in range(p + 1, q + 1):
                    if corrupt_symbols(z, k, e) == symbols:
                        pairs.add((word, CorruptionPattern(k, e)))
    return PreimageSet(y, frozenset(pairs))


def verify_code(codebook: Codebook) -> VerificationReport:
    """Check that no received word can come from two different codewords.

    A receiver sees the erasure position e but not the deletion position d, so for each e the
    words of every pattern (d, e) are pooled in (d, codeword) order: the reported violation is
    deterministic, and its d is the one x2 takes.  Only rows whose d starts a run are pooled:
    a word's first row and the first collision are such rows; ``checked`` counts every row.
    Each is corrupted once: pool e is the ``_balls`` keys with d <= e, position e erased to 0.
    Two such rows of one codeword never collide (Levenshtein): a pool passes iff its keys differ.
    """
    n, size = codebook.params.n, len(codebook)
    d, owner = np.nonzero(_run_starts(codebook).T)
    d, owner = d.astype(np.uint8) + 1, owner.astype(np.int32)  # n <= 64, |C| < 2^27: check_rows
    balls = _balls(codebook, owner, d)
    for e in range(1, n + 1):
        m = np.searchsorted(d, e, side="right")  # e's pool, the rows with d <= e: a prefix
        first = _first_equal(balls[:m] & ~np.uint64(1 << 64 - e))
        # only a broken channel repeats one codeword's key: such a pool goes on
        if first is not None and (clash := owner[first] != owner[:m]).any():
            j = int(clash.argmax())
            x1, x2 = map(render_bits, unpack_rows(codebook.rows[owner[[first[j], j]]], n))
            failure = f"FAIL x1={x1} x2={x2} d={d[j]} e={e}"
            checked = (e * (e - 1) // 2 + int(d[j]) - 1) * size + int(owner[j]) + 1  # j's place
            return VerificationReport("code-capability", checked, failure)
    return VerificationReport("code-capability", size * (n * (n + 1) // 2))


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    Rows go in codebook x ``all_patterns`` order, max(1, BATCH_WORDS // (n(n+1)/2)) codewords a
    block, one ``decoder.round_trip`` each, whose first failing row is reported.  Only run starts
    are decoded: the row-wise kernel fails a row only if it fails the row's earlier run start.
    """
    starts, n, words = _run_starts(codebook), codebook.params.n, codebook.rows
    d, e = np.add(np.triu_indices(n), 1)  # all_patterns: pattern p is (d[p], e[p])
    step = max(1, BATCH_WORDS // len(d))
    for s in range(0, len(words), step):
        place = np.flatnonzero(starts[s : s + step, d - 1]) + s * len(d)  # codeword * len(d) + p
        owner, p = np.divmod(place, len(d))
        # kernel held to the next block: freed, glibc trims the heap and the next block refaults it
        _, first, kernel = round_trip(words[owner], n, d[p], e[p], codebook.params.a1, codebook.params.a2)
        if first is not None:
            j, x1, got = first
            failure = f"FAIL x1={x1} x2={got.replace(' ', '-')} d={d[p[j]]} e={e[p[j]]}"
            return VerificationReport("decoder-round-trip", int(place[j]) + 1, failure)
    return VerificationReport("decoder-round-trip", len(words) * len(d))


def deletion_balls_disjoint(codebook: Codebook) -> VerificationReport:
    """Check single-deletion neighborhoods are pairwise disjoint across the codebook.

    The e = n rows of ``verify_code``, in (codeword, d) order: deleting from different runs
    gives different words (Levenshtein), so the balls are disjoint and each holds one word per
    run iff the keys differ.  The first row whose word an earlier row gave is reported.
    """
    n, size = codebook.params.n, len(codebook)
    owner, d = np.divmod(np.flatnonzero(_run_starts(codebook)), n)  # 3x np.nonzero's speed in 2-D
    first = _first_equal(_balls(codebook, owner, d + 1))
    if first is None:
        return VerificationReport("deletion-balls", size * n)
    # j: codeword i's first repeated row, shared unless i's ball is short; k gave j's word first
    j = int(np.flatnonzero(first != np.arange(len(first)))[0])
    i, k = int(owner[j]), first[j]
    ball, runs = len(np.unique(first[owner == i])), np.count_nonzero(owner == i)
    x1, x2 = map(render_bits, unpack_rows(codebook.rows[[owner[k], i]], n))
    if ball < runs:
        failure = f"FAIL x1={x2} x2={x2} d=1 e={n} ball={ball} runs={runs}"
    else:
        failure = f"FAIL x1={x1} x2={x2} d={d[k] + 1} e={n}"
    return VerificationReport("deletion-balls", (i + 1) * n, failure)
