"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` inserts a bit into y once per run it could join, fills the erasure,
and keeps the candidates that meet the class's two congruences (summed by definition) and
re-corrupt to y: O(n^2) work, no codebook rows.  ``verify_code`` checks what a receiver sees:
for each e, no word that the patterns (d, e), d <= e, make of the codewords comes from two of
them.  ``deletion_balls_disjoint`` checks the deletion-only words, the e = n pool.  Nothing
from ``decoder`` feeds these three and none touches checksums, so agreement with the decoder
is genuine evidence.  All three sweeps corrupt one row of ``Codebook.rows`` per run
(``_run_starts``) with ``corrupt_batch``; two group the received rows as uint64 keys, and
``verify_decoder`` reports what ``decode_batch`` returned for a failing row.  ``check_rows``
charges |C| * n(n+1)/2 rows, refusing from |C| alone, and n > 64.
"""

from __future__ import annotations

import math
from itertools import compress, product
from typing import NamedTuple

import numpy as np

from .channel import CorruptionPattern, corrupt_batch, corrupt_symbols, pattern_count, patterns_at
from .core import ReceivedWord, Word, render_bits, unpack_rows
from .decoder import BATCH_WORDS, FAILURE_STATUS, decode_batch
from .vt_code import Codebook

__all__ = ["PreimageSet", "VerificationReport", "brute_force_decode", "check_rows",
           "deletion_balls_disjoint", "verify_code", "verify_decoder"]

ROW_CAP = 2**22  # every class fits through n = 20 (3,496,710 rows at most), none from n = 21


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
    rows = size * pattern_count(n)
    if rows > ROW_CAP:  # counts as powers of two: at n = 1024 both have about 300 digits
        raise ValueError(f"the sweeps need 2^{math.log2(rows):.1f} corrupted rows (n = {n}, "
                         f"|C| = 2^{math.log2(size):.1f}), above the row cap {ROW_CAP}")
    if n > 64:
        raise ValueError(f"the sweeps take one uint64 word per row, so n <= 64, got n = {n}")


def _run_starts(codebook: Codebook) -> np.ndarray:
    """(|C|, n) bools, column d - 1 set where x_d starts a run: d = 1 or x_{d-1} != x_d."""
    w = codebook.rows[:, :1]  # one word a row (check_rows)
    return unpack_rows(w ^ w >> 1 | np.uint64(1 << 63), codebook.params.n).view(bool)


def _first_equal(words: np.ndarray, n: int, owner, d: np.ndarray, e: int) -> np.ndarray:
    """For each row j, the first row whose received word equals row j's.

    Row j is packed codeword ``words[owner[j]]`` corrupted by (d[j], e).  ``np.unique``
    groups the rows as uint64 keys, one word each (``check_rows``), with each group's first row.
    """
    received = corrupt_batch(words[owner], n, d, np.full(len(d), e))
    _, first, group = np.unique(received[:, 0], return_index=True, return_inverse=True)
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
    deterministic, and its d is the one x2 takes.  Only rows whose d starts a run are corrupted:
    a word's first row and the first collision are such rows; ``checked`` counts every row.
    """
    n, size = codebook.params.n, len(codebook)
    check_rows(n, size)
    words, checked, starts = codebook.rows, 0, _run_starts(codebook).T.copy()
    for e in range(1, n + 1):
        # one pool per e in (d, codeword) order: all its erasures sit at e,
        # so the 0 that corrupt_batch stores collides as the marker would
        d, owner = np.divmod(np.flatnonzero(starts[:e]), size)
        first = _first_equal(words, n, owner, d + 1, e)
        bad = np.flatnonzero(owner[first] != owner)
        if bad.size:
            j = int(bad[0])
            x1, x2 = map(render_bits, unpack_rows(words[owner[[first[j], j]]], n))
            failure = f"FAIL x1={x1} x2={x2} d={d[j] + 1} e={e}"
            checked += int(d[j] * size + owner[j]) + 1  # the row's place in the full order
            return VerificationReport("code-capability", checked, failure)
        checked += e * size
    return VerificationReport("code-capability", checked)


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    Rows whose d starts a run go in codebook x ``all_patterns`` order, BATCH_WORDS at a time,
    through ``corrupt_batch`` and ``decode_batch``, a row-wise function of (y, e, a1, a2), so
    any failing row has a failing run start before it; the first is reported with what the
    kernel returned for it: the decoded word, or the failure reason its status stands for.
    """
    params, n = codebook.params, codebook.params.n
    check_rows(n, len(codebook))
    d, e = patterns_at(np.arange(pattern_count(n)), n)
    rows, words = np.flatnonzero(_run_starts(codebook)[:, d - 1]), codebook.rows
    for row in np.split(rows, range(BATCH_WORDS, len(rows), BATCH_WORDS)):
        word_of, pattern_of = np.divmod(row, len(d))
        x, x_d, x_e = words[word_of], d[pattern_of], e[pattern_of]
        y = corrupt_batch(x, n, x_d, x_e)
        decoded, _, status = decode_batch(y, n, x_e, params.a1, params.a2)
        bad = np.flatnonzero((status < 1) | (decoded != x).any(axis=1))
        if bad.size:
            i = bad[0]
            x1, z = map(render_bits, unpack_rows(np.stack((x[i], decoded[i])), n))
            got = z if status[i] > 0 else FAILURE_STATUS[status[i]].replace(" ", "-")
            failure = f"FAIL x1={x1} x2={got} d={x_d[i]} e={x_e[i]}"
            return VerificationReport("decoder-round-trip", int(row[i]) + 1, failure)
    return VerificationReport("decoder-round-trip", len(codebook) * len(d))


def deletion_balls_disjoint(codebook: Codebook) -> VerificationReport:
    """Check single-deletion neighborhoods are pairwise disjoint across the codebook.

    The e = n pool of run-start rows in (codeword, d) order, as ``verify_code`` builds it:
    deleting from different runs gives different words (Levenshtein), so the balls are
    disjoint and each holds one word per run iff no row's word came from an earlier row.
    """
    n, size = codebook.params.n, len(codebook)
    check_rows(n, size)
    owner, d = np.nonzero(_run_starts(codebook))
    first = _first_equal(codebook.rows, n, owner, d + 1, n)
    repeated = np.flatnonzero(first != np.arange(len(first)))
    if not repeated.size:
        return VerificationReport("deletion-balls", size * n)
    j = int(repeated[0])  # codeword i's first repeated row: shared unless i's ball is short
    i, k = int(owner[j]), first[j]  # k: the row that gave j's word first
    ball, runs = len(np.unique(first[owner == i])), np.count_nonzero(owner == i)
    x1, x2 = map(render_bits, unpack_rows(codebook.rows[[owner[k], i]], n))
    if ball < runs:
        failure = f"FAIL x1={x2} x2={x2} d=1 e={n} ball={ball} runs={runs}"
    else:
        failure = f"FAIL x1={x1} x2={x2} d={d[k] + 1} e={n}"
    return VerificationReport("deletion-balls", (i + 1) * n, failure)
