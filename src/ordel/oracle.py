"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` inserts a bit into y once per run it could join, fills the erasure,
and keeps the candidates that meet the class's two congruences (summed by definition) and
re-corrupt to y: O(n^2) work, no codebook rows.  The sweeps walk one pool per e (``_pools``):
the rows (d <= e, codeword) whose d starts a run, as uint64 keys from ``corrupt_batch``.
``verify_code`` and ``deletion_balls_disjoint`` look for a key that two codewords share; as
``brute_force_decode``, they take nothing from ``decoder`` and touch no checksum, so their
agreement with it, which ``verify_decoder`` checks on every pool, is genuine evidence.
``check_rows`` charges |C| * n(n+1)/2 rows, refusing from |C| alone, and n > 64.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress, product
from typing import NamedTuple

import numpy as np

from .channel import CorruptionPattern, corrupt_batch, corrupt_symbols, pattern_count
from .core import ReceivedWord, Word, render_bits, unpack_rows
from .decoder import BATCH_WORDS, FAILURE_STATUS, decode_batch
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


def _pools(
    codebook: Codebook, first: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """For e = first..n, e and the run-start rows with d <= e in (d, codeword) order: each row's
    d, owner and key, the owner's row corrupted by (d, e), BATCH_WORDS rows a call so no transient
    grows with the pool.  Each pool is a prefix of the e = n rows, found once.  All erasures sit
    at e, so the 0 ``corrupt_batch`` stores there collides as the marker would."""
    words, n = codebook.rows, codebook.params.n
    check_rows(n, len(words))
    d, owner = np.nonzero(_run_starts(codebook).T)
    d += 1
    for e in range(first, n + 1):
        m = np.searchsorted(d, e, side="right")
        keys = np.empty(m, np.uint64)  # one word a row (check_rows)
        for s in range(0, m, BATCH_WORDS):
            t = slice(s, min(s + BATCH_WORDS, m))
            keys[t] = corrupt_batch(words[owner[t]], n, d[t], np.full(len(keys[t]), e))[:, 0]
        yield e, d[:m], owner[:m], keys


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
    Two such rows of one codeword never collide (Levenshtein): a pool passes iff its keys differ.
    """
    n, size, checked = codebook.params.n, len(codebook), 0
    for e, d, owner, keys in _pools(codebook, 1):
        first = _first_equal(keys)
        # only a broken channel repeats one codeword's key: such a pool goes on
        if first is not None and (clash := owner[first] != owner).any():
            j = int(clash.argmax())
            x1, x2 = map(render_bits, unpack_rows(codebook.rows[owner[[first[j], j]]], n))
            failure = f"FAIL x1={x1} x2={x2} d={d[j]} e={e}"
            checked += int((d[j] - 1) * size + owner[j]) + 1  # the row's place in the full order
            return VerificationReport("code-capability", checked, failure)
        checked += e * size
    return VerificationReport("code-capability", checked)


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    The pools go in (e, d, codeword) order through ``decode_batch``, BATCH_WORDS rows or more a
    call (short pools share one: at small n a call's cost is mostly fixed).  A row-wise function
    of (y, e, a1, a2), it fails a row only if it fails the row's run start, which comes earlier
    in codebook x ``all_patterns`` order; the failing row first in that order is reported, with
    what the kernel returned for it: the decoded word, or the failure reason its status stands for.
    """
    params, n, words, held, found = codebook.params, codebook.params.n, codebook.rows, [], []
    for e, d, owner, keys in _pools(codebook, 1):
        for s in range(0, len(d), BATCH_WORDS):
            t = slice(s, s + BATCH_WORDS)
            held.append((d[t], owner[t], np.full(len(d[t]), e), keys[t]))
            if e < n and sum(len(h[0]) for h in held) < BATCH_WORDS:
                continue
            (d_, owner_, e_, y), held = map(np.concatenate, zip(*held)), []
            decoded, _, status = decode_batch(y[:, None], n, e_, params.a1, params.a2)
            bad = np.flatnonzero((status < 1) | (decoded != words[owner_]).any(axis=1))
            if bad.size:  # places, word * n(n+1)/2 + (d - 1)(2n + 2 - d)/2 + e - d, of these alone
                d_, e_ = d_[bad], e_[bad]
                place = owner_[bad] * pattern_count(n) + (d_ - 1) * (2 * n + 2 - d_) // 2 + e_ - d_
                i, j = place.argmin(), bad[place.argmin()]
                x1, z = map(render_bits, unpack_rows(np.stack((words[owner_[j]], decoded[j])), n))
                got = z if status[j] > 0 else FAILURE_STATUS[status[j]].replace(" ", "-")
                found.append((int(place[i]) + 1, f"FAIL x1={x1} x2={got} d={d_[i]} e={e_[i]}"))
    passed = len(codebook) * pattern_count(n), None
    return VerificationReport("decoder-round-trip", *min(found, default=passed))


def deletion_balls_disjoint(codebook: Codebook) -> VerificationReport:
    """Check single-deletion neighborhoods are pairwise disjoint across the codebook.

    The e = n pool of ``verify_code``: deleting from different runs gives different words
    (Levenshtein), so the balls are disjoint and each holds one word per run iff its keys
    differ.  A failing pool is reordered to (codeword, d), and its first row whose word came
    from an earlier row is reported.
    """
    n, size = codebook.params.n, len(codebook)
    _, d, owner, keys = next(_pools(codebook, n))
    if _first_equal(keys) is None:
        return VerificationReport("deletion-balls", size * n)
    order = np.argsort(owner, kind="stable")
    d, owner, first = d[order], owner[order], _first_equal(keys[order])
    # j: codeword i's first repeated row, shared unless i's ball is short; k gave j's word first
    j = int(np.flatnonzero(first != np.arange(len(first)))[0])
    i, k = int(owner[j]), first[j]
    ball, runs = len(np.unique(first[owner == i])), np.count_nonzero(owner == i)
    x1, x2 = map(render_bits, unpack_rows(codebook.rows[[owner[k], i]], n))
    if ball < runs:
        failure = f"FAIL x1={x2} x2={x2} d=1 e={n} ball={ball} runs={runs}"
    else:
        failure = f"FAIL x1={x1} x2={x2} d={d[k]} e={n}"
    return VerificationReport("deletion-balls", (i + 1) * n, failure)
