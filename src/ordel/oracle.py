"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` expands y into its at most 4e candidate preimages and
keeps those among the codebook's rows that re-corrupt to y: O(n^2) work plus
one pass over the rows.  ``verify_code`` checks what a receiver sees: for each
e, no word that the patterns (d, e), d <= e, make of the codewords comes from
two of them.  ``deletion_balls_disjoint`` checks the deletion-only words.
Nothing from ``decoder`` feeds these three and none touches checksums, so
agreement with the decoder is genuine evidence.  The sweeps corrupt the packed rows
of ``Codebook.rows`` with ``corrupt_batch``, |C| * n(n+1)/2 of them (|C| * n for the
deletion balls); two group the received rows as uint64 keys, and ``verify_decoder``
reports a failing row from what ``decode_batch`` returned; a ``FAIL`` line unpacks
its rows.  ``check_rows`` charges |C| * n(n+1)/2 rows, refusing from |C| alone, and n > 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CorruptionPattern, corrupt_batch, corrupt_symbols, pattern_count, patterns_at
from .core import ReceivedWord, Word, prefix_mask, render_bits, unpack_rows
from .decoder import BATCH_WORDS, FAILURE_STATUS, decode_batch
from .vt_code import Codebook

ROW_CAP = 2**22  # every class fits through n = 20 (3,496,710 rows at most), none from n = 21


@dataclass(frozen=True)
class PreimageSet:
    """Codeword/pattern pairs consistent with one received word."""

    received: ReceivedWord
    candidates: frozenset[tuple[Word, CorruptionPattern]]

    @property
    def words(self) -> tuple[Word, ...]:
        """Distinct candidate codewords, sorted."""
        return tuple(sorted({w for w, _ in self.candidates}, key=lambda w: w.bits))


@dataclass(frozen=True)
class VerificationReport:
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
    if rows > ROW_CAP:
        raise ValueError(f"the sweeps need {rows} corrupted rows, above the row cap {ROW_CAP}")
    if n > 64:
        raise ValueError(f"the sweeps take one uint64 word per row, so n <= 64, got n = {n}")


def _first_equal(words: np.ndarray, n: int, owner, d: np.ndarray, e: int) -> np.ndarray:
    """For each row j, the first row whose received word equals row j's.

    Row j is packed codeword ``words[owner[j]]`` corrupted by (d[j], e).  ``np.unique``
    groups the rows as uint64 keys, one word each (``check_rows``), with each group's first row.
    """
    received = corrupt_batch(words[owner], n, d, np.full(len(d), e))
    _, first, group = np.unique(received[:, 0], return_index=True, return_inverse=True)
    return first[group]


def brute_force_decode(y: ReceivedWord, codebook: Codebook) -> PreimageSet:
    """Every (codeword, pattern) pair that corrupts to y.

    Each candidate z inserts a 0 or a 1 before y_d for some d <= e, with the
    erased slot (if any) filled by a 0 or a 1; z is kept when its bytes are an
    unpacked codebook row (each hashed as one n-byte record) and it re-corrupts
    to y.  Only patterns whose erasure parameter matches y are tried: the erasure
    position is visible to a receiver, the deletion position is not.
    """
    e, symbols, n = y.effective_erasure, y.symbols, codebook.params.n
    members = set(unpack_rows(codebook.rows, n).view(f"V{n}").ravel().tolist())
    fills = [symbols] if e == y.n else [symbols[: e - 1] + (b,) + symbols[e:] for b in (0, 1)]
    pairs = set()
    for d in range(1, e + 1):
        for filled in fills:
            for bit in (0, 1):
                z = filled[: d - 1] + (bit,) + filled[d - 1 :]
                if bytes(z) in members and corrupt_symbols(z, d, e) == symbols:
                    pairs.add((Word(z), CorruptionPattern(d, e)))
    return PreimageSet(y, frozenset(pairs))


def verify_code(codebook: Codebook) -> VerificationReport:
    """Check that no received word can come from two different codewords.

    A receiver sees the erasure position e but not the deletion position d,
    so for each e the words of every pattern (d, e) are pooled.  Scans e,
    then d <= e, then codewords in codebook order, so the reported violation
    is deterministic; its d is the one that x2 takes.
    """
    n, size = codebook.params.n, len(codebook)
    check_rows(n, size)
    words, checked = codebook.rows, 0
    for e in range(1, n + 1):
        # one pool per e in (d, codeword) order: all its erasures sit at e,
        # so the 0 that corrupt_batch stores collides as the marker would
        d, owner = np.divmod(np.arange(e * size), size)
        first = _first_equal(words, n, owner, d + 1, e)
        bad = np.flatnonzero(owner[first] != owner)
        if bad.size:
            j = int(bad[0])
            x1, x2 = map(render_bits, unpack_rows(words[owner[[first[j], j]]], n))
            failure = f"FAIL x1={x1} x2={x2} d={d[j] + 1} e={e}"
            return VerificationReport("code-capability", checked + j + 1, failure)
        checked += e * size
    return VerificationReport("code-capability", checked)


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    Rows run in codebook x ``all_patterns`` order, BATCH_WORDS at a time,
    through ``corrupt_batch`` and ``decode_batch``; the first failing row is
    reported with what the kernel returned for it: the decoded word, or the
    failure reason its status stands for.
    """
    params, n = codebook.params, codebook.params.n
    check_rows(n, len(codebook))
    d, e = patterns_at(np.arange(pattern_count(n)), n)
    words, total = codebook.rows, len(codebook) * len(d)
    for start in range(0, total, BATCH_WORDS):
        word_of, pattern_of = np.divmod(np.arange(start, min(start + BATCH_WORDS, total)), len(d))
        x, x_d, x_e = words[word_of], d[pattern_of], e[pattern_of]
        y = corrupt_batch(x, n, x_d, x_e)
        decoded, _, status = decode_batch(y, n, x_e, params.a1, params.a2)
        bad = np.flatnonzero((status < 1) | (decoded != x).any(axis=1))
        if bad.size:
            i = bad[0]
            x1, z = map(render_bits, unpack_rows(np.stack((x[i], decoded[i])), n))
            got = z if status[i] > 0 else FAILURE_STATUS[status[i]].replace(" ", "-")
            failure = f"FAIL x1={x1} x2={got} d={x_d[i]} e={x_e[i]}"
            return VerificationReport("decoder-round-trip", start + int(i) + 1, failure)
    return VerificationReport("decoder-round-trip", total)


def deletion_balls_disjoint(codebook: Codebook) -> VerificationReport:
    """Check single-deletion neighborhoods are pairwise disjoint across the codebook.

    Also checks each neighborhood's size equals the codeword's run count:
    deleting anywhere inside one run gives the same shortened word, so every
    run contributes exactly one neighbor.
    """
    n, size = codebook.params.n, len(codebook)
    check_rows(n, size)
    # the e = n pool in (codeword, d) order; a ball counts a codeword's distinct first rows
    owner, d = np.divmod(np.arange(size * n), n)
    first = _first_equal(codebook.rows, n, owner, d + 1, n)
    heads = np.sort(first.reshape(size, n), axis=1)
    ball = 1 + (heads[:, 1:] != heads[:, :-1]).sum(axis=1)
    w = codebook.rows[:, 0]  # one word a row (check_rows): a run ends where x_i != x_{i+1}
    runs = 1 + np.bitwise_count((w ^ w << 1) & prefix_mask(n - 1, 1))
    shared = (owner[first] != owner).reshape(size, n)
    bad = np.flatnonzero((ball != runs) | shared.any(axis=1))
    if not bad.size:
        return VerificationReport("deletion-balls", size * n)
    i = int(bad[0])
    j = first[i * n + np.argmax(shared[i])]  # the row that saw i's shared word first, if any
    x1, x2 = map(render_bits, unpack_rows(codebook.rows[[owner[j], i]], n))
    if ball[i] != runs[i]:
        failure = f"FAIL x1={x2} x2={x2} d=1 e={n} ball={ball[i]} runs={runs[i]}"
    else:
        failure = f"FAIL x1={x1} x2={x2} d={d[j] + 1} e={n}"
    return VerificationReport("deletion-balls", (i + 1) * n, failure)
