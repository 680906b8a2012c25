"""Decoder for one deletion followed by at most one erasure.

The receiver sees y of length n - 1 and the erasure position e (e = n when
nothing was erased).  Recovery works in two steps:

1. The mod-3 discrepancy D = (a1 - sum of known symbols) mod 3 equals
   x_d + x_{e+1}, the sum of the two missing bits, so it pins their values:
   D = 0 means both were 0, D = 2 means both were 1, and D = 1 leaves two
   candidate assignments, (1, 0) and (0, 1), tried in that order.
   With no erasure the deleted bit is simply D (and D = 2 is impossible).

2. For a candidate insertion point k (1 <= k <= e) and hypothesized bits,
   ``hypothesis_checksum`` computes the weighted sum i * z_i of the word z
   built by inserting the deleted-bit guess before y_k and restoring the
   erased bit.  Scanning k upward, the first k where that sum matches a2
   mod (n + 1) identifies the run that lost a bit; if the word really is a
   member corrupted by a valid pattern, the synchronizing k always lies in
   the run containing the true deletion position, so rebuilding at k yields
   the transmitted word exactly.  A wrong bit assignment under D = 1 never
   synchronizes, which is what makes the second pass sound.

Consecutive checksums differ only by the guessed bit and one received
symbol, so each pass costs O(n) integer ops (``checksum_step``).  Checksums
peak near n^2 and are reduced only at comparison time; they are exact Python
ints, so the scalar ``decode`` has no length limit of its own.

``decode_batch`` runs the same two steps on packed rows (``core.pack_rows``, 64 positions per
uint64 word), with sums from word popcounts and one scan per row as a count of 1s; the scalar
``decode`` stays its reference.  ``round_trip`` corrupts, decodes and compares a batch with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from .channel import corrupt_batch
from .core import CodeParams, ReceivedWord, Word, pack_rows, prefix_mask, render_bits, unpack_rows

__all__ = ["FAILURE_STATUS", "INVALID_DISCREPANCY", "NO_SYNC", "BitHypothesis", "DecodeFailure",
           "Recovered", "checksum_step", "decode", "decode_batch", "discrepancy",
           "hypothesis_checksum", "round_trip", "row_sums"]

NO_SYNC = "no synchronization"
INVALID_DISCREPANCY = "invalid discrepancy"


@dataclass(frozen=True)
class BitHypothesis:
    """Candidate values for the deleted bit and the erased bit."""

    deleted: int
    erased: int

    def __post_init__(self) -> None:
        if self.deleted not in (0, 1) or self.erased not in (0, 1):
            raise ValueError("hypothesis bits must be 0 or 1")


class Recovered(NamedTuple):
    """Successful decode: the word, where the bit was re-inserted, which pass found it."""

    word: Word
    insertion_index: int
    sync_pass: int


class DecodeFailure(NamedTuple):
    reason: str


# packed words per batch for callers of decode_batch: BATCH_WORDS // W rows at a time bound
# a batch's largest temporaries (8 words per row or word) to about 0.5 MB, whatever n is
BATCH_WORDS = 1 << 13

# plane t < 6 of _INDEX_BITS sets the positions of a word whose in-word index has bit t
# set, plane 6 all of them
_INDEX_BITS = pack_rows(np.arange(64, 128) >> np.arange(7)[:, None] & 1, 64).reshape(7, 1, 1)
_INDEX_WEIGHTS = (1 << np.arange(6, dtype=np.uint16)).reshape(6, 1, 1)

# the bit guesses each discrepancy leaves, in the order the passes try them;
# with no erasure the deleted bit is the discrepancy, the first guess
_GUESSES = {
    0: (BitHypothesis(0, 0),),
    1: (BitHypothesis(1, 0), BitHypothesis(0, 1)),
    2: (BitHypothesis(1, 1),),
}

#: ``decode_batch`` statuses below 1 and the scalar failure reasons they stand for
FAILURE_STATUS = {0: NO_SYNC, -1: INVALID_DISCREPANCY}


def discrepancy(y: ReceivedWord, params: CodeParams) -> int:
    """(a1 - sum of non-erased symbols) mod 3; reveals the missing bits' sum."""
    e = y.effective_erasure
    total = sum(y.symbols[: e - 1]) + sum(y.symbols[e:])
    return (params.a1 - total) % 3


def hypothesis_checksum(y: ReceivedWord, k: int, hyp: BitHypothesis, params: CodeParams) -> int:
    """Weighted checksum of the reconstruction that inserts before position k.

    Exact integer value of

        sum_{i<k} i*y_i + k*deleted + sum_{i>=k, i != e} (i+1)*y_i + (e+1)*erased

    with erased symbols contributing nothing.  The caller reduces mod n + 1.
    For a deletion-only word e = n, and the final term must use erased = 0.
    """
    e = y.effective_erasure
    if not 1 <= k <= e:
        raise ValueError(f"insertion index {k} outside 1..{e}")
    n = y.n
    sym = y.symbols
    # symbols before the insertion point keep weight i, later ones weigh i+1;
    # slicing around the erased slot keeps None out of the products (for
    # e = n the slice past it is empty)
    total = k * hyp.deleted + (e + 1) * hyp.erased
    total += sum(map(mul, range(1, k), sym[: k - 1]))
    total += sum(map(mul, range(k + 1, e + 1), sym[k - 1 : e - 1]))
    total += sum(map(mul, range(e + 2, n + 1), sym[e:]))
    return total


def checksum_step(fk: int, k: int, y_k: int, hyp: BitHypothesis) -> int:
    """Advance the checksum from insertion point k to k + 1 in O(1).

    Moving the insertion point past y_k drops one unit of its weight and adds
    one unit of the guessed bit.  ``decode`` steps only while k < e, so y_k
    is never the erased symbol.
    """
    return fk + hyp.deleted - y_k


def _rebuild(y: ReceivedWord, k: int, hyp: BitHypothesis) -> Word:
    """Insert the deleted-bit guess before y_k and fill the erasure."""
    s = y.symbols
    e = y.erasure_pos
    if e is None:
        return Word(s[: k - 1] + (hyp.deleted,) + s[k - 1 :])
    return Word(s[: k - 1] + (hyp.deleted,) + s[k - 1 : e - 1] + (hyp.erased,) + s[e:])


def decode(y: ReceivedWord, params: CodeParams) -> Recovered | DecodeFailure:
    """Recover the transmitted codeword from a deletion-erasure corrupted word.

    Guaranteed to return the transmitted word whenever y was produced by
    corrupting a member of the (n, a1, a2) class with a valid pattern.  On
    other inputs it returns either some member word or a failure, never an
    exception: "no synchronization" when no insertion point matches, and
    "invalid discrepancy" for a deletion-only word whose discrepancy is 2
    (one missing bit cannot change the bit sum by two).
    """
    if y.n != params.n:
        raise ValueError(f"received word implies n={y.n}, code has n={params.n}")
    e = y.effective_erasure
    disc = discrepancy(y, params)
    if y.erasure_pos is None and disc == 2:
        return DecodeFailure(INVALID_DISCREPANCY)
    attempts = _GUESSES[disc] if y.erasure_pos is not None else _GUESSES[disc][:1]
    modulus = params.n + 1
    for pass_no, hyp in enumerate(attempts, start=1):
        # the smallest k in 1..e whose checksum matches a2 mod n+1
        fk, k = hypothesis_checksum(y, 1, hyp, params), 1
        while fk % modulus != params.a2 and k < e:
            fk = checksum_step(fk, k, y.symbols[k - 1], hyp)
            k += 1
        if fk % modulus == params.a2:
            return Recovered(_rebuild(y, k, hyp), k, pass_no)
    return DecodeFailure(NO_SYNC)


def row_sums(words: np.ndarray, cols: int, first_weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 bit sums and weighted sums of packed rows of ``cols`` positions.

    Position j (from 0) weighs ``first_weight + j``: a 1 in word w weighs first_weight + 64w,
    plus 2^t if bit t of its in-word index is set, as popcounts under ``_INDEX_BITS`` count.
    Exact while the largest possible weighted sum is below 2^63; past it a ValueError says so.
    """
    top = cols * first_weight + cols * (cols - 1) // 2
    if top >= 2**63:
        raise ValueError(f"weighted sums up to {top} exceed 2^63 - 1, the int64 limit")
    counts = np.bitwise_count(_INDEX_BITS & words)
    ones = counts[6].astype(np.int64)
    inside = (counts[:6] * _INDEX_WEIGHTS).sum(axis=0, dtype=np.uint16)  # < 2^11 per word
    starts = first_weight + np.arange(0, 64 * words.shape[1], 64)
    return ones.sum(axis=1), inside.sum(axis=1, dtype=np.int64) + ones @ starts


def _first_sync(n, y, e, a2, deleted, erased, weighted) -> np.ndarray:
    """Per row, the smallest k in 1..e whose checksum matches a2 mod n+1, else 0."""
    # checksum at k is f1 + G_{k-1}, with G_j = sum_{i<=j} (deleted - y_i) moving by 0
    # or +-1 (the guess's sign) within +-(n - 1): it first matches the residue t at
    # the c-th 1 of y ^ deleted, c = t or n + 1 - t; an erased slot's stored 0 counts
    t = (a2 - deleted - (e + 1) * erased - weighted) % (n + 1)
    c = np.where(deleted == 1, t, n + 1 - t)
    # in the first word whose running popcount reaches c, the bit past the longest head (64 -
    # rest bits, by halving) holding fewer 1s than the rank left (capped at 65 for uint8).
    # Past the row's last 1 (the pad reads as 1s under deleted = 1) k passes e; with no c-th 1
    # at all the head is the last word's first 63 bits, and k lands on 64W + 1, past n
    flips = y ^ (-deleted).astype(np.uint64)[:, None]  # all 1s where deleted = 1
    ones = np.cumsum(np.bitwise_count(flips), axis=1, dtype=np.int64)
    word = (ones[:, :-1] < c[:, None]).sum(axis=1)
    at = np.arange(0, y.size, y.shape[1]) + word
    chosen = flips.reshape(-1)[at]
    rank = np.minimum(c - ones.reshape(-1)[at] + np.bitwise_count(chosen), 65).astype(np.uint8)
    rest = np.uint64(64)  # an array from the first step on
    for half in map(np.uint64, (32, 16, 8, 4, 2, 1)):  # keeps rest uint64; no shift reaches 64
        rest -= (np.bitwise_count(chosen >> (rest - half)) < rank) * half
    k = 64 * word + 66 - rest.astype(np.int64)
    # G_0 = 0 matches only t = 0, at k = 1
    return np.where(t == 0, 1, np.where(k <= e, k, 0))


def decode_batch(y: np.ndarray, n: int, e, a1, a2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``decode`` for B received words at once, row for row the same result.

    ``y`` holds B packed rows (``core.pack_rows``) of n - 1 symbols, each erased symbol
    stored as 0; ``e``, ``a1`` and ``a2`` give each row's erasure position (e = n for
    none) and class, as arrays of B or scalars.  Returns ``(words, k, status)``: the B
    packed decoded words, the insertion indices, and per row the sync pass (1 or 2), or a
    status below 1 that ``FAILURE_STATUS`` maps to the scalar failure reason.  Words and k
    of a failed row are unspecified.

    The steps: the discrepancy; the k=1 checksum f1 (``row_sums`` with weights 2..n); the
    guess, where discrepancy 1 and an erasure leave two: (0, 1), the second pass, iff (1, 0)
    cannot sync; one scan for the first k <= e where f1 + G_{k-1} matches a2, the c-th 1 of
    y ^ deleted; a one-bit shift and two bit sets rebuild every word.  Sums and positions are int64.
    """
    rows, width = y.shape
    e, a1, a2 = (np.full(rows, v, np.int64) for v in (e, a1, a2))
    bit_sum, weighted = row_sums(y, n - 1, 2)
    disc = (a1 - bit_sum) % 3
    erasure = e < n
    # (1, 0) matches at the t-th 0 of y_1..y_{e-1}, if any (y_e, under pre_e, is a stored 0)
    pre_e, thru_e = prefix_mask((e, e + 1), width)
    zeros = e - 1 - np.bitwise_count(y & pre_e).sum(axis=1, dtype=np.int64)
    second = erasure & (disc == 1) & ((a2 - 1 - weighted) % (n + 1) > zeros)
    deleted = ((disc > 0) & ~second).astype(np.int64)
    erased = (erasure & (disc == 2) | second).astype(np.int64)
    k = _first_sync(n, y, e, a2, deleted, erased, weighted)
    status = np.where(k > 0, 1 + second, 0).astype(np.int8)
    status[~erasure & (disc == 2)] = -1
    # z_i = y_i before k, the deleted guess at k, y_{i-1} after it, and the erased guess in
    # the slot after e, y_e's stored 0; a failed row (k = 0) gets no guess, its pad stays 0
    before = k - 1
    shifted = y >> 1
    shifted[:, 1:] |= y[:, :-1] << 63
    keep, through = prefix_mask((before, before + 1), width)
    guesses = (through ^ keep) * (deleted == 1)[:, None] | (thru_e ^ pre_e) * (erased == 1)[:, None]
    return y & keep | shifted & ~through | guesses, k, status


def round_trip(words: np.ndarray, n: int, d, e, a1, a2):
    """Corrupt rows by (d, e), decode in class (a1, a2), compare: the failing rows, None or the first
    as text (index, word, decoded word or failure reason), and ``decode_batch``'s return."""
    kernel = decoded, _, status = decode_batch(corrupt_batch(words, n, d, e), n, e, a1, a2)
    bad = np.flatnonzero((status < 1) | (decoded != words).any(axis=1))
    if not bad.size:
        return bad, None, kernel
    i = bad[0]
    x, z = map(render_bits, unpack_rows(np.stack((words[i], decoded[i])), n))
    return bad, (i, x, z if status[i] > 0 else FAILURE_STATUS[status[i]]), kernel
