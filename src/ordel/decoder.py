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

``decode_batch`` runs the same two steps on a batch of received words held
as a numpy array, with the scan as a count of 1s per row; the scalar
``decode`` stays the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .core import CodeParams, ReceivedWord, Word

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


@dataclass(frozen=True)
class Recovered:
    """Successful decode: the word, where the bit was re-inserted, which pass found it."""

    word: Word
    insertion_index: int
    sync_pass: int


@dataclass(frozen=True)
class DecodeFailure:
    reason: str


# word bits per batch for callers of decode_batch: BATCH_BITS // n rows at a
# time bounds a batch's largest temporary (int64 sync positions, <= 8 bytes
# per bit) to about 1 MB whatever n is, and keeps the numpy calls per row few
BATCH_BITS = 1 << 17

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


def row_sums(bits: np.ndarray, first_weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 bit sums and weighted sums of the rows of a 0/1 matrix.

    Column j (from 0) weighs ``first_weight + j``.  The sums accumulate in
    int64, exact while the largest possible weighted sum stays below 2^63;
    past that a ValueError names the limit.
    """
    cols = bits.shape[1]
    top = cols * first_weight + cols * (cols - 1) // 2
    if top >= 2**63:
        raise ValueError(f"weighted sums up to {top} exceed 2^63 - 1, the int64 limit")
    weights = np.arange(first_weight, first_weight + cols, dtype=np.int64)
    return bits.sum(axis=1, dtype=np.int64), np.einsum("ij,j->i", bits, weights)


def _first_sync(y, e, a2, deleted, erased, weighted, bit_sum) -> np.ndarray:
    """Per row, the smallest k in 1..e whose checksum matches a2 mod n+1, else 0.

    Rows of ``y`` must be 0/1 bytes: ``y ^ deleted`` is read as bool in place.
    """
    rows, m = y.shape
    modulus = m + 2
    # checksum at k is f1 + G_{k-1}, with G_j = sum_{i<=j} (deleted - y_i) moving by 0
    # or +-1 (the guess's sign) within +-(n - 1): it first matches the residue t at
    # the c-th 1 of y ^ deleted, c = t or n + 1 - t; an erased slot's stored 0 counts
    t = (a2 - deleted - (e + 1) * erased - weighted) % modulus
    c = np.where(deleted == 1, t, modulus - t)
    counts = np.where(deleted == 1, m - bit_sum, bit_sum)
    pos = np.flatnonzero((y ^ deleted[:, None]).view(bool))
    hit = np.flatnonzero((c >= 1) & (c <= counts))
    k = np.zeros(rows, np.int64)
    k[hit] = pos[(np.cumsum(counts) - counts)[hit] + c[hit] - 1] - hit * m + 2
    # G_0 = 0 matches only t = 0, at k = 1
    return np.where(t == 0, 1, np.where(k <= e, k, 0))


def decode_batch(y: np.ndarray, e, a1, a2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``decode`` for B received words at once, row for row the same result.

    ``y`` is a (B, n-1) uint8 array of 0/1 symbols with each erased symbol
    stored as 0; ``e``, ``a1`` and ``a2`` give each row's erasure position
    (e = n for none) and class, as arrays of B or scalars.  Returns
    ``(words, k, status)``: the (B, n) uint8 decoded words, the insertion
    indices, and per row the sync pass (1 or 2), or a status below 1 that
    ``FAILURE_STATUS`` maps to the scalar failure reason.  Words and k of a
    failed row are unspecified.

    The steps: the discrepancy per row; the k=1 checksum f1 from one
    weighted sum (``row_sums`` with weights 2..n); the first k <= e where
    f1 + G_{k-1} matches a2, as the c-th 1 of y ^ deleted; a second pass,
    guessing (deleted, erased) = (0, 1), only for erasure rows with
    discrepancy 1 that found no k; then one masked copy rebuilds every word.

    Fixed-width limits: symbols and words are one bit per uint8 byte, with no
    packing; the int64 sums of ``row_sums`` are exact far past any n that
    fits in memory; sync targets and positions are int64.
    """
    rows, m = y.shape
    n = m + 1
    e, a1, a2 = (np.broadcast_to(np.asarray(v, np.int64), (rows,)) for v in (e, a1, a2))
    bit_sum, weighted = row_sums(y, 2)
    disc = (a1 - bit_sum) % 3
    erasure = e < n
    deleted = (disc > 0).astype(np.uint8)
    erased = (erasure & (disc == 2)).astype(np.uint8)
    k = _first_sync(y, e, a2, deleted, erased, weighted, bit_sum)
    status = (k > 0).astype(np.int8)
    status[~erasure & (disc == 2)] = -1
    retry = np.flatnonzero(erasure & (disc == 1) & (k == 0))
    if retry.size:
        deleted[retry] = 0
        erased[retry] = 1
        k2 = _first_sync(y[retry], e[retry], a2[retry], deleted[retry], erased[retry],
                         weighted[retry], bit_sum[retry])
        k[retry] = k2
        status[retry] = np.where(k2 > 0, 2, 0)
    # z_i = y_i before k, the deleted guess at k, y_{i-1} after it, and the
    # erased guess in the slot after e, where the stored 0 of y_e lands
    words = np.zeros((rows, n), np.uint8)
    words[:, 1:] = y
    np.copyto(words[:, :-1], y, where=np.arange(m) < (k - 1)[:, None])
    words[np.arange(rows), k - 1] = deleted
    hole = np.flatnonzero(erasure)
    words[hole, e[hole]] = erased[hole]
    return words, k, status
