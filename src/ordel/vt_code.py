"""Membership, enumeration, and parameter selection for the two-checksum code.

A word x of length n belongs to the code with parameters (n, a1, a2) iff

    sum_{i=1..n} x_i == a1 (mod 3)    and    sum_{i=1..n} i * x_i == a2 (mod n+1).

The 3(n+1) parameter classes partition {0,1}^n, so some class always has at
least 2^n / (3(n+1)) members; ``best_params`` picks the largest one.

Class sizes come from an exact count over positions, O(n^2) work.  Listing
a class is exponential: it tabulates the residues of the last positions once
and scans that table for each prefix of the first positions, in bounded
chunks, into uint8 rows of n bytes in lexicographic order (x_1 most significant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CodeParams, Word

DEFAULT_ENUM_CAP = 28
_CHUNK_BITS = 20


@dataclass(frozen=True, eq=False)
class Codebook:
    """All members of one parameter class, sorted: one 0/1 uint8 row per word."""

    params: CodeParams
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim != 2 or self.bits.shape[1] != self.params.n:
            raise ValueError(f"every codeword must have the code length {self.params.n}")
        if self.bits.dtype != np.uint8 or self.bits.max(initial=0) > 1:
            raise ValueError("codewords must be a uint8 matrix of 0/1 bits")

    @property
    def words(self) -> tuple[Word, ...]:
        """The rows as ``Word`` values, built anew on each access."""
        return tuple(map(Word, map(tuple, self.bits.tolist())))

    def __len__(self) -> int:
        return len(self.bits)


def is_member(word: Word, params: CodeParams) -> bool:
    """Check both congruences in one O(n) pass."""
    if word.n != params.n:
        raise ValueError(f"word length {word.n} != code length {params.n}")
    bit_sum = 0
    weighted_sum = 0
    for i, b in enumerate(word.bits, start=1):
        bit_sum += b
        weighted_sum += i * b
    return bit_sum % 3 == params.a1 and weighted_sum % (params.n + 1) == params.a2


def _check_cap(n: int, cap: int | None) -> None:
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if n > limit:
        raise ValueError(
            f"exhaustive enumeration of 2^{n} words exceeds the cap n <= {limit}; "
            f"raise the cap explicitly to force it"
        )


def class_sizes(n: int, cap: int | None = None) -> np.ndarray:
    """Sizes of all 3(n+1) parameter classes, indexed [a1, a2].

    Counts words one position at a time: setting x_i = 1 moves a word from
    class (a1, a2) to (a1 + 1, a2 + i).  The counts are exact
    Python ints (an object array), so no width limits n.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    _check_cap(n, cap)
    counts = np.zeros((3, n + 1), dtype=object)
    counts[0, 0] = 1
    for i in range(1, n + 1):
        counts = counts + np.roll(counts, (1, i), axis=(0, 1))
    return counts


def subset_keys(positions, m: int) -> np.ndarray:
    """Key (bit sum mod 3) * m + (weighted sum mod m) of every subset of ``positions``.

    Entry t holds positions[j] for each set bit j of t.  Built by doubling in
    unreduced int32, exact while 3m and the sum of the positions are < 2^31.
    """
    s = w = np.zeros(1, dtype=np.int32)
    for i in positions:
        s = np.concatenate((s, s + 1))
        w = np.concatenate((w, w + i))
    return s % 3 * m + w % m


def enumerate_codebook(params: CodeParams, cap: int | None = None) -> Codebook:
    """Collect the members of one class in lexicographic order.

    The residues of the last ``low`` positions are tabulated once, indexed by
    those bits read as an integer; each of the 2^(n - low) prefixes of the
    first positions then selects its completions with one comparison.
    """
    n, m = params.n, params.n + 1
    _check_cap(n, cap)
    low = min(n, _CHUNK_BITS)
    high = n - low
    key = subset_keys(range(n, high, -1), m)
    prefix_key = subset_keys(range(high, 0, -1), m)
    target = (params.a1 - prefix_key // m) % 3 * m + (params.a2 - prefix_key % m) % m
    shifts = np.arange(low - 1, -1, -1)
    blocks = []
    for p, t in enumerate(target.tolist()):
        hits = np.flatnonzero(key == t)
        block = np.empty((len(hits), n), np.uint8)
        block[:, :high] = [(p >> (high - i)) & 1 for i in range(1, high + 1)]
        block[:, high:] = (hits[:, None] >> shifts) & 1
        blocks.append(block)
    return Codebook(params, np.concatenate(blocks))


def best_params(n: int, cap: int | None = None) -> CodeParams:
    """Parameters of the largest class; ties broken by smallest (a1, a2).

    By pigeonhole the winner has at least 2^n / (3(n+1)) members.
    """
    # argmax takes the first maximum in row-major, i.e. (a1, a2), order
    a1, a2 = divmod(int(class_sizes(n, cap).argmax()), n + 1)
    return CodeParams(n, a1, a2)


def redundancy(codebook: Codebook) -> float:
    """Overhead in bits relative to unrestricted n-bit words: n - log2(#codebook)."""
    size = len(codebook)
    if size == 0:
        raise ValueError("redundancy undefined for an empty codebook")
    return codebook.params.n - math.log2(size)


def render_codebook(codebook: Codebook) -> str:
    """Text form: one header line `n=<n> a1=<a1> a2=<a2>`, then one word per line."""
    p = codebook.params
    header = f"n={p.n} a1={p.a1} a2={p.a2}".encode()
    # each row is a newline and n digits; the one buffer is decoded once
    text = np.full(len(header) + len(codebook) * (p.n + 1), ord("\n"), np.uint8)
    text[: len(header)] = np.frombuffer(header, np.uint8)
    np.add(codebook.bits, ord("0"), out=text[len(header) :].reshape(-1, p.n + 1)[:, 1:])
    return str(text.data, "ascii")
