"""Class sizes, enumeration, and parameter selection for the two-checksum code.

A word x of length n belongs to the code with parameters (n, a1, a2) iff

    sum_{i=1..n} x_i == a1 (mod 3)    and    sum_{i=1..n} i * x_i == a2 (mod n+1).

The 3(n+1) parameter classes partition {0,1}^n, so some class always has at
least 2^n / (3(n+1)) members; ``best_params`` picks the largest one.

Class sizes come from an exact count over positions, O(n^2) work, refused
past ``COUNT_LIMIT``.  Listing a class is exponential, so it alone takes a
cap: each prefix of the first n//2 positions takes the one bucket of ``subset_buckets``
over the last positions that completes it, into ascending packed rows (``core.pack_rows``)
of one uint64 word each, so n <= 64 (x_1 most significant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CodeParams, Word, prefix_mask, unpack_rows

__all__ = ["COUNT_LIMIT", "Codebook", "best_of", "best_params", "check_cap", "class_sizes",
           "enumerate_codebook", "redundancy", "render_codebook"]

DEFAULT_ENUM_CAP = 28  # listing: 23.5 MiB of rows for the 3.1M words of n = 28's best class
COUNT_LIMIT = 1 << 10  # exact counts: class_sizes(1024) takes about 0.2 s, (2048) 1-3 s


@dataclass(frozen=True, eq=False)
class Codebook:
    """All members of one parameter class, sorted: one packed row (``core.pack_rows``) per word."""

    params: CodeParams
    rows: np.ndarray

    def __post_init__(self) -> None:
        n, r = self.params.n, self.rows
        pad = ~prefix_mask(n, -(-n // 64))  # or-ing the rows finds a set pad bit without a copy
        if r.dtype != np.uint64 or r.shape[1:] != pad.shape or any(np.bitwise_or.reduce(r) & pad):
            raise ValueError(f"codewords must be uint64 rows of the code length {n}, pad bits 0")

    @property
    def words(self) -> tuple[Word, ...]:
        """The rows as ``Word`` values, built anew on each access."""
        return tuple(map(Word, map(tuple, unpack_rows(self.rows, self.params.n).tolist())))

    def __len__(self) -> int:
        return len(self.rows)


def check_count(n: int) -> None:
    """Refuse n < 3 and n > ``COUNT_LIMIT``, the lengths the exact counts take."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n > COUNT_LIMIT:
        raise ValueError(f"exact counts at n = {n} exceed the count limit n <= {COUNT_LIMIT}")


def class_sizes(n: int) -> np.ndarray:
    """Sizes of all 3(n+1) parameter classes, indexed [a1, a2].

    Counts words one position at a time: setting x_i = 1 moves a word from
    class (a1, a2) to (a1 + 1, a2 + i).  The counts are exact Python ints
    (an object array), so no width limits n; time does, hence ``COUNT_LIMIT``.
    """
    check_count(n)
    counts = np.zeros((3, n + 1), dtype=object)
    counts[0, 0] = 1
    for i in range(1, n + 1):
        counts = counts + np.roll(counts, (1, i), axis=(0, 1))
    return counts


def subset_keys(positions, m: int) -> np.ndarray:
    """Key (bit sum mod 3) * m + (weighted sum mod m) of every subset of ``positions``.

    Entry t holds positions[j] for each set bit j of t, summed by doubling in place in int32,
    exact while 3m and the sum of the positions are < 2^31; its bit sum is t's popcount.
    """
    w = np.zeros(1 << len(positions), np.int32)
    for j, i in enumerate(positions):
        np.add(w[: 1 << j], i, out=w[1 << j : 2 << j])
    s = np.bitwise_count(np.arange(len(w), dtype=np.uint32))
    return w - w // m * m + (s - s // 3 * 3) * np.int32(m)  # numpy's % is slower than //


def subset_buckets(positions, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsets grouped by ``subset_keys``: key t's are order[start[t]:start[t + 1]], ascending."""
    key = subset_keys(positions, m)
    start = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=3 * m))))
    # a stable argsort of uint16 keys is a radix sort
    return np.argsort(key.astype(np.uint16) if 3 * m <= 1 << 16 else key, kind="stable"), start


def check_cap(n: int, cap: int | None = None) -> None:
    """Refuse n past the cap (``DEFAULT_ENUM_CAP`` if None), at most 64: one uint64 per word."""
    limit = min(DEFAULT_ENUM_CAP if cap is None else cap, 64)
    if n > limit:
        raise ValueError(f"exhaustive enumeration of 2^{n} words exceeds the cap n <= {limit}")


def enumerate_codebook(params: CodeParams, cap: int | None = None) -> Codebook:
    """Collect the members of one class in lexicographic order, as ascending uint64 rows.

    Each prefix of the first n // 2 positions is completed by one bucket of
    the last positions; all prefixes' buckets are gathered at once.
    """
    n, m = params.n, params.n + 1
    check_cap(n, cap)
    high = n // 2
    order, start = subset_buckets(range(n, high, -1), m)
    prefix_key = subset_keys(range(high, 0, -1), m)
    target = (params.a1 - prefix_key // m) % 3 * m + (params.a2 - prefix_key % m) % m
    count = start[target + 1] - start[target]
    ends = np.cumsum(count)
    # row r, of prefix p, is p's bits, then those of entry r - (ends[p] - count[p]) of p's
    # bucket, shifted so that x_1 is the top bit
    entry = np.repeat(start[target] - ends + count, count)
    entry += np.arange(ends[-1])
    rows = order[entry].view(np.uint64)
    del entry  # else a third array of one entry per row, beside the prefixes spread below
    rows <<= np.uint64(64 - n)
    rows |= np.repeat(np.arange(len(count), dtype=np.uint64) << np.uint64(64 - high), count)
    return Codebook(params, rows[:, None])


def best_params(n: int) -> CodeParams:
    """Parameters of the largest class; ties broken by smallest (a1, a2).

    By pigeonhole the winner has at least 2^n / (3(n+1)) members.
    """
    return best_of(class_sizes(n))


def best_of(sizes: np.ndarray) -> CodeParams:
    """``best_params`` from a ``class_sizes`` table already in hand."""
    # argmax takes the first maximum in row-major, i.e. (a1, a2), order
    a1, a2 = divmod(int(sizes.argmax()), sizes.shape[1])
    return CodeParams(sizes.shape[1] - 1, a1, a2)


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
    # each row is a newline and n digits, unpacked 4096 rows at a time; one buffer, decoded once
    text = np.full(len(header) + len(codebook) * (p.n + 1), ord("\n"), np.uint8)
    text[: len(header)] = np.frombuffer(header, np.uint8)
    digits = text[len(header) :].reshape(-1, p.n + 1)[:, 1:]
    for i in range(0, len(digits), 4096):
        np.add(unpack_rows(codebook.rows[i : i + 4096], p.n), ord("0"), out=digits[i : i + 4096])
    return str(text.data, "ascii")
