"""Membership, enumeration, and parameter selection for the two-checksum code.

A word x of length n belongs to the code with parameters (n, a1, a2) iff

    sum_{i=1..n} x_i == a1 (mod 3)    and    sum_{i=1..n} i * x_i == a2 (mod n+1).

The 3(n+1) parameter classes partition {0,1}^n, so some class always has at
least 2^n / (3(n+1)) members; ``best_params`` picks the largest one.

Class sizes come from an exact count over positions, O(n^2) work.  Listing
a class is exponential: it tabulates the residues of the last positions once
and scans that table for each prefix of the first positions, in bounded
chunks; words come out in lexicographic bit order (x_1 most significant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CodeParams, Word

DEFAULT_ENUM_CAP = 28
_CHUNK_BITS = 20


@dataclass(frozen=True)
class Codebook:
    """All member words of one parameter class, lexicographically sorted."""

    params: CodeParams
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)


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
    # doubling: setting x_i on top of the table adds 1 and i to the sums.
    # Unreduced, w stays below low * m, which int32 holds for n < 10^8, far
    # past any n whose words could be listed; the key lies in 0..3m-1
    s = np.zeros(1, dtype=np.int32)
    w = np.zeros(1, dtype=np.int32)
    for i in range(n, high, -1):
        s = np.concatenate((s, s + 1))
        w = np.concatenate((w, w + i))
    key = s % 3 * m + w % m
    shifts = np.arange(low - 1, -1, -1)
    members: list[Word] = []
    for p in range(1 << high):
        prefix = tuple((p >> (high - i)) & 1 for i in range(1, high + 1))
        weighted = sum(i * b for i, b in enumerate(prefix, start=1))
        target = (params.a1 - sum(prefix)) % 3 * m + (params.a2 - weighted) % m
        hits = np.flatnonzero(key == target)
        rows = ((hits[:, None] >> shifts) & 1).tolist()
        members.extend(Word(prefix + tuple(r)) for r in rows)
    return Codebook(params, tuple(members))


def best_params(n: int, cap: int | None = None) -> CodeParams:
    """Parameters of the largest class; ties broken by smallest (a1, a2).

    By pigeonhole the winner has at least 2^n / (3(n+1)) members.
    """
    # argmax takes the first maximum in row-major, i.e. (a1, a2), order
    a1, a2 = divmod(int(class_sizes(n, cap).argmax()), n + 1)
    return CodeParams(n, a1, a2)


def redundancy(codebook: Codebook) -> float:
    """Overhead in bits relative to unrestricted n-bit words: n - log2(#codebook)."""
    size = len(codebook.words)
    if size == 0:
        raise ValueError("redundancy undefined for an empty codebook")
    return codebook.params.n - math.log2(size)


def render_codebook(codebook: Codebook) -> str:
    """Text form: one header line `n=<n> a1=<a1> a2=<a2>`, then one word per line."""
    p = codebook.params
    lines = [f"n={p.n} a1={p.a1} a2={p.a2}"]
    lines.extend(w.render() for w in codebook.words)
    return "\n".join(lines)
