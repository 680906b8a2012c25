"""Shared value types, indexing conventions, and text encodings.

All positions are 1-based throughout the public API: a word of length n has
bits x_1 ... x_n, and every position argument or result (d, e, k) counts from
1.  ``Word.bits`` is a plain tuple, so x_i lives at ``bits[i - 1]``; use
``Word.bit(i)`` to stay in the 1-based convention.

Erased symbols are represented as ``None`` in memory and rendered as ``'?'``
in all text I/O.  Every type here is an immutable value; every function is
pure, so everything is safe to share across threads.

The batch kernels take and return packed rows: a row of a length-n batch is
W = ceil(n / 64) uint64 words, position i (from 0) in word i // 64 at bit
63 - i % 64, so a word's top bit comes first.  Pad bits, past the row's last
position, are always 0; a received row of n - 1 bits keeps the n-bit W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CodeParams", "ReceivedWord", "Word", "pack_rows", "parse_received", "parse_word",
           "prefix_mask", "unpack_rows"]

MIN_LENGTH = 3
ERASURE_CHAR = "?"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class Word:
    """A binary word x_1 ... x_n with n >= 3."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < MIN_LENGTH:
            raise ValueError(
                f"word length must be >= {MIN_LENGTH}, got {len(self.bits)}"
            )
        # count() runs at C speed; this guard sits on hot paths
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError("word bits must all be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    def bit(self, i: int) -> int:
        """x_i for 1 <= i <= n."""
        if not 1 <= i <= len(self.bits):
            raise IndexError(f"position {i} outside 1..{len(self.bits)}")
        return self.bits[i - 1]

    def render(self) -> str:
        return render_bits(self.bits)

    def __str__(self) -> str:
        return self.render()


def render_bits(bits) -> str:
    """A sequence of 0/1 ints or a 0/1 uint8 row as its '0'/'1' string."""
    return bytes(bits).translate(_DIGITS).decode()


def pack_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """A (B, c) 0/1 uint8 array, c <= n, as B packed rows of a length-n batch."""
    packed = np.zeros((len(bits), 8 * -(-n // 64)), np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """The first ``cols`` positions of packed rows, as a (B, cols) 0/1 uint8 array."""
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=cols)


def prefix_mask(q, width: int) -> np.ndarray:
    """Packed rows of ``width`` words with positions 0..q-1 set, one per q >= 0."""
    # word w keeps its first q - 64w positions: a left shift by 64 - that (numpy shifts by
    # >= 64 to 0); prefix_mask(p + 1, width) ^ prefix_mask(p, width) sets position p alone
    rest = np.arange(64, 64 * width + 1, 64) - np.asarray(q, np.int64)[..., None]
    rest = np.maximum(rest, 0, out=rest).view(np.uint64)
    return np.left_shift(np.uint64(2**64 - 1), rest, out=rest)


@dataclass(frozen=True)
class ReceivedWord:
    """Channel output of length n - 1 over {0, 1, erasure}.

    ``erasure_pos`` is the 1-based index of the single erased symbol, or
    ``None`` when the word was shortened by a deletion alone (the e = n
    case).  ``symbols`` stores erased positions as ``None``.
    """

    symbols: tuple[int | None, ...]
    erasure_pos: int | None = None

    def __post_init__(self) -> None:
        m = len(self.symbols)
        if m < MIN_LENGTH - 1:
            raise ValueError(f"received word length must be >= {MIN_LENGTH - 1}, got {m}")
        erasures = self.symbols.count(None)
        binary = self.symbols.count(0) + self.symbols.count(1)
        if erasures + binary != m:
            raise ValueError("received symbols must be 0, 1, or the erasure marker")
        if erasures > 1:
            raise ValueError(f"at most one erasure allowed, found {erasures}")
        if self.erasure_pos is None:
            if erasures:
                raise ValueError("erasure marker present but erasure_pos not set")
        else:
            if not 1 <= self.erasure_pos <= m:
                raise ValueError(f"erasure_pos {self.erasure_pos} outside 1..{m}")
            if erasures != 1 or self.symbols[self.erasure_pos - 1] is not None:
                raise ValueError(
                    f"erasure_pos {self.erasure_pos} does not match the erased symbol"
                )

    @property
    def n(self) -> int:
        """Length of the original word before corruption."""
        return len(self.symbols) + 1

    @property
    def effective_erasure(self) -> int:
        """The erasure parameter e, with e = n standing for 'no erasure'."""
        return self.erasure_pos if self.erasure_pos is not None else self.n

    def render(self) -> str:
        return "".join(
            ERASURE_CHAR if s is None else ("1" if s else "0") for s in self.symbols
        )

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class CodeParams:
    """Code parameters (n, a1, a2): members satisfy both congruences

        sum x_i == a1 (mod 3)   and   sum i * x_i == a2 (mod n + 1).
    """

    n: int
    a1: int
    a2: int

    def __post_init__(self) -> None:
        if self.n < MIN_LENGTH:
            raise ValueError(f"n must be >= {MIN_LENGTH}, got {self.n}")
        if not 0 <= self.a1 <= 2:
            raise ValueError(f"a1 must be in 0..2, got {self.a1}")
        if not 0 <= self.a2 <= self.n:
            raise ValueError(f"a2 must be in 0..{self.n}, got {self.a2}")


def parse_word(text: str) -> Word:
    """Parse a '0'/'1' string of length >= 3 into a Word."""
    for ch in text:
        if ch not in "01":
            raise ValueError(f"invalid character {ch!r} in word {text!r}")
    return Word(tuple(1 if ch == "1" else 0 for ch in text))


def parse_received(text: str, n: int) -> ReceivedWord:
    """Parse a received word of length n - 1 over '0'/'1'/'?'.

    The '?' position (if any) becomes the 1-based erasure position.
    """
    if len(text) != n - 1:
        raise ValueError(f"received word must have length {n - 1}, got {len(text)}")
    erasure_pos: int | None = None
    symbols: list[int | None] = []
    for i, ch in enumerate(text, start=1):
        if ch == ERASURE_CHAR:
            if erasure_pos is not None:
                raise ValueError(f"multiple erasures in received word {text!r}")
            erasure_pos = i
            symbols.append(None)
        elif ch in "01":
            symbols.append(1 if ch == "1" else 0)
        else:
            raise ValueError(f"invalid character {ch!r} in received word {text!r}")
    return ReceivedWord(tuple(symbols), erasure_pos)
