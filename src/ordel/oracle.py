"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` expands y into its at most 4e candidate preimages and
keeps those among the codebook's rows that re-corrupt to y: O(n^2) work plus
one pass over the rows.  ``verify_code`` checks what a receiver sees: for each
e, no word that the patterns (d, e), d <= e, make of the codewords comes from
two of them.  ``deletion_balls_disjoint`` checks the deletion-only words.
Nothing from ``decoder`` feeds these three and none touches checksums, so
agreement with the decoder is genuine evidence.  The sweeps corrupt the rows
of ``Codebook.bits`` with ``corrupt_batch``, |C| * n(n+1)/2 of them (|C| * n
for the deletion balls); two hash each as one (n-1)-byte record, and
``verify_decoder`` reports a failing row from what ``decode_batch`` returned.
Only ``check_pairwise`` charges |C|^2 * n^2 steps, refusing from |C| alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import run_count
from .channel import CorruptionPattern, corrupt_batch, corrupt_symbols, patterns_at
from .core import ReceivedWord, Word, render_bits
from .decoder import BATCH_BITS, FAILURE_STATUS, decode_batch
from .vt_code import Codebook

PAIRWISE_STEP_CAP = 10**9


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


def check_pairwise(n: int, size: int) -> None:
    """Refuse a pairwise sweep over ``size`` codewords of length n past the step cap."""
    steps = size**2 * n**2
    if steps > PAIRWISE_STEP_CAP:
        raise ValueError(f"pairwise sweep needs ~{steps} steps, above the cap {PAIRWISE_STEP_CAP}")


def _received(codebook: Codebook, d: int, e: int) -> list[bytes]:
    """Every codeword corrupted by (d, e), each as one (n-1)-byte record; an erasure holds 0."""
    size, n = codebook.bits.shape
    rows = corrupt_batch(codebook.bits, np.full(size, d), np.full(size, e))
    return rows.view(f"V{n - 1}").ravel().tolist()


def brute_force_decode(y: ReceivedWord, codebook: Codebook) -> PreimageSet:
    """Every (codeword, pattern) pair that corrupts to y.

    Each candidate z inserts a 0 or a 1 before y_d for some d <= e, with the
    erased slot (if any) filled by a 0 or a 1; z is kept when its bytes are a
    codebook row (each row hashed as one n-byte record) and it re-corrupts to
    y.  Only patterns whose erasure parameter matches y are tried: the erasure
    position is visible to a receiver, the deletion position is not.
    """
    e, symbols = y.effective_erasure, y.symbols
    members = set(np.ascontiguousarray(codebook.bits).view(f"V{codebook.params.n}").ravel().tolist())
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
    n = codebook.params.n
    check_pairwise(n, len(codebook))
    checked = 0
    for e in range(1, n + 1):
        # the pool's erasures all sit at e: a stored 0 collides as the marker would
        seen: dict[bytes, int] = {}
        for d in range(1, e + 1):
            for i, received in enumerate(_received(codebook, d, e)):
                checked += 1
                other = seen.setdefault(received, i)
                if other != i:
                    x1, x2 = render_bits(codebook.bits[other]), render_bits(codebook.bits[i])
                    return VerificationReport(
                        "code-capability", checked, f"FAIL x1={x1} x2={x2} d={d} e={e}"
                    )
    return VerificationReport("code-capability", checked)


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    Rows run in codebook x ``all_patterns`` order, BATCH_BITS // n at a time,
    through ``corrupt_batch`` and ``decode_batch``; the first failing row is
    reported with what the kernel returned for it: the decoded word, or the
    failure reason its status stands for.
    """
    params = codebook.params
    n = params.n
    check_pairwise(n, len(codebook))
    d, e = patterns_at(np.arange(n * (n + 1) // 2), n)
    total = len(codebook) * len(d)
    step = max(1, BATCH_BITS // n)
    for start in range(0, total, step):
        word_of, pattern_of = np.divmod(np.arange(start, min(start + step, total)), len(d))
        x, x_d, x_e = codebook.bits[word_of], d[pattern_of], e[pattern_of]
        decoded, _, status = decode_batch(corrupt_batch(x, x_d, x_e), x_e, params.a1, params.a2)
        bad = np.flatnonzero((status < 1) | (decoded != x).any(axis=1))
        if bad.size:
            i = bad[0]
            got = render_bits(decoded[i]) if status[i] > 0 else FAILURE_STATUS[status[i]]
            return VerificationReport(
                "decoder-round-trip",
                start + int(i) + 1,
                f"FAIL x1={render_bits(x[i])} x2={got.replace(' ', '-')} d={x_d[i]} e={x_e[i]}",
            )
    return VerificationReport("decoder-round-trip", total)


def deletion_balls_disjoint(codebook: Codebook) -> VerificationReport:
    """Check single-deletion neighborhoods are pairwise disjoint across the codebook.

    Also checks each neighborhood's size equals the codeword's run count:
    deleting anywhere inside one run gives the same shortened word, so every
    run contributes exactly one neighbor.
    """
    n = codebook.params.n
    check_pairwise(n, len(codebook))
    # per codeword, its n shortened words in order of d
    shortened = zip(*(_received(codebook, d, n) for d in range(1, n + 1)))
    seen: dict[bytes, tuple[Word, int]] = {}
    checked = 0
    for x, received in zip(codebook.words, shortened):
        checked += n
        ball = len(set(received))
        if ball != run_count(x):
            return VerificationReport(
                "deletion-balls",
                checked,
                f"FAIL x1={x.render()} x2={x.render()} d=1 e={n} "
                f"ball={ball} runs={run_count(x)}",
            )
        for d, symbols in enumerate(received, start=1):
            other, other_d = seen.setdefault(symbols, (x, d))
            if other is not x:
                return VerificationReport(
                    "deletion-balls",
                    checked,
                    f"FAIL x1={other.render()} x2={x.render()} d={other_d} e={n}",
                )
    return VerificationReport("deletion-balls", checked)
