"""Brute-force verification, kept independent of the decoder.

``brute_force_decode`` expands y into its at most 4e candidate preimages and
keeps those among the codebook's rows that re-corrupt to y: O(n^2) work plus
one pass over the rows.  ``verify_code`` checks what a receiver sees: for each
e, no word that the patterns (d, e), d <= e, make of the codewords comes from
two of them.  ``deletion_balls_disjoint`` checks the deletion-only words.
Nothing imported from ``decoder`` feeds these three and none touches
checksums, so agreement between this module and the decoder is genuine
evidence.  The sweeps hash |C| * n(n+1)/2 corrupted words (``verify_code``,
``verify_decoder``) or |C| * n (the deletion balls); only ``check_pairwise``
charges |C|^2 * n^2 steps, refusing past a cap from |C| alone, before listing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import run_count
from .channel import CorruptionPattern, all_patterns, corrupt, corrupt_batch, corrupt_symbols, patterns_at
from .core import ReceivedWord, Word
from .decoder import BATCH_BITS, Recovered, decode, decode_batch
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
    words = codebook.words
    checked = 0
    for e in range(1, n + 1):
        seen: dict[tuple[int | None, ...], Word] = {}
        for d in range(1, e + 1):
            for x in words:
                checked += 1
                other = seen.setdefault(corrupt_symbols(x.bits, d, e), x)
                if other is not x:
                    return VerificationReport(
                        "code-capability",
                        checked,
                        f"FAIL x1={other.render()} x2={x.render()} d={d} e={e}",
                    )
    return VerificationReport("code-capability", checked)


def verify_decoder(codebook: Codebook) -> VerificationReport:
    """Round-trip every codeword through every pattern and the decoder.

    Rows run in codebook x ``all_patterns`` order, BATCH_BITS // n at a time,
    through ``corrupt_batch`` and ``decode_batch``; the first failing row is
    decoded again by the scalar ``decode`` for the report.
    """
    params = codebook.params
    n = params.n
    check_pairwise(n, len(codebook))
    patterns = all_patterns(n)
    d, e = patterns_at(np.arange(len(patterns)), n)
    words = codebook.bits
    total = len(words) * len(patterns)
    step = max(1, BATCH_BITS // n)
    for start in range(0, total, step):
        word_of, pattern_of = np.divmod(np.arange(start, min(start + step, total)), len(patterns))
        x = words[word_of]
        decoded, _, status = decode_batch(
            corrupt_batch(x, d[pattern_of], e[pattern_of]), e[pattern_of], params.a1, params.a2
        )
        bad = np.flatnonzero((status < 1) | (decoded != x).any(axis=1))
        if bad.size:
            row = start + int(bad[0])
            x, pattern = Word(tuple(x[bad[0]].tolist())), patterns[row % len(patterns)]
            outcome = decode(corrupt(x, pattern), params)
            got = (
                outcome.word.render()
                if isinstance(outcome, Recovered)
                else outcome.reason.replace(" ", "-")
            )
            return VerificationReport(
                "decoder-round-trip",
                row + 1,
                f"FAIL x1={x.render()} x2={got} d={pattern.d} e={pattern.e}",
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
    seen: dict[tuple[int | None, ...], tuple[Word, int]] = {}
    checked = 0
    for x in codebook.words:
        ball: dict[tuple[int | None, ...], int] = {}
        for d in range(1, n + 1):
            ball.setdefault(corrupt_symbols(x.bits, d, n), d)
            checked += 1
        if len(ball) != run_count(x):
            return VerificationReport(
                "deletion-balls",
                checked,
                f"FAIL x1={x.render()} x2={x.render()} d=1 e={n} "
                f"ball={len(ball)} runs={run_count(x)}",
            )
        for symbols, d in ball.items():
            if symbols in seen:
                other, other_d = seen[symbols]
                return VerificationReport(
                    "deletion-balls",
                    checked,
                    f"FAIL x1={other.render()} x2={x.render()} d={other_d} e={n}",
                )
            seen[symbols] = (x, d)
    return VerificationReport("deletion-balls", checked)
