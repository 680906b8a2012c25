"""Brute-force verification machinery and its agreement with the decoder."""

from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordel import oracle
from ordel.channel import CorruptionPattern, all_patterns, corrupt
from ordel.core import CodeParams, ReceivedWord, pack_rows, parse_received, parse_word
from ordel.decoder import Recovered, decode
from ordel.oracle import (
    PreimageSet,
    VerificationReport,
    brute_force_decode,
    deletion_balls_disjoint,
    verify_code,
    verify_decoder,
)
from ordel.vt_code import Codebook, best_params, enumerate_codebook


def rows(*texts: str) -> np.ndarray:
    """Words given as '0'/'1' strings, as the packed rows a ``Codebook`` holds."""
    return pack_rows(np.array([[int(c) for c in t] for t in texts], np.uint8), len(texts[0]))


def loop_decode(y: ReceivedWord, codebook: Codebook) -> PreimageSet:
    """Reference: try every codeword with every d <= e through ``corrupt``."""
    e = y.effective_erasure
    pairs = set()
    for x in codebook.words:
        if x.n != y.n:
            continue
        for d in range(1, e + 1):
            pattern = CorruptionPattern(d, e)
            if corrupt(x, pattern) == y:
                pairs.add((x, pattern))
    return PreimageSet(y, frozenset(pairs))


def all_preimage_sets(codebook: Codebook) -> dict[ReceivedWord, PreimageSet]:
    """``loop_decode`` for every reachable y, from one ``corrupt`` per codeword and pattern.

    A pair (x, p) with corrupt(x, p) == y is exactly what ``loop_decode(y)``
    collects, since p.e is then y's erasure parameter.
    """
    pairs = defaultdict(set)
    for x in codebook.words:
        for pattern in all_patterns(x.n):
            pairs[corrupt(x, pattern)].add((x, pattern))
    return {y: PreimageSet(y, frozenset(found)) for y, found in pairs.items()}


def dict_verify_code(codebook: Codebook) -> VerificationReport:
    """Reference: each e's received words pooled in one dict, row by row in (d, codeword) order."""
    n, words = codebook.params.n, codebook.words
    checked = 0
    for e in range(1, n + 1):
        seen: dict[ReceivedWord, int] = {}
        for d in range(1, e + 1):
            for i, x in enumerate(words):
                checked += 1
                other = seen.setdefault(corrupt(x, CorruptionPattern(d, e)), i)
                if other != i:
                    failure = f"FAIL x1={words[other].render()} x2={x.render()} d={d} e={e}"
                    return VerificationReport("code-capability", checked, failure)
    return VerificationReport("code-capability", checked)


def dict_deletion_balls(codebook: Codebook) -> VerificationReport:
    """Reference: each codeword's ball as a set, then its words into one dict, in row order."""
    n, words = codebook.params.n, codebook.words
    seen: dict[ReceivedWord, tuple[int, int]] = {}
    checked = 0
    for i, x in enumerate(words):
        checked += n
        received = [corrupt(x, CorruptionPattern(d, n)) for d in range(1, n + 1)]
        ball = len(set(received))
        runs = 1 + sum(a != b for a, b in zip(x.bits, x.bits[1:]))
        if ball != runs:
            failure = f"FAIL x1={x.render()} x2={x.render()} d=1 e={n} ball={ball} runs={runs}"
            return VerificationReport("deletion-balls", checked, failure)
        for d, y in enumerate(received, start=1):
            other, other_d = seen.setdefault(y, (i, d))
            if other != i:
                failure = f"FAIL x1={words[other].render()} x2={x.render()} d={other_d} e={n}"
                return VerificationReport("deletion-balls", checked, failure)
    return VerificationReport("deletion-balls", checked)


@st.composite
def hand_built_codebooks(draw):
    """2 to 6 distinct words of one length n = 3..7, in shuffled row order."""
    n = draw(st.integers(3, 7))
    words = draw(st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=6, unique=True))
    words = draw(st.permutations(words))
    return Codebook(CodeParams(n, 0, 0), np.array([[w << (64 - n)] for w in words], np.uint64))


@st.composite
def received_words(draw):
    """Any received word: any length, any symbols, an erasure anywhere or none."""
    n = draw(st.integers(3, 12))
    symbols = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
    erasure_pos = draw(st.none() | st.integers(1, n - 1))
    if erasure_pos is not None:
        symbols[erasure_pos - 1] = None
    return ReceivedWord(tuple(symbols), erasure_pos)


class TestBruteForceDecode:
    def test_unique_preimage(self):
        codebook = enumerate_codebook(CodeParams(4, 2, 0))
        assert [w.render() for w in codebook.words] == ["0110", "1001"]
        pre = brute_force_decode(parse_received("1?1", 4), codebook)
        assert [w.render() for w in pre.words] == ["1001"]

    def test_unreachable_word_has_empty_preimage(self):
        codebook = enumerate_codebook(CodeParams(4, 2, 0))
        pre = brute_force_decode(parse_received("000", 4), codebook)
        assert pre.candidates == frozenset()

    def test_several_deletions_in_one_run(self):
        # deleting either 1 of 0110 gives 010, so one word comes with two patterns
        codebook = enumerate_codebook(CodeParams(4, 2, 0))
        y = parse_received("010", 4)
        pre = brute_force_decode(y, codebook)
        word = parse_word("0110")
        assert pre.candidates == {(word, CorruptionPattern(2, 4)), (word, CorruptionPattern(3, 4))}
        assert pre == loop_decode(y, codebook)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equals_loop_on_every_class(self, n):
        for a1 in range(3):
            for a2 in range(n + 1):
                codebook = enumerate_codebook(CodeParams(n, a1, a2))
                for y, expected in all_preimage_sets(codebook).items():
                    assert brute_force_decode(y, codebook) == expected

    def test_equals_loop_on_best_class_n13(self):
        codebook = enumerate_codebook(best_params(13))
        expected = all_preimage_sets(codebook)
        assert len(expected) == 10163
        for y, pre in expected.items():
            assert brute_force_decode(y, codebook) == pre

    @given(received_words(), st.integers(0, 2), st.data())
    def test_equals_loop_on_arbitrary_words(self, y, a1, data):
        a2 = data.draw(st.integers(0, y.n))
        codebook = enumerate_codebook(CodeParams(y.n, a1, a2))
        assert brute_force_decode(y, codebook) == loop_decode(y, codebook)

    def test_unsorted_codebook(self):
        sorted_book = enumerate_codebook(best_params(7))
        words = sorted_book.rows
        shuffled = Codebook(sorted_book.params, np.concatenate((words[3:][::-1], words[:3])))
        assert sorted(shuffled.words, key=lambda w: w.bits) == list(sorted_book.words)
        for y, expected in all_preimage_sets(sorted_book).items():
            assert brute_force_decode(y, shuffled) == expected == loop_decode(y, shuffled)

    def test_rows_in_a_strided_view(self):
        # the same rows as every third word of a wider array: a view that is not contiguous
        codebook = enumerate_codebook(best_params(7))
        wide = np.zeros((len(codebook), 3), np.uint64)
        wide[:, 1:2] = codebook.rows
        strided = Codebook(codebook.params, wide[:, 1:2])
        assert not strided.rows.flags.c_contiguous and not strided.rows.flags.f_contiguous
        for y, expected in all_preimage_sets(codebook).items():
            assert brute_force_decode(y, strided) == expected

    @pytest.mark.parametrize("n", range(3, 8))
    def test_contains_the_true_preimage(self, n):
        params = best_params(n)
        codebook = enumerate_codebook(params)
        for x in codebook.words:
            for pattern in all_patterns(n):
                pre = brute_force_decode(corrupt(x, pattern), codebook)
                assert (x, pattern) in pre.candidates


class TestVerifyCode:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_class_passes(self, n):
        for a1 in range(3):
            for a2 in range(n + 1):
                report = verify_code(enumerate_codebook(CodeParams(n, a1, a2)))
                assert report.passed, report.render()

    def test_full_cube_fails(self):
        # all of {0,1}^3 cannot survive even a single deletion
        cube = rows(*map("".join, product("01", repeat=3)))
        report = verify_code(Codebook(CodeParams(3, 0, 0), cube))
        assert not report.passed
        assert report.checked == 3
        assert report.render() == "FAIL x1=000 x2=010 d=1 e=1"
        parts = dict(
            kv.split("=") for kv in report.render().removeprefix("FAIL ").split()
        )
        assert set(parts) == {"x1", "x2", "d", "e"}
        x1, x2 = parse_word(parts["x1"]), parse_word(parts["x2"])
        pattern = CorruptionPattern(int(parts["d"]), int(parts["e"]))
        assert x1 != x2
        assert corrupt(x1, pattern) == corrupt(x2, pattern)

    def test_collision_across_deletions_fails(self):
        # 0011 under (d=3, e=3) and 0100 under (d=2, e=3) both give 00?; the
        # receiver knows e but not d, so the two cannot be told apart
        codebook = Codebook(CodeParams(4, 0, 0), rows("0011", "0100"))
        report = verify_code(codebook)
        assert (report.checked, report.render()) == (11, "FAIL x1=0100 x2=0011 d=3 e=3")
        received = corrupt(parse_word("0011"), CorruptionPattern(3, 3))
        assert received == corrupt(parse_word("0100"), CorruptionPattern(2, 3))
        assert deletion_balls_disjoint(codebook).passed

    def test_singleton_passes(self):
        report = verify_code(enumerate_codebook(CodeParams(3, 0, 0)))
        assert report.passed

    def test_step_cap_refusal(self):
        # 2100 rows at n = 64: 2100 * 64 * 65 / 2 = 4,368,000 rows, past the 2^22 row cap
        bits = np.random.default_rng(0).integers(0, 2, (2100, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="row cap"):
            verify_code(Codebook(CodeParams(64, 0, 0), pack_rows(bits, 64)))

    @pytest.mark.parametrize("sweep", [verify_code, verify_decoder, deletion_balls_disjoint])
    def test_rejects_words_of_another_length(self, sweep):
        # packed, a 5-bit word that ends in 0 is a 4-bit word; one that ends in 1 sets a pad bit
        with pytest.raises(ValueError, match="code length 4"):
            sweep(Codebook(CodeParams(4, 2, 0), rows("10011")))


class TestVerifyDecoder:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_best_class_passes(self, n):
        report = verify_decoder(enumerate_codebook(best_params(n)))
        assert report.passed, report.render()

    def test_reports_wrong_recovery(self):
        # a deliberately bad "codebook": two words colliding after deletion
        report = verify_decoder(Codebook(CodeParams(4, 0, 0), rows("0001", "1000")))
        assert not report.passed
        assert report.checked == 1
        assert report.render() == "FAIL x1=0001 x2=no-synchronization d=1 e=1"

    def test_checked_counts_rows_across_batches(self, monkeypatch):
        # the kernel rejects the first row of its third batch; the report
        # counts every row before it and shows the kernel's failure reason;
        # 2^10 one-word rows per batch split the n = 13 sweep into 1024-row batches
        real, calls = oracle.decode_batch, []

        def reject_third_batch(y, n, e, a1, a2):
            words, k, status = real(y, n, e, a1, a2)
            calls.append(len(y))
            if len(calls) == 3:
                status = status.copy()
                status[0] = 0
            return words, k, status

        monkeypatch.setattr(oracle, "decode_batch", reject_third_batch)
        monkeypatch.setattr(oracle, "BATCH_WORDS", 1 << 10)
        codebook = enumerate_codebook(best_params(13))
        report = verify_decoder(codebook)
        row = calls[0] + calls[1]
        patterns = all_patterns(13)
        x, pattern = codebook.words[row // len(patterns)], patterns[row % len(patterns)]
        assert report.checked == row + 1
        assert report.render() == (
            f"FAIL x1={x.render()} x2=no-synchronization d={pattern.d} e={pattern.e}"
        )


    def test_reports_the_word_the_kernel_returned(self, monkeypatch):
        # the kernel "recovers" row 5 with one bit flipped; the report shows that word
        real = oracle.decode_batch

        def flip_row_5(y, n, e, a1, a2):
            words, k, status = real(y, n, e, a1, a2)
            words, status = words.copy(), status.copy()
            words[5, 0] ^= np.uint64(1 << 63)  # the packed word's first position
            status[5] = 1
            return words, k, status

        monkeypatch.setattr(oracle, "decode_batch", flip_row_5)
        codebook = enumerate_codebook(best_params(8))
        x, pattern = codebook.words[0], all_patterns(8)[5]
        flipped = ("1" if x.render()[0] == "0" else "0") + x.render()[1:]
        report = verify_decoder(codebook)
        assert (report.checked, report.render()) == (
            6,
            f"FAIL x1={x.render()} x2={flipped} d={pattern.d} e={pattern.e}",
        )


class TestSweepsOnRows:
    """The sweeps corrupt, hash and report packed rows: no scalar corrupt or decode runs."""

    @pytest.fixture(autouse=True)
    def no_scalar_paths(self, monkeypatch):
        def scalar(*args):
            raise AssertionError("a scalar corrupt or decode ran")

        for name in ("corrupt_symbols", "decode", "corrupt"):
            monkeypatch.setattr(oracle, name, scalar, raising=False)

    @pytest.mark.parametrize(
        "sweep, per_word",
        [(verify_code, 36), (verify_decoder, 36), (deletion_balls_disjoint, 8)],
    )
    def test_best_class_n8_passes(self, sweep, per_word):
        codebook = enumerate_codebook(best_params(8))
        report = sweep(codebook)
        assert (report.passed, report.checked) == (True, per_word * len(codebook))

    def test_pinned_failures(self):
        cube = Codebook(CodeParams(3, 0, 0), rows(*map("".join, product("01", repeat=3))))
        shifted = Codebook(CodeParams(4, 0, 0), rows("0011", "0100"))
        overlapping = Codebook(CodeParams(4, 0, 0), rows("0001", "1000"))
        reports = [
            sweep(codebook)
            for codebook in (cube, shifted, overlapping)
            for sweep in (verify_code, verify_decoder, deletion_balls_disjoint)
        ]
        assert [(r.checked, r.render()) for r in reports] == [
            (3, "FAIL x1=000 x2=010 d=1 e=1"),
            (7, "FAIL x1=001 x2=no-synchronization d=1 e=1"),
            (6, "FAIL x1=000 x2=001 d=1 e=3"),
            (11, "FAIL x1=0100 x2=0011 d=3 e=3"),
            (1, "FAIL x1=0011 x2=no-synchronization d=1 e=1"),
            (8, "PASS checked=8"),
            (8, "FAIL x1=0001 x2=1000 d=1 e=3"),
            (1, "FAIL x1=0001 x2=no-synchronization d=1 e=1"),
            (8, "FAIL x1=0001 x2=1000 d=4 e=4"),
        ]


class TestSortedSweepsEqualDictSweeps:
    """The sorted sweeps report exactly what a per-row dict sweep reports."""

    @staticmethod
    def assert_same(codebook):
        for sweep, reference in (
            (verify_code, dict_verify_code),
            (deletion_balls_disjoint, dict_deletion_balls),
        ):
            got, want = sweep(codebook), reference(codebook)
            assert (got.checked, got.render()) == (want.checked, want.render())

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_class(self, n):
        for a1 in range(3):
            for a2 in range(n + 1):
                self.assert_same(enumerate_codebook(CodeParams(n, a1, a2)))

    # 1000's ball holds 000, which 0001 saw first: a ball that counted only
    # the words a codeword sees first would read ball=1 runs=2 here
    @example(Codebook(CodeParams(4, 0, 0), rows("0001", "1000")))
    @given(hand_built_codebooks())
    def test_hand_built_codebooks(self, codebook):
        self.assert_same(codebook)

    @pytest.mark.parametrize("n", [63, 64])
    def test_rows_at_the_word_edge(self, n):
        # the runs are counted from one word a row: x_n ends the last run at n = 64, and
        # at n = 63 the pad bit after it must not start another
        bits = np.random.default_rng(n).integers(0, 2, (5, n), dtype=np.uint8)
        bits[0], bits[1, ::2], bits[1, 1::2], bits[2, -1] = 1, 0, 1, 1
        self.assert_same(Codebook(CodeParams(n, 0, 0), pack_rows(bits, n)))


class TestDeletionBalls:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_codebook_balls_disjoint_and_sized_by_runs(self, n):
        report = deletion_balls_disjoint(enumerate_codebook(best_params(n)))
        assert report.passed, report.render()

    def test_singleton_passes(self):
        report = deletion_balls_disjoint(enumerate_codebook(CodeParams(3, 0, 0)))
        assert report.passed

    def test_overlapping_balls_detected(self):
        # deleting d=4 from 0001 and d=1 from 1000 both give 000
        report = deletion_balls_disjoint(Codebook(CodeParams(4, 0, 0), rows("0001", "1000")))
        assert not report.passed
        assert report.checked == 8
        assert report.render() == "FAIL x1=0001 x2=1000 d=4 e=4"


class TestOracleDecoderAgreement:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_singleton_preimage_equals_decode(self, n):
        params = best_params(n)
        codebook = enumerate_codebook(params)
        seen = set()
        for x in codebook.words:
            for pattern in all_patterns(n):
                y = corrupt(x, pattern)
                key = (y.symbols, y.erasure_pos)
                if key in seen:
                    continue
                seen.add(key)
                pre = brute_force_decode(y, codebook)
                out = decode(y, params)
                assert isinstance(out, Recovered)
                assert pre.words == (out.word,), (y, pre.words, out)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_class_decodes_and_capability_agrees(self, n):
        # both sweeps pass (and so agree) on every class, incl. degenerate ones
        for a1 in range(3):
            for a2 in range(n + 1):
                codebook = enumerate_codebook(CodeParams(n, a1, a2))
                code_report = verify_code(codebook)
                decoder_report = verify_decoder(codebook)
                assert code_report.passed, code_report.render()
                assert decoder_report.passed, decoder_report.render()
