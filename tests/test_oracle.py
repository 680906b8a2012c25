"""Brute-force verification machinery and its agreement with the decoder."""

import random
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ordel import montecarlo, oracle
from ordel.channel import CorruptionPattern, all_patterns, corrupt
from ordel.core import CodeParams, ReceivedWord, pack_rows, parse_received, parse_word
from ordel.decoder import Recovered, decode
from ordel.oracle import (
    PreimageSet,
    VerificationReport,
    brute_force_decode,
    check_rows,
    deletion_balls_disjoint,
    verify_code,
    verify_decoder,
)
from ordel.vt_code import Codebook, best_params, class_sizes, enumerate_codebook

from test_vt_code import is_member


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


def loop_verify_decoder(codebook: Codebook, failing: ReceivedWord) -> VerificationReport:
    """Reference: every (codeword, pattern) row in order, where rows that corrupt to
    ``failing`` do not synchronize and every other row decodes."""
    patterns = all_patterns(codebook.params.n)
    for i, x in enumerate(codebook.words):
        for j, pattern in enumerate(patterns):
            if corrupt(x, pattern) == failing:
                failure = f"FAIL x1={x} x2=no-synchronization d={pattern.d} e={pattern.e}"
                return VerificationReport("decoder-round-trip", i * len(patterns) + j + 1, failure)
    return VerificationReport("decoder-round-trip", len(codebook) * len(patterns))


def decoder_walk(codebook: Codebook) -> list[tuple[int, int, int]]:
    """The (e, d, codeword index) rows that ``verify_decoder`` decodes, in its order: codebook x
    ``all_patterns`` order, the rows whose d starts a run of the codeword."""
    return [
        (p.e, p.d, i)
        for i, x in enumerate(codebook.words)
        for p in all_patterns(codebook.params.n)
        if p.d == 1 or x.bits[p.d - 2] != x.bits[p.d - 1]
    ]


def full_order_place(codebook: Codebook, e: int, d: int, i: int) -> int:
    """The row's place, from 0, among all codebook x ``all_patterns`` rows."""
    patterns = all_patterns(codebook.params.n)
    return i * len(patterns) + patterns.index(CorruptionPattern(d, e))


def kernel_key(codebook: Codebook, e: int, d: int, i: int) -> tuple[int, int]:
    """The (packed received word, e) that the kernel sees for the row, its erasure stored as 0."""
    y = corrupt(codebook.words[i], CorruptionPattern(d, e))
    return pack_rows(np.array([[s or 0 for s in y.symbols]], np.uint8), y.n)[0, 0], e


def reject_rows(monkeypatch, keys: list[tuple[int, int]]) -> list[list[int]]:
    """Make ``oracle.decode_batch`` fail the rows with these (y, e) keys; per kernel call,
    the positions in ``keys`` of the rows it saw."""
    real, calls = oracle.decode_batch, []

    def reject(y, n, e, a1, a2):
        words, k, status = real(y, n, e, a1, a2)
        hits = [(y[:, 0] == word) & (e == at) for word, at in keys]
        calls.append([j for j, hit in enumerate(hits) if hit.any()])
        return words, k, np.where(np.any(hits, axis=0), 0, status)

    monkeypatch.setattr(oracle, "decode_batch", reject)
    return calls


def filtered_codebook(n: int, keep) -> Codebook:
    """The words of {0,1}^n whose (bit sum, weighted sum) pass ``keep``, in ascending order."""
    bits = np.array(list(product((0, 1), repeat=n)), np.uint8)
    kept = bits[keep(bits.sum(axis=1), bits @ np.arange(1, n + 1))]
    return Codebook(CodeParams(n, 0, 0), pack_rows(kept, n))


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
def received_words(draw, max_n=12):
    """Any received word: any length up to ``max_n``, any symbols, an erasure anywhere or none."""
    n = draw(st.integers(3, max_n))
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

    def test_rejects_a_word_of_another_length(self):
        # as decode does: an empty set would read as an unreachable word of the class
        with pytest.raises(ValueError, match="implies n=5, code has n=4"):
            brute_force_decode(parse_received("0101", 5), enumerate_codebook(CodeParams(4, 2, 0)))

    def test_several_deletions_in_one_run(self):
        # deleting either 1 of 0110 gives 010, so one word comes with two patterns
        codebook = enumerate_codebook(CodeParams(4, 2, 0))
        y = parse_received("010", 4)
        pre = brute_force_decode(y, codebook)
        word = parse_word("0110")
        assert pre.candidates == {(word, CorruptionPattern(2, 4)), (word, CorruptionPattern(3, 4))}
        assert pre == loop_decode(y, codebook)

    @staticmethod
    def run_start_rows(codebook: Codebook) -> int:
        """The (codeword, d <= e) rows whose d starts a run: a start at d pairs with n - d + 1 e."""
        n = codebook.params.n
        return int((oracle._run_starts(codebook) * np.arange(n, 0, -1)).sum())

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equals_loop_on_every_class(self, n):
        # and one run-start row per distinct received word, as the sweeps rely on
        for a1 in range(3):
            for a2 in range(n + 1):
                codebook = enumerate_codebook(CodeParams(n, a1, a2))
                expected = all_preimage_sets(codebook)
                assert self.run_start_rows(codebook) == len(expected)
                for y, pre in expected.items():
                    assert brute_force_decode(y, codebook) == pre

    def test_equals_loop_on_best_class_n13(self):
        codebook = enumerate_codebook(best_params(13))
        expected = all_preimage_sets(codebook)
        assert len(expected) == self.run_start_rows(codebook) == 10163
        for y, pre in expected.items():
            assert brute_force_decode(y, codebook) == pre

    @given(received_words(), st.integers(0, 2), st.data())
    def test_equals_loop_on_arbitrary_words(self, y, a1, data):
        a2 = data.draw(st.integers(0, y.n))
        codebook = enumerate_codebook(CodeParams(y.n, a1, a2))
        assert brute_force_decode(y, codebook) == loop_decode(y, codebook)

    @given(received_words(max_n=40), st.integers(0, 2), st.data())
    def test_candidates_are_members_that_corrupt_to_y(self, y, a1, data):
        # no rows: the oracle reads the class from the parameters; by the code's guarantee
        # y has at most one preimage, and the decoder finds it
        params = CodeParams(y.n, a1, data.draw(st.integers(0, y.n)))
        pre = brute_force_decode(y, Codebook(params, np.zeros((0, 1), np.uint64)))
        for word, pattern in pre.candidates:
            assert is_member(word, params) and corrupt(word, pattern) == y
        out = decode(y, params)
        assert pre.words == ((out.word,) if isinstance(out, Recovered) else ())

    @settings(max_examples=48, deadline=None)
    @given(st.integers(64, 200), st.integers(0, 2), st.data())
    def test_members_round_trip_past_the_listing(self, n, a1, data):
        # a fixed-class member at sizes no class listing reaches: the free bits and u that
        # the sampler's completion step turns into it, and the pattern, are drawn here
        params, table = CodeParams(n, a1, data.draw(st.integers(0, n))), montecarlo._completions(n)
        free = data.draw(st.integers(0, 2**n - 1))
        bits = np.array([[int(c) for c in f"{free:0{n}b}"]], np.uint8)
        u = np.array([data.draw(st.integers(0, table[3] - 1))])
        words = montecarlo._complete(table, pack_rows(bits, n), n, u, a1, params.a2)
        assume(len(words))
        codebook = Codebook(params, words)
        (x,) = codebook.words
        d = data.draw(st.integers(1, n))
        y = corrupt(x, CorruptionPattern(d, data.draw(st.integers(d, n))))
        assert brute_force_decode(y, codebook).words == (decode(y, params).word,) == (x,)

    @pytest.mark.parametrize("n, count", [(64, 16), (128, 16), (200, 16), (1000, 2)])
    def test_round_trips_past_the_listing(self, n, count):
        # fixed-class members drawn by the sampler, one seeded pattern each
        params = CodeParams(n, 1, n // 3)
        table = montecarlo._completions(n)
        words, _, _ = montecarlo._draw_codewords(random.Random(n), n, count, 1, n // 3, table)
        codebook, rng = Codebook(params, words), random.Random(-n)
        for x in codebook.words:
            d = rng.randint(1, n)
            y = corrupt(x, CorruptionPattern(d, rng.randint(d, n)))
            assert brute_force_decode(y, codebook).words == (decode(y, params).word,) == (x,)

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

    @pytest.mark.parametrize(
        "keep, expected",
        [
            # plain VT: weighted sum 0 mod n + 1, bit sum free; (d, e) = (4, 4) takes both
            # 1s of 00011000, so only the bit sums, 0 and 2, tell it from 00000000
            (lambda s, w: w % 9 == 0, (274, "FAIL x1=00000000 x2=00011000 d=4 e=4")),
            # the bit sum mod 2: x_d + x_{e+1} takes three values, and here 1 and 3 agree
            (lambda s, w: (s % 2 == 1) & (w % 9 == 1), (133, "FAIL x1=10000000 x2=10011000 d=4 e=4")),
        ],
    )
    def test_negative_controls(self, keep, expected):
        # the sweep fails each construction without the bit sum mod 3
        codebook = filtered_codebook(8, keep)
        got, want = verify_code(codebook), dict_verify_code(codebook)
        assert (got.checked, got.render()) == (want.checked, want.render()) == expected

    def test_step_cap_refusal(self):
        # 64,529 rows at n = 64: 64,529 * 64 * 65 / 2 = 134,220,320 rows, past the 2^27 row cap
        bits = np.random.default_rng(0).integers(0, 2, (64529, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="row cap"):
            verify_code(Codebook(CodeParams(64, 0, 0), pack_rows(bits, 64)))

    def test_row_cap_admits_every_class_to_n24(self):
        # the largest class at n = 24 needs 67,109,400 rows, the smallest at n = 25 139,801,025
        at24, at25 = class_sizes(24).ravel(), class_sizes(25).ravel()
        assert (at24.max() * 300, at25.min() * 325) == (67_109_400, 139_801_025)
        for size in at24:
            check_rows(24, size)
        for size in at25:
            with pytest.raises(ValueError, match="above the row cap 134217728"):
                check_rows(25, size)

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
        # the kernel rejects the row 4 * 2^10 of the decoder's walk; the report counts that
        # row's place among all codebook x all_patterns rows and shows the kernel's failure
        # reason; with 2^10 rows per batch a call takes at most 2^10 rows, so that row of the
        # n = 13 sweep comes in the third call or later
        monkeypatch.setattr(oracle, "BATCH_WORDS", 1 << 10)
        codebook = enumerate_codebook(best_params(13))
        e, d, i = row = decoder_walk(codebook)[4 << 10]
        calls = reject_rows(monkeypatch, [kernel_key(codebook, *row)])
        report = verify_decoder(codebook)
        place = full_order_place(codebook, *row)
        assert calls.index([0]) >= 2 and sum(map(len, calls)) == 1 and place > 4 << 10
        assert report.checked == place + 1
        assert report.render() == (
            f"FAIL x1={codebook.words[i].render()} x2=no-synchronization d={d} e={e}"
        )

    def test_reports_the_first_failing_row_and_stops(self, monkeypatch):
        # two rejected rows: codeword 10 under (1, 1) and codeword 0 under (1, 8); the report
        # names codeword 0's, first in codebook x all_patterns order, and the walk stops at the
        # block that holds it (one codeword a block at 16 rows): the kernel never sees the other
        monkeypatch.setattr(oracle, "BATCH_WORDS", 16)
        codebook = enumerate_codebook(best_params(8))
        early, late = (1, 1, 10), (8, 1, 0)
        calls = reject_rows(monkeypatch, [kernel_key(codebook, *early), kernel_key(codebook, *late)])
        report = verify_decoder(codebook)
        assert len(codebook) == 11 and calls == [[1]]
        assert full_order_place(codebook, *late) < full_order_place(codebook, *early)
        assert (report.checked, report.render()) == (
            full_order_place(codebook, *late) + 1,
            f"FAIL x1={codebook.words[0].render()} x2=no-synchronization d=1 e=8",
        )

    @pytest.mark.parametrize("batch", [16, 1 << 10])
    def test_blocks_stay_bounded_and_stop_at_the_failing_row(self, monkeypatch, batch):
        # at n = 13 a block is max(1, batch // 91) codewords of 91 patterns, so no kernel call
        # takes more than max(batch, 91) rows, and none comes after the rejected row's; at
        # batch 16, some block of two codewords would pass 91 rows
        monkeypatch.setattr(oracle, "BATCH_WORDS", batch)
        codebook = enumerate_codebook(best_params(13))
        row = decoder_walk(codebook)[4 << 10]
        sizes, real = [], oracle.decode_batch

        def count_rows(y, n, e, a1, a2):
            sizes.append(len(y))
            return real(y, n, e, a1, a2)

        monkeypatch.setattr(oracle, "decode_batch", count_rows)
        calls = reject_rows(monkeypatch, [kernel_key(codebook, *row)])
        report = verify_decoder(codebook)
        assert report.checked == full_order_place(codebook, *row) + 1
        assert max(sizes) <= max(batch, 13 * 14 // 2) and calls[-1] == [0] and len(calls) > 2

    def test_failing_received_word_reports_the_first_row(self, monkeypatch):
        # the kernel fails every row with one chosen (y, e); whichever row of a run it
        # came from, the report names the first such row of the full order, as a loop
        # over every row does; 16-row batches put the rows across many kernel calls
        real, failing = oracle.decode_batch, None

        def fail_one_word(y, n, e, a1, a2):
            words, k, status = real(y, n, e, a1, a2)
            status = np.where((y[:, 0] == failing[0]) & (e == failing[1]), 0, status)
            return words, k, status

        monkeypatch.setattr(oracle, "decode_batch", fail_one_word)
        monkeypatch.setattr(oracle, "BATCH_WORDS", 16)
        codebook = enumerate_codebook(best_params(7))
        for y in sorted(all_preimage_sets(codebook), key=str):
            symbols = np.array([[s or 0 for s in y.symbols]], np.uint8)
            failing = pack_rows(symbols, 7)[0, 0], y.effective_erasure
            got, want = verify_decoder(codebook), loop_verify_decoder(codebook, y)
            assert (got.checked, got.render()) == (want.checked, want.render())

    def test_reports_the_word_the_kernel_returned(self, monkeypatch):
        # the kernel "recovers" the last row of the decoder's walk, an e = n row with d > 1,
        # with one bit flipped; the report shows that word
        codebook = enumerate_codebook(best_params(8))
        e, d, i = row = decoder_walk(codebook)[-1]
        word, _ = kernel_key(codebook, *row)
        real = oracle.decode_batch

        def flip_one_row(y, n, e_, a1, a2):
            words, k, status = real(y, n, e_, a1, a2)
            hit = (y[:, 0] == word) & (e_ == e)
            words, status = words.copy(), np.where(hit, 1, status)
            words[hit, 0] ^= np.uint64(1 << 63)  # the packed word's first position
            return words, k, status

        monkeypatch.setattr(oracle, "decode_batch", flip_one_row)
        x = codebook.words[i].render()
        flipped = ("1" if x[0] == "0" else "0") + x[1:]
        report = verify_decoder(codebook)
        assert (e, d > 1) == (8, True)
        assert (report.checked, report.render()) == (
            full_order_place(codebook, *row) + 1,
            f"FAIL x1={x} x2={flipped} d={d} e={e}",
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

    def test_ball_smaller_than_its_runs(self, monkeypatch):
        # a channel that turns every row into 0s: no codebook reaches the ball form, this does;
        # its three runs give 00001110 one word, the word 00000000's deletion gave first
        monkeypatch.setattr(oracle, "corrupt_batch", lambda words, n, d, e: np.zeros_like(words))
        codebook = enumerate_codebook(best_params(8))
        reports = [sweep(codebook) for sweep in (deletion_balls_disjoint, verify_code)]
        assert [(r.checked, r.render()) for r in reports] == [
            (16, "FAIL x1=00001110 x2=00001110 d=1 e=8 ball=1 runs=3"),
            (2, "FAIL x1=00000000 x2=00001110 d=1 e=1"),
        ]

    def test_corrupts_one_row_per_run(self, monkeypatch):
        real, corrupted = oracle.corrupt_batch, []

        def count_rows(words, n, d, e):
            corrupted.append(len(d))
            return real(words, n, d, e)

        monkeypatch.setattr(oracle, "corrupt_batch", count_rows)
        codebook = enumerate_codebook(best_params(13))
        assert deletion_balls_disjoint(codebook).passed
        runs = sum(1 + sum(a != b for a, b in zip(x.bits, x.bits[1:])) for x in codebook.words)
        assert sum(corrupted) == runs == 1367


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
