"""Decoder: discrepancy, checksums, synchronization, and round trips."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordel import decoder
from ordel.channel import CorruptionPattern, all_patterns, corrupt, corrupt_batch
from ordel.core import (
    CodeParams,
    ReceivedWord,
    Word,
    pack_rows,
    parse_received,
    parse_word,
    unpack_rows,
)
from ordel.decoder import (
    FAILURE_STATUS,
    INVALID_DISCREPANCY,
    NO_SYNC,
    BitHypothesis,
    DecodeFailure,
    Recovered,
    checksum_step,
    decode,
    decode_batch,
    discrepancy,
    hypothesis_checksum,
    round_trip,
    row_sums,
)
from ordel.vt_code import best_params, enumerate_codebook

from test_vt_code import is_member


def run_bounds(bits: tuple[int, ...], d: int) -> tuple[int, int]:
    """Maximal run [lo, hi] (1-based, inclusive) containing position d."""
    lo = d
    while lo > 1 and bits[lo - 2] == bits[d - 1]:
        lo -= 1
    hi = d
    while hi < len(bits) and bits[hi] == bits[d - 1]:
        hi += 1
    return lo, hi


def random_received(rng: random.Random) -> ReceivedWord:
    n = rng.randint(4, 40)
    symbols = [rng.randint(0, 1) for _ in range(n - 1)]
    if rng.random() < 0.5:
        return ReceivedWord(tuple(symbols))
    e = rng.randint(1, n - 1)
    symbols[e - 1] = None
    return ReceivedWord(tuple(symbols), e)


def assert_batch_matches_decode(n: int, rows: list[tuple[ReceivedWord, int, int]]) -> None:
    """decode_batch on (received word, a1, a2) rows agrees with decode on every field."""
    y = np.array([[s or 0 for s in r.symbols] for r, _, _ in rows], np.uint8).reshape(-1, n - 1)
    e = [r.effective_erasure for r, _, _ in rows]
    a1 = [a1 for _, a1, _ in rows]
    a2 = [a2 for _, _, a2 in rows]
    packed, k, status = decode_batch(pack_rows(y, n), n, e, a1, a2)
    words = unpack_rows(packed, n)
    assert packed.shape == (len(rows), -(-n // 64)) and k.shape == status.shape == (len(rows),)
    # every row, failed ones too, keeps its pad bits 0
    assert not unpack_rows(packed, 64 * packed.shape[1])[:, n:].any()
    for i, (received, row_a1, row_a2) in enumerate(rows):
        out = decode(received, CodeParams(n, row_a1, row_a2))
        if isinstance(out, Recovered):
            got = (tuple(words[i].tolist()), int(k[i]), int(status[i]))
            assert got == (out.word.bits, out.insertion_index, out.sync_pass), (received, out)
        else:
            assert status[i] < 1 and FAILURE_STATUS[int(status[i])] == out.reason, (received, out)


def class_of(bits: tuple[int, ...]) -> tuple[int, int]:
    n = len(bits)
    return sum(bits) % 3, sum(i * b for i, b in enumerate(bits, start=1)) % (n + 1)


def count_edge_rows(n: int) -> list[tuple[ReceivedWord, int, int]]:
    """Rows whose a2 puts the first guess's match at each edge of the count.

    The match is at the c-th 1 of y ^ deleted (the erased slot's stored 0
    included); per row, c is 0 (k = 1), 1, the last 1 before column e (k = e),
    the next 1 (k > e: under deleted = 1 the erased slot itself), and one and
    two past the row's last 1.  Packed, a row of n = 64W has one pad bit, read
    as a 1 under deleted = 1: two past the last 1 is past the pad too, and a
    row whose tail is 0s then ends in a word of 1s.
    """
    rng = random.Random(n)
    m = n - 1
    bases = [[0] * m, [1] * m, [i % 2 for i in range(m)], [rng.randint(0, 1) for _ in range(m)],
             [1] * (m // 2) + [0] * (m - m // 2)]
    rows = []
    for bits, e, a1 in product(bases, sorted({1, n // 2, n - 1, n}), range(3)):
        symbols = list(bits)
        if e < n:
            symbols[e - 1] = None
        received = ReceivedWord(tuple(symbols), e if e < n else None)
        disc = discrepancy(received, CodeParams(n, a1, 0))
        hyp = BitHypothesis(int(disc > 0), int(disc == 2 and e < n))
        f1 = hypothesis_checksum(received, 1, hyp, CodeParams(n, a1, 0))
        steps = [int((s or 0) != hyp.deleted) for s in symbols]
        before_e = sum(steps[: e - 1])
        for c in sorted({0, 1, before_e, before_e + 1, sum(steps) + 1, min(sum(steps) + 2, n)}):
            rows.append((received, a1, (f1 + (c if hyp.deleted else -c)) % (n + 1)))
    return rows


class TestDiscrepancy:
    def test_erased_symbol_excluded(self):
        # transmitted 1001, pattern (2, 2): both missing bits are zero
        assert discrepancy(parse_received("1?1", 4), CodeParams(4, 2, 0)) == 0

    def test_deletion_only(self):
        # transmitted 10110 (bit sum 0 mod 3), deleted bit 1
        assert discrepancy(parse_received("0110", 5), CodeParams(5, 0, 2)) == 1

    def test_all_zero(self):
        assert discrepancy(parse_received("000", 4), CodeParams(4, 0, 0)) == 0

    def test_negative_difference_examples(self):
        # a1 - bit sum = 0 - 5 and 1 - 3: both wrap to a residue in 0..2
        assert discrepancy(parse_received("11111", 6), CodeParams(6, 0, 0)) == 1
        assert discrepancy(parse_received("1?110", 6), CodeParams(6, 1, 0)) == 1

    @given(st.integers(4, 40), st.data())
    def test_negative_difference_lands_in_0_2(self, n, data):
        symbols = data.draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
        a1 = data.draw(st.integers(0, 2))
        total = sum(symbols)
        assume(a1 - total < 0)
        d = discrepancy(ReceivedWord(tuple(symbols)), CodeParams(n, a1, 0))
        assert 0 <= d <= 2
        assert (a1 - total - d) % 3 == 0


class TestHypothesisChecksum:
    def test_trace_of_1erased1(self):
        y = parse_received("1?1", 4)
        params = CodeParams(4, 2, 0)
        hyp = BitHypothesis(0, 0)
        assert hypothesis_checksum(y, 1, hyp, params) == 6
        # 5 = 0 mod 5: synchronization at k = 2
        assert hypothesis_checksum(y, 2, hyp, params) == 5

    def test_all_zero_input(self):
        y = parse_received("0000", 5)
        params = CodeParams(5, 0, 0)
        for k in range(1, 6):
            assert hypothesis_checksum(y, k, BitHypothesis(0, 0), params) == 0

    def test_k_out_of_range(self):
        y = parse_received("1?1", 4)
        with pytest.raises(ValueError):
            hypothesis_checksum(y, 0, BitHypothesis(0, 0), CodeParams(4, 2, 0))
        with pytest.raises(ValueError):
            hypothesis_checksum(y, 3, BitHypothesis(0, 0), CodeParams(4, 2, 0))

    def test_hypothesis_bits_validated(self):
        with pytest.raises(ValueError):
            BitHypothesis(2, 0)

    def test_equals_weighted_sum_of_reconstruction(self):
        # independent route: literally build the candidate word (guess before
        # position k, erased slot filled) and weigh it with a plain loop
        rng = random.Random(41)
        for _ in range(400):
            y = random_received(rng)
            e = y.effective_erasure
            n = y.n
            hyp = BitHypothesis(rng.randint(0, 1), rng.randint(0, 1))
            if y.erasure_pos is None and hyp.erased:
                hyp = BitHypothesis(hyp.deleted, 0)
            k = rng.randint(1, e)
            s = y.symbols
            if y.erasure_pos is None:
                candidate = s[: k - 1] + (hyp.deleted,) + s[k - 1 :]
            else:
                candidate = (
                    s[: k - 1] + (hyp.deleted,) + s[k - 1 : e - 1] + (hyp.erased,) + s[e:]
                )
            assert len(candidate) == n
            weighted = sum(i * b for i, b in enumerate(candidate, start=1))
            assert hypothesis_checksum(y, k, hyp, CodeParams(n, 0, 0)) == weighted


class TestChecksumStep:
    def test_matches_direct_trace(self):
        # stepping k=1 -> 2 over y_1 = 1 with deleted-bit guess 0
        assert checksum_step(6, 1, 1, BitHypothesis(0, 0)) == 5

    def test_decode_never_steps_over_the_erased_symbol(self, monkeypatch):
        # the scan steps from k to k + 1 only while k < e, so it reads
        # y_1 .. y_{e-1} and never the erased y_e; that is why the erased
        # slot can be left out of the step
        steps = []
        real = decoder.checksum_step

        def spy(fk, k, y_k, hyp):
            steps.append((k, y_k))
            return real(fk, k, y_k, hyp)

        monkeypatch.setattr(decoder, "checksum_step", spy)
        rng = random.Random(8)
        reached_last_step = 0
        for _ in range(3000):
            y = random_received(rng)
            params = CodeParams(y.n, rng.randint(0, 2), rng.randint(0, y.n))
            steps.clear()
            decode(y, params)
            e = y.effective_erasure
            assert all(k < e and y_k == y.symbols[k - 1] is not None for k, y_k in steps)
            reached_last_step += y.erasure_pos is not None and any(k == e - 1 for k, _ in steps)
        assert reached_last_step > 100

    def test_guess_equal_to_symbol_cancels(self):
        for b in (0, 1):
            assert checksum_step(7, 2, b, BitHypothesis(b, 0)) == 7

    def test_iteration_reproduces_direct_evaluation(self):
        rng = random.Random(2024)
        for _ in range(500):
            y = random_received(rng)
            hyp = BitHypothesis(rng.randint(0, 1), rng.randint(0, 1))
            params = CodeParams(y.n, 0, 0)
            e = y.effective_erasure
            fk = hypothesis_checksum(y, 1, hyp, params)
            for k in range(1, e):
                fk = checksum_step(fk, k, y.symbols[k - 1], hyp)
                assert fk == hypothesis_checksum(y, k + 1, hyp, params), (y, hyp, k)

    @settings(max_examples=200)
    @given(st.data())
    def test_iteration_property(self, data):
        n = data.draw(st.integers(4, 24))
        symbols = data.draw(
            st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1)
        )
        erased = data.draw(st.booleans())
        if erased:
            e = data.draw(st.integers(1, n - 1))
            symbols[e - 1] = None
            y = ReceivedWord(tuple(symbols), e)
        else:
            y = ReceivedWord(tuple(symbols))
        hyp = BitHypothesis(data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1)))
        params = CodeParams(n, 0, 0)
        fk = hypothesis_checksum(y, 1, hyp, params)
        for k in range(1, y.effective_erasure):
            fk = checksum_step(fk, k, y.symbols[k - 1], hyp)
            assert fk == hypothesis_checksum(y, k + 1, hyp, params)


class TestDecode:
    def test_deletion_and_erasure(self):
        out = decode(parse_received("1?1", 4), CodeParams(4, 2, 0))
        assert isinstance(out, Recovered)
        assert out.word.render() == "1001"
        assert out.insertion_index == 2
        assert out.sync_pass == 1

    def test_deletion_only(self):
        # 10110 has bit sum 0 mod 3 and weighted sum 8 = 2 mod 6
        out = decode(parse_received("0110", 5), CodeParams(5, 0, 2))
        assert isinstance(out, Recovered)
        assert out.word.render() == "10110"

    def test_invalid_discrepancy_rejected(self):
        # one deletion changes the bit sum by at most 1, so D = 2 is impossible
        out = decode(parse_received("100", 4), CodeParams(4, 0, 0))
        assert out == DecodeFailure(INVALID_DISCREPANCY)

    def test_no_synchronization_reported(self):
        # brute-forced: no insertion point works for these inputs
        out = decode(parse_received("011", 4), CodeParams(4, 0, 0))
        assert out == DecodeFailure(NO_SYNC)
        out = decode(parse_received("?01", 4), CodeParams(4, 0, 0))
        assert out == DecodeFailure(NO_SYNC)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode(parse_received("011", 4), CodeParams(5, 0, 0))

    def test_out_of_model_corruption_never_crashes(self):
        # flip one surviving bit after a valid corruption; the decoder may
        # fail or return some other codeword, but must not raise
        params = best_params(7)
        for x in enumerate_codebook(params).words:
            y = corrupt(x, CorruptionPattern(2, 4))
            flipped = list(y.symbols)
            flipped[0] = 1 - flipped[0]
            out = decode(ReceivedWord(tuple(flipped), y.erasure_pos), params)
            if isinstance(out, Recovered):
                assert is_member(out.word, params)
            else:
                assert out.reason in (NO_SYNC, INVALID_DISCREPANCY)

    def test_scans_with_the_public_checksum(self, monkeypatch):
        # each pass starts at hypothesis_checksum(k = 1) and steps with
        # checksum_step up to its insertion index, so criterion 9's
        # equivalence covers the scan that decodes
        calls = []

        def counting(name):
            real = getattr(decoder, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("hypothesis_checksum", "checksum_step"):
            monkeypatch.setattr(decoder, name, counting(name))
        params = best_params(8)
        passes = set()
        for x in enumerate_codebook(params).words:
            for pattern in all_patterns(8):
                calls.clear()
                out = decode(corrupt(x, pattern), params)
                # a failed first pass stepped through all of k = 1..e
                skipped = pattern.e - 1 if out.sync_pass == 2 else 0
                assert calls.count("hypothesis_checksum") == out.sync_pass
                assert calls.count("checksum_step") == skipped + out.insertion_index - 1
                passes.add(out.sync_pass)
        assert passes == {1, 2}


class TestExhaustiveRoundTrip:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_best_class_all_patterns(self, n):
        params = best_params(n)
        for x in enumerate_codebook(params).words:
            for pattern in all_patterns(n):
                out = decode(corrupt(x, pattern), params)
                assert isinstance(out, Recovered), (x, pattern, out)
                assert out.word == x, (x, pattern, out)
                assert is_member(out.word, params)
                # the insertion index must land in the run that lost the bit
                lo, hi = run_bounds(x.bits, pattern.d)
                assert lo <= out.insertion_index <= hi, (x, pattern, out)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_class_all_patterns(self, n):
        for a1 in range(3):
            for a2 in range(n + 1):
                params = CodeParams(n, a1, a2)
                for x in enumerate_codebook(params).words:
                    for pattern in all_patterns(n):
                        out = decode(corrupt(x, pattern), params)
                        assert isinstance(out, Recovered) and out.word == x

    @pytest.mark.parametrize("n", range(3, 9))
    def test_second_pass_exactly_when_deleted_zero_erased_one(self, n):
        params = best_params(n)
        for x in enumerate_codebook(params).words:
            for pattern in all_patterns(n):
                if pattern.e == n:
                    continue
                y = corrupt(x, pattern)
                if discrepancy(y, params) != 1:
                    continue
                out = decode(y, params)
                assert isinstance(out, Recovered)
                truth = (x.bit(pattern.d), x.bit(pattern.e + 1))
                # (1, 0) must synchronize in the first pass; (0, 1) must
                # survive a fruitless first pass and land in the second
                assert out.sync_pass == (1 if truth == (1, 0) else 2), (x, pattern)

    def test_monte_carlo_mid_sizes(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(12, 60)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            a1 = sum(bits) % 3
            a2 = sum(i * b for i, b in enumerate(bits, start=1)) % (n + 1)
            params = CodeParams(n, a1, a2)
            d = rng.randint(1, n)
            e = rng.randint(d, n)
            x = parse_word("".join(map(str, bits)))
            out = decode(corrupt(x, CorruptionPattern(d, e)), params)
            assert isinstance(out, Recovered) and out.word == x


class TestDecodeBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_codeword_round_trips_match_decode(self, data):
        n = data.draw(st.integers(3, 40))
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            d = data.draw(st.integers(1, n))
            e = data.draw(st.integers(d, n))
            rows.append((corrupt(Word(bits), CorruptionPattern(d, e)), *class_of(bits)))
        assert_batch_matches_decode(n, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_received_words_match_decode(self, data):
        # mostly not corrupted codewords: both failure reasons and stray
        # recoveries show up here
        n = data.draw(st.integers(3, 40))
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            symbols = data.draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
            e = data.draw(st.one_of(st.none(), st.integers(1, n - 1)))
            if e is not None:
                symbols[e - 1] = None
            a1, a2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, n))
            rows.append((ReceivedWord(tuple(symbols), e), a1, a2))
        assert_batch_matches_decode(n, rows)

    def test_failures_and_recoveries_in_one_batch(self):
        rows = [
            (parse_received("100", 4), 0, 0),  # invalid discrepancy
            (parse_received("011", 4), 0, 0),  # no synchronization
            (parse_received("?01", 4), 0, 0),  # no synchronization, erasure
            (parse_received("1?1", 4), 2, 0),  # recovered: 1001
        ]
        assert_batch_matches_decode(4, rows)
        _, _, status = decode_batch(pack_rows(np.array([[1, 0, 0], [0, 1, 1]], np.uint8), 4), 4, 4, 0, 0)
        assert [FAILURE_STATUS[int(s)] for s in status] == [INVALID_DISCREPANCY, NO_SYNC]

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_pattern_of_the_best_class(self, n):
        params = best_params(n)
        rows = [
            (corrupt(x, pattern), params.a1, params.a2)
            for x in enumerate_codebook(params).words
            for pattern in all_patterns(n)
        ]
        assert_batch_matches_decode(n, rows)

    @pytest.mark.parametrize("n", [3, 4, 64, 128, 1000])
    def test_count_edges_in_one_batch(self, n):
        rows = count_edge_rows(n)
        assert_batch_matches_decode(n, rows)
        outs = [decode(r, CodeParams(n, a1, a2)) for r, a1, a2 in rows]
        recovered = [out for out in outs if isinstance(out, Recovered)]
        assert any(out.insertion_index == 1 for out in recovered)
        assert {1, 2} == {out.sync_pass for out in recovered}
        assert {NO_SYNC, INVALID_DISCREPANCY} == {
            out.reason for out in outs if isinstance(out, DecodeFailure)
        }

    @pytest.mark.parametrize("n", [64, 65, 128])
    def test_sync_at_every_in_word_index(self, n):
        # the c-th 1 of y ^ deleted at each in-word index 0..63 of the first word and of the
        # last, under either guess: at y's position p, k = p + 2; in the pad, which reads as
        # 1s under deleted = 1, k passes e = n; plus one row with no c-th 1 at all
        rng, width = random.Random(n), -(-n // 64)
        rows, expected = [], []
        for p, deleted in product(sorted({*range(64), *range(64 * width - 64, 64 * width)}), (0, 1)):
            if p < n - 1:
                steps = [int(rng.random() < rng.random()) for _ in range(n - 1)]
                steps[p] = 1
                c = sum(steps[: p + 1])
            elif deleted:
                steps, c = [0] * (n - 1), p - n + 2  # only the pad's 1s up to p
            else:
                continue  # the pad holds no 1 under deleted = 0
            received = ReceivedWord(tuple(b ^ deleted for b in steps))
            a1 = (sum(received.symbols) + deleted) % 3
            f1 = hypothesis_checksum(received, 1, BitHypothesis(deleted, 0), CodeParams(n, a1, 0))
            rows.append((received, a1, (f1 + (c if deleted else -c)) % (n + 1)))
            expected.append(p + 2 if p < n - 1 else None)
        received = ReceivedWord((0,) * (n - 1))
        f1 = hypothesis_checksum(received, 1, BitHypothesis(0, 0), CodeParams(n, 0, 0))
        rows.append((received, 0, (f1 - 1) % (n + 1)))  # c = 1, no 1 in y ^ 0 or its pad
        expected.append(None)
        assert_batch_matches_decode(n, rows)
        got = [getattr(decode(r, CodeParams(n, a1, a2)), "insertion_index", None) for r, a1, a2 in rows]
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 300), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_many_rows_match_decode(self, n, count, seed):
        # a wrong per-row offset into the batch's flat sync positions only
        # shows across many rows: round trips of words with their own class,
        # and arbitrary received words, each row with its own density of 1s
        rng, rows = random.Random(seed), []
        for _ in range(count):
            density = rng.random()
            bits = tuple(int(rng.random() < density) for _ in range(n))
            if rng.random() < 0.5:
                d = rng.randint(1, n)
                pattern = CorruptionPattern(d, rng.randint(d, n))
                rows.append((corrupt(Word(bits), pattern), *class_of(bits)))
            else:
                e = rng.randint(1, n)
                symbols = bits[:-1] if e == n else bits[: e - 1] + (None,) + bits[e:-1]
                received = ReceivedWord(symbols, e if e < n else None)
                rows.append((received, rng.randint(0, 2), rng.randint(0, n)))
        assert_batch_matches_decode(n, rows)

    def test_empty_batch(self):
        # the class (n=3, a1=0, a2=1) has no words, so its batch has no rows
        assert enumerate_codebook(CodeParams(3, 0, 1)).words == ()
        assert_batch_matches_decode(3, [])


def first_guess_row(text: str, n: int, t: int) -> tuple[ReceivedWord, int, int]:
    """A received row with an erasure and discrepancy 1, and the a2 that puts the (1, 0)
    guess's checksum t steps short of its first match: it matches at the t-th 0 of y."""
    received = parse_received(text, n)
    a1 = (sum(s or 0 for s in received.symbols) + 1) % 3
    assert discrepancy(received, CodeParams(n, a1, 0)) == 1
    f1 = hypothesis_checksum(received, 1, BitHypothesis(1, 0), CodeParams(n, a1, 0))
    return received, a1, (f1 + t) % (n + 1)


def sync_points(received: ReceivedWord, params: CodeParams, hyp: BitHypothesis) -> list[int]:
    n, e = params.n, received.effective_erasure
    return [k for k in range(1, e + 1) if hypothesis_checksum(received, k, hyp, params) % (n + 1) == params.a2]


class TestPickedGuess:
    """``decode_batch`` picks each row's guess before its one scan, from a count of 0s."""

    @pytest.mark.parametrize(
        "text, t, expected",
        [
            ("0110?1010", 0, (1, 1)),  # t = 0: (1, 0) matches at once, k = 1
            ("1010110?1", 3, (8, 1)),  # the t-th 0 is y_{e-1}: k = e, the last k it may take
            ("1111?0101", 1, (None, 2)),  # only the erased slot is a 0 before e: (0, 1) instead
            ("0100?1101", 4, (None, 2)),  # one 0 short of t before e
            ("1111?0101", 6, (None, 0)),  # t > e: neither guess matches
        ],
    )
    def test_first_guess_at_its_edges(self, text, t, expected):
        row = first_guess_row(text, 10, t)
        out = decode(row[0], CodeParams(10, *row[1:]))
        if expected[1]:
            assert out.sync_pass == expected[1] and expected[0] in (None, out.insertion_index)
        else:
            assert out == DecodeFailure(NO_SYNC)
        assert_batch_matches_decode(10, [row])

    @pytest.mark.parametrize("n", range(3, 8))
    def test_at_most_one_guess_syncs(self, n):
        # (1, 0) matches iff t <= Z, the 0s of y_1..y_{e-1}, and (0, 1) iff Z < t <= e: never
        # both, so the pick needs no order; checked on every erasure row, class and t
        rows = []
        for bits, e in product(product((0, 1), repeat=n - 1), range(1, n)):
            text = "".join("?" if i == e - 1 else str(b) for i, b in enumerate(bits))
            for t in range(n + 1):
                received, a1, a2 = first_guess_row(text, n, t)
                params = CodeParams(n, a1, a2)
                first, second = (sync_points(received, params, BitHypothesis(*g)) for g in ((1, 0), (0, 1)))
                zeros = (text[: e - 1]).count("0")
                assert (bool(first), bool(second)) == (t <= zeros, zeros < t <= e), (text, t)
                rows.append((received, a1, a2))
        assert_batch_matches_decode(n, rows)

    def test_one_scan_per_batch(self, monkeypatch):
        calls = []
        real = decoder._first_sync
        monkeypatch.setattr(decoder, "_first_sync", lambda *args: calls.append(len(args[1])) or real(*args))
        assert_batch_matches_decode(12, count_edge_rows(12))
        assert calls == [len(count_edge_rows(12))]

    @pytest.mark.parametrize("n", [13, 64, 129])
    def test_one_batch_matches_its_chunks(self, n):
        # arbitrary rows and classes: the rows' results do not depend on the batch around them
        rng = np.random.default_rng(n)
        y = pack_rows(rng.integers(0, 2, (8192, n - 1), dtype=np.uint8), n)
        e = rng.integers(1, n + 1, 8192)
        erased = e < n
        y[erased, (e[erased] - 1) // 64] &= ~(np.uint64(1) << (63 - (e[erased] - 1) % 64).astype(np.uint64))
        a1, a2 = rng.integers(0, 3, 8192), rng.integers(0, n + 1, 8192)
        whole = decode_batch(y, n, e, a1, a2)
        chunks = [decode_batch(y[i : i + 100], n, e[i : i + 100], a1[i : i + 100], a2[i : i + 100])
                  for i in range(0, 8192, 100)]
        for got, parts in zip(whole, zip(*chunks)):
            assert np.array_equal(got, np.concatenate(parts))
        assert set(whole[2].tolist()) == {-1, 0, 1, 2}


class TestPackedRowsAtWordEdges:
    """The batch kernels at word boundaries: rows of 63 to 129 bits, and 1000."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([63, 64, 65, 127, 128, 129, 1000]), st.integers(1, 8), st.data())
    def test_kernels_match_corrupt_and_decode(self, n, count, data):
        # all-0, all-1 and mixed rows: under a deleted-bit guess of 1 the pad reads as 1s
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        density = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(count)]
        bits = np.array([[int(rng.random() < p) for _ in range(n)] for p in density], np.uint8)
        d = np.array([rng.randint(1, n) for _ in range(count)])
        e = np.array([rng.randint(di, n) for di in d])
        y = corrupt_batch(pack_rows(bits, n), n, d, e)
        assert not unpack_rows(y, 64 * y.shape[1])[:, n - 1 :].any()
        received = [corrupt(Word(tuple(b)), CorruptionPattern(int(di), int(ei)))
                    for b, di, ei in zip(bits.tolist(), d, e)]
        assert unpack_rows(y, n - 1).tolist() == [[s or 0 for s in r.symbols] for r in received]
        # round trips in each word's own class, then the same rows in arbitrary classes
        rows = [(r, *class_of(tuple(b))) for r, b in zip(received, bits.tolist())]
        rows += [(r, rng.randint(0, 2), rng.randint(0, n)) for r in received]
        assert_batch_matches_decode(n, rows)


class TestBatchLimits:
    def test_int64_sum_limit(self):
        # an all-ones row weighed 2^62 - 1 and 2^62 sums to 2^63 - 1, the
        # largest int64; one more and row_sums refuses
        ones = pack_rows(np.ones((1, 2), np.uint8), 2)
        assert int(row_sums(ones, 2, 2**62 - 1)[1][0]) == 2**63 - 1
        with pytest.raises(ValueError, match=r"2\^63"):
            row_sums(ones, 2, 2**62)
        # one position weighed 2^63 - 1 is the largest int64 too, and 2^63 itself is
        # refused, before numpy meets a weight past int64
        one = pack_rows(np.ones((1, 1), np.uint8), 1)
        assert int(row_sums(one, 1, 2**63 - 1)[1][0]) == 2**63 - 1
        with pytest.raises(ValueError, match=r"2\^63"):
            row_sums(one, 1, 2**63)


def round_trip_batch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """36 rows at n = 8: pattern p of ``all_patterns`` on member p mod 11 of class (0, 0)."""
    members = enumerate_codebook(CodeParams(8, 0, 0)).rows
    d, e = np.add(np.triu_indices(8), 1)
    return members[np.arange(len(d)) % len(members)], d, e


def row_text(row: np.ndarray) -> str:
    """One packed row of length 8 as '0'/'1' text."""
    return "".join(map(str, unpack_rows(row[None], 8)[0].tolist()))


class TestRoundTrip:
    """``round_trip``: corrupt, decode and compare one batch, and its first failure as text."""

    def test_a_passing_batch_returns_the_kernel(self):
        words, d, e = round_trip_batch()
        bad, first, kernel = round_trip(words, 8, d, e, 0, 0)
        want = decode_batch(corrupt_batch(words, 8, d, e), 8, e, 0, 0)
        assert (bad.tolist(), first) == ([], None)
        assert all(np.array_equal(got, exp) for got, exp in zip(kernel, want, strict=True))

    @pytest.mark.parametrize("code", [0, -1])
    def test_a_status_below_1_fails_a_recovered_word(self, edit_kernel, code):
        # rows 3 and 7 keep their decoded words, but their status fails them: the first is
        # named by the reason its status stands for
        def reject(y, e, words, status):
            status[[3, 7]] = code

        words, d, e = round_trip_batch()
        edit_kernel(reject)
        bad, first, (_, _, status) = round_trip(words, 8, d, e, 0, 0)
        x = row_text(words[3])
        assert (bad.tolist(), first, status[7]) == ([3, 7], (3, x, FAILURE_STATUS[code]), code)

    def test_another_word_fails_a_row_and_is_shown(self, edit_kernel):
        # row 5 "recovers" its word with the first bit flipped, row 9 is rejected later
        def edit(y, e, words, status):
            words[5, 0] ^= np.uint64(1 << 63)
            status[9] = 0

        words, d, e = round_trip_batch()
        edit_kernel(edit)
        bad, first, _ = round_trip(words, 8, d, e, 0, 0)
        x = row_text(words[5])
        assert (bad.tolist(), first) == ([5, 9], (5, x, ("1" if x[0] == "0" else "0") + x[1:]))
