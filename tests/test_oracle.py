"""Brute-force verification machinery and its agreement with the decoder."""

from itertools import product

import pytest

from ordel import oracle
from ordel.channel import CorruptionPattern, all_patterns, corrupt
from ordel.core import CodeParams, Word, parse_received, parse_word
from ordel.decoder import Recovered, decode
from ordel.oracle import (
    brute_force_decode,
    deletion_balls_disjoint,
    verify_code,
    verify_decoder,
)
from ordel.vt_code import Codebook, best_params, enumerate_codebook


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
        words = tuple(Word(bits) for bits in product((0, 1), repeat=3))
        report = verify_code(Codebook(CodeParams(3, 0, 0), words))
        assert not report.passed
        assert report.render().startswith("FAIL x1=")
        parts = dict(
            kv.split("=") for kv in report.render().removeprefix("FAIL ").split()
        )
        assert set(parts) == {"x1", "x2", "d", "e"}
        x1, x2 = parse_word(parts["x1"]), parse_word(parts["x2"])
        pattern = CorruptionPattern(int(parts["d"]), int(parts["e"]))
        assert x1 != x2
        assert corrupt(x1, pattern) == corrupt(x2, pattern)

    def test_singleton_passes(self):
        report = verify_code(enumerate_codebook(CodeParams(3, 0, 0)))
        assert report.passed

    def test_step_cap_refusal(self):
        codebook = enumerate_codebook(best_params(8))
        with pytest.raises(ValueError, match="cap"):
            verify_code(codebook, step_cap=10)


class TestVerifyDecoder:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_best_class_passes(self, n):
        report = verify_decoder(enumerate_codebook(best_params(n)))
        assert report.passed, report.render()

    def test_reports_wrong_recovery(self):
        # a deliberately bad "codebook": two words colliding after deletion
        words = (parse_word("0001"), parse_word("1000"))
        report = verify_decoder(Codebook(CodeParams(4, 0, 0), words))
        assert not report.passed
        assert report.checked == 1
        assert report.render() == "FAIL x1=0001 x2=no-synchronization d=1 e=1"

    def test_checked_counts_rows_across_batches(self, monkeypatch):
        # the kernel rejects the first row of its third batch; the report
        # counts every row before it and shows the scalar decode's word
        real, calls = oracle.decode_batch, []

        def reject_third_batch(y, e, a1, a2):
            words, k, status = real(y, e, a1, a2)
            calls.append(len(y))
            if len(calls) == 3:
                status = status.copy()
                status[0] = 0
            return words, k, status

        monkeypatch.setattr(oracle, "decode_batch", reject_third_batch)
        codebook = enumerate_codebook(best_params(13))
        report = verify_decoder(codebook)
        row = calls[0] + calls[1]
        patterns = all_patterns(13)
        x, pattern = codebook.words[row // len(patterns)], patterns[row % len(patterns)]
        assert report.checked == row + 1
        assert report.render() == (
            f"FAIL x1={x.render()} x2={x.render()} d={pattern.d} e={pattern.e}"
        )


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
        words = (parse_word("0001"), parse_word("1000"))
        report = deletion_balls_disjoint(Codebook(CodeParams(4, 0, 0), words))
        assert not report.passed
        assert report.render().startswith("FAIL x1=0001 x2=1000")


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
