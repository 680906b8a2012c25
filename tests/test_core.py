"""Value types and text encodings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordel.core import (
    CodeParams,
    ReceivedWord,
    Word,
    pack_rows,
    parse_received,
    parse_word,
    prefix_mask,
    unpack_rows,
)

TOP = 1 << 63
ALL = 2**64 - 1


class TestPackedRows:
    def test_position_i_is_word_i_div_64_bit_63_minus_i_mod_64(self):
        bits = np.zeros((3, 130), np.uint8)
        bits[0, 0] = bits[1, 64] = bits[2, [63, 129]] = 1
        assert pack_rows(bits, 130).tolist() == [[TOP, 0, 0], [0, TOP, 0], [1, 0, TOP >> 1]]

    def test_a_short_row_keeps_the_width_of_its_batch(self):
        # a received row of n - 1 = 64 bits at n = 65 takes the n-bit W = 2 words
        assert pack_rows(np.ones((1, 64), np.uint8), 65).tolist() == [[ALL, 0]]

    @given(st.sampled_from([3, 63, 64, 65, 127, 128, 129, 1000]), st.data())
    def test_round_trip_and_zero_pad(self, n, data):
        rows = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=4))
        bits = np.array([[v >> (n - 1 - i) & 1 for i in range(n)] for v in rows], np.uint8)
        bits = bits.reshape(-1, n)
        words = pack_rows(bits, n)
        assert words.shape == (len(rows), -(-n // 64)) and words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, n), bits)
        assert not unpack_rows(words, 64 * words.shape[1])[:, n:].any()

    def test_prefix_masks_at_word_edges(self):
        assert prefix_mask(np.array([0, 1, 63, 64, 65, 128]), 2).tolist() == [
            [0, 0], [TOP, 0], [ALL - 1, 0], [ALL, 0], [ALL, TOP], [ALL, ALL],
        ]
        assert prefix_mask(200, 2).tolist() == [ALL, ALL]


class TestWord:
    def test_parse_examples(self):
        assert parse_word("10110").bits == (1, 0, 1, 1, 0)
        assert parse_word("000").bits == (0, 0, 0)

    def test_parse_rejects_bad_character(self):
        with pytest.raises(ValueError, match="invalid character"):
            parse_word("10a1")

    def test_parse_rejects_short_words(self):
        with pytest.raises(ValueError):
            parse_word("01")

    def test_construction_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Word((0, 1, 2))
        with pytest.raises(ValueError):
            Word((0, 1))

    def test_one_based_access(self):
        w = parse_word("10110")
        assert w.n == 5
        assert [w.bit(i) for i in range(1, 6)] == [1, 0, 1, 1, 0]
        with pytest.raises(IndexError):
            w.bit(0)
        with pytest.raises(IndexError):
            w.bit(6)

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=48))
    def test_render_parse_round_trip(self, bits):
        w = Word(tuple(bits))
        assert parse_word(w.render()) == w


class TestReceivedWord:
    def test_parse_with_erasure(self):
        y = parse_received("11?0", 5)
        assert y.symbols == (1, 1, None, 0)
        assert y.erasure_pos == 3
        assert y.n == 5
        assert y.effective_erasure == 3

    def test_parse_without_erasure(self):
        y = parse_received("0110", 5)
        assert y.symbols == (0, 1, 1, 0)
        assert y.erasure_pos is None
        assert y.effective_erasure == 5

    def test_parse_rejects_multiple_erasures(self):
        with pytest.raises(ValueError, match="multiple erasures"):
            parse_received("1??0", 5)

    def test_parse_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            parse_received("110", 5)

    def test_parse_rejects_bad_character(self):
        with pytest.raises(ValueError, match="invalid character"):
            parse_received("11x0", 5)

    def test_erasure_position_must_match_marker(self):
        with pytest.raises(ValueError):
            ReceivedWord((1, None, 0), erasure_pos=1)
        with pytest.raises(ValueError):
            ReceivedWord((1, None, 0), erasure_pos=None)
        with pytest.raises(ValueError):
            ReceivedWord((1, 0, 0), erasure_pos=2)

    def test_render_round_trip(self):
        for text in ["11?0", "0110", "?00", "10?"]:
            n = len(text) + 1
            assert parse_received(text, n).render() == text


class TestCodeParams:
    def test_valid_ranges(self):
        p = CodeParams(5, 2, 5)
        assert (p.n, p.a1, p.a2) == (5, 2, 5)

    @pytest.mark.parametrize(
        "n,a1,a2", [(2, 0, 0), (5, 3, 0), (5, -1, 0), (5, 0, 6), (5, 0, -1)]
    )
    def test_rejects_out_of_range(self, n, a1, a2):
        with pytest.raises(ValueError):
            CodeParams(n, a1, a2)
