"""Value types and text encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordel.core import (
    CodeParams,
    ReceivedWord,
    Word,
    parse_received,
    parse_word,
)


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
