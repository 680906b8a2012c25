"""Membership, enumeration, parameter selection, and redundancy."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ordel.core import CodeParams, Word, parse_word
from ordel.decoder import row_sums
from ordel.vt_code import (
    Codebook,
    best_params,
    class_sizes,
    enumerate_codebook,
    is_member,
    redundancy,
    render_codebook,
)


def brute_members(n: int, a1: int, a2: int) -> list[str]:
    """Independent oracle: filter all 2^n words with plain sums."""
    out = []
    for bits in product((0, 1), repeat=n):
        if sum(bits) % 3 != a1:
            continue
        if sum(i * b for i, b in enumerate(bits, start=1)) % (n + 1) != a2:
            continue
        out.append("".join(map(str, bits)))
    return out


def traced_peak(call, *args):
    """``call(*args)`` and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIsMember:
    def test_examples(self):
        assert is_member(parse_word("000"), CodeParams(3, 0, 0))
        # bit sum of 111 is 0 mod 3 but the weighted sum is 6 = 2 mod 4
        assert not is_member(parse_word("111"), CodeParams(3, 0, 0))
        # 1001: bit sum 2, weighted sum 5 = 0 mod 5
        assert is_member(parse_word("1001"), CodeParams(4, 2, 0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            is_member(parse_word("000"), CodeParams(4, 0, 0))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_plain_sums(self, n):
        params = CodeParams(n, 1, 2)
        expected = set(brute_members(n, 1, 2))
        for bits in product((0, 1), repeat=n):
            w = Word(bits)
            assert is_member(w, params) == (w.render() in expected)


class TestEnumerate:
    def test_singleton_class(self):
        cb = enumerate_codebook(CodeParams(3, 0, 0))
        assert [w.render() for w in cb.words] == ["000"]

    def test_small_class_matches_oracle(self):
        cb = enumerate_codebook(CodeParams(3, 1, 1))
        assert [w.render() for w in cb.words] == brute_members(3, 1, 1) == ["100"]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_brute_force(self, n):
        for a1, a2 in [(0, 0), (1, n // 2), (2, n)]:
            cb = enumerate_codebook(CodeParams(n, a1, a2))
            assert [w.render() for w in cb.words] == brute_members(n, a1, a2)

    def test_words_sorted_and_members(self):
        cb = enumerate_codebook(CodeParams(8, 0, 0))
        rendered = [w.render() for w in cb.words]
        assert rendered == sorted(rendered)
        assert all(is_member(w, cb.params) for w in cb.words)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_classes_partition_all_words(self, n):
        seen: dict[str, tuple[int, int]] = {}
        total = 0
        for a1 in range(3):
            for a2 in range(n + 1):
                for w in enumerate_codebook(CodeParams(n, a1, a2)).words:
                    text = w.render()
                    assert text not in seen, (text, seen[text], (a1, a2))
                    seen[text] = (a1, a2)
                    total += 1
        assert total == 2**n

    def test_class_sizes_agree_with_enumeration(self):
        n = 9
        sizes = class_sizes(n)
        for a1 in range(3):
            for a2 in range(n + 1):
                assert sizes[a1, a2] == len(enumerate_codebook(CodeParams(n, a1, a2)).words)

    def test_cap_refusal_and_override(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_codebook(CodeParams(6, 0, 0), cap=5)
        assert len(enumerate_codebook(CodeParams(6, 0, 0), cap=6).words) > 0
        with pytest.raises(ValueError, match="cap"):
            class_sizes(29)


class TestEveryClass:
    """Each class, row for row, is the lexicographic cube filtered by plain numpy sums.

    n = 3..16 lists every split into n // 2 prefix positions and the rest,
    odd and even, down to a one-position prefix at n = 3.
    """

    @pytest.mark.parametrize("n", range(3, 17))
    def test_rows_equal_filtered_cube(self, n):
        cube = np.array(list(product((0, 1), repeat=n)), np.uint8)
        bit_sum = cube.sum(axis=1) % 3
        weighted = cube.astype(np.int64) @ np.arange(1, n + 1) % (n + 1)
        for a1 in range(3):
            for a2 in range(n + 1):
                expected = cube[(bit_sum == a1) & (weighted == a2)]
                assert np.array_equal(enumerate_codebook(CodeParams(n, a1, a2)).bits, expected)


def bitwise_class_sizes(n: int) -> list[list[int]]:
    """Independent count: extend every (a1, a2) tally by one bit at a time."""
    table = [[0] * (n + 1) for _ in range(3)]
    table[0][0] = 1
    for i in range(1, n + 1):
        nxt = [row[:] for row in table]
        for a1 in range(3):
            for a2 in range(n + 1):
                nxt[(a1 + 1) % 3][(a2 + i) % (n + 1)] += table[a1][a2]
        table = nxt
    return table


class TestClassSizes:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_bitwise_count(self, n):
        assert class_sizes(n, cap=n).tolist() == bitwise_class_sizes(n)

    def test_exact_beyond_fixed_width(self):
        sizes = class_sizes(200, cap=200).tolist()
        assert all(type(size) is int for row in sizes for size in row)
        assert sum(map(sum, sizes)) == 2**200


class TestCodebookMatrix:
    @pytest.mark.parametrize("shape", [(4,), (2, 5)], ids=["1-d", "width-5"])
    def test_refuses_rows_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="code length 4"):
            Codebook(CodeParams(4, 2, 0), np.zeros(shape, np.uint8))

    @pytest.mark.parametrize(
        "bits",
        [np.array([[0, 1, 1, 0], [1, 0, 0, 1]], np.int64), np.array([[0, 2, 1, 0]], np.uint8)],
        ids=["int64", "uint8-holding-2"],
    )
    def test_refuses_what_is_not_a_uint8_matrix_of_bits(self, bits):
        # an int64 copy of (4, 2, 0) would hash as 8-byte cells, and a 2 would render as "2"
        with pytest.raises(ValueError, match="uint8 matrix of 0/1 bits"):
            Codebook(CodeParams(4, 2, 0), bits)

    @pytest.mark.parametrize("n", [3, 10, 21])
    def test_words_round_trip_bits(self, n):
        cb = enumerate_codebook(best_params(n))
        assert cb.bits.dtype == np.uint8 and cb.bits.shape == (len(cb), n)
        assert np.array_equal(np.array([w.bits for w in cb.words], np.uint8), cb.bits)

    def test_enumeration_peak_memory(self):
        # 60,788 words at n = 22 take 1.3 MB as rows; the peak, about 2.5 MB,
        # is those rows and the int64 bucket entries gathered for them
        codebook, peak = traced_peak(enumerate_codebook, best_params(22))
        assert len(codebook) == 60788
        assert peak < 5 * 2**20

    def test_enumeration_peak_memory_at_the_cap(self):
        # at n = 28 the 3.1M rows take 87 MB; besides them the gather holds
        # int64 bucket entries and one half of the rows, about 1.8x in all
        params = best_params(28)
        codebook, peak = traced_peak(enumerate_codebook, params)
        assert len(codebook) == class_sizes(28)[params.a1, params.a2]
        assert peak <= 2 * codebook.bits.nbytes


class TestEnumerateByPrefix:
    """Odd and even splits above the sizes that ``TestEveryClass`` lists against the cube."""

    @pytest.mark.parametrize("n", [21, 22])
    def test_count_order_and_membership(self, n):
        sizes = class_sizes(n)
        first_bit_high = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        for params in (CodeParams(n, 0, 0), best_params(n), CodeParams(n, 2, n)):
            bits = enumerate_codebook(params).bits
            assert bits.shape == (sizes[params.a1, params.a2], n)
            # rows read as integers, first bit highest: strictly increasing
            # means lexicographic order with no repeats
            assert (np.diff(bits @ first_bit_high) > 0).all()
            bit_sum, weighted = row_sums(bits, 1)
            assert (bit_sum % 3 == params.a1).all() and (weighted % (n + 1) == params.a2).all()


class TestBestParams:
    def test_smallest_n(self):
        params = best_params(3)
        # eight singleton classes at n = 3; lexicographic tie-break picks (0, 0)
        assert (params.a1, params.a2) == (0, 0)
        assert len(enumerate_codebook(params).words) >= math.ceil(8 / 12)

    def test_n8_size(self):
        params = best_params(8)
        size = len(enumerate_codebook(params).words)
        # 2^8 / 27 = 9.48..., so the best class holds at least 10 words;
        # brute force says the maximum is 11, tied at (0,0) and (2,0)
        assert size == 11
        assert (params.a1, params.a2) == (0, 0)

    def test_deterministic(self):
        assert best_params(10) == best_params(10)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_pigeonhole(self, n):
        size = len(enumerate_codebook(best_params(n)).words)
        assert size * 3 * (n + 1) >= 2**n


class TestRedundancy:
    def test_small_sizes(self):
        p = CodeParams(3, 0, 0)
        one = enumerate_codebook(p)
        assert redundancy(one) == 3.0
        two = Codebook(p, np.array([[0, 0, 0], [1, 0, 0]], np.uint8))
        assert redundancy(two) == 2.0

    def test_empty_codebook_rejected(self):
        cb = enumerate_codebook(CodeParams(3, 0, 1))
        assert len(cb.words) == 0
        with pytest.raises(ValueError):
            redundancy(cb)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_upper_bound_holds_constructively(self, n):
        assert redundancy(enumerate_codebook(best_params(n))) <= math.log2(3 * (n + 1))


def test_render_codebook_format():
    text = render_codebook(enumerate_codebook(CodeParams(4, 2, 0)))
    assert text == "n=4 a1=2 a2=0\n0110\n1001"
    # an empty class (n = 3 has some) is its header line alone
    assert render_codebook(Codebook(CodeParams(3, 0, 1), np.zeros((0, 3), np.uint8))) == "n=3 a1=0 a2=1"


def test_render_codebook_peak_memory():
    # the listing is one uint8 buffer decoded once, so at its peak render
    # holds that buffer and the returned str: about twice the listing
    text, peak = traced_peak(render_codebook, enumerate_codebook(best_params(22)))
    assert peak <= 2.2 * len(text)
