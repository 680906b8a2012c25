"""Membership, enumeration, parameter selection, and redundancy."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ordel.analysis import redundancy_lower_bound, redundancy_upper_bound
from ordel import vt_code
from ordel.core import CodeParams, Word, pack_rows, parse_word, unpack_rows
from ordel.decoder import row_sums
from ordel.vt_code import (
    COUNT_LIMIT,
    Codebook,
    best_params,
    class_sizes,
    enumerate_codebook,
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


def is_member(word: Word, params: CodeParams) -> bool:
    """The tests' membership check, independent of the decoder: both congruences in one O(n) pass."""
    if word.n != params.n:
        raise ValueError(f"word length {word.n} != code length {params.n}")
    bit_sum = 0
    weighted_sum = 0
    for i, b in enumerate(word.bits, start=1):
        bit_sum += b
        weighted_sum += i * b
    return bit_sum % 3 == params.a1 and weighted_sum % (params.n + 1) == params.a2


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

    def test_cap_refusal(self):
        with pytest.raises(ValueError) as refused:
            enumerate_codebook(CodeParams(29, 0, 0))
        assert str(refused.value) == "exhaustive enumeration of 2^29 words exceeds the cap n <= 28"

    def test_refused_before_any_table(self, monkeypatch):
        # n = 29 is refused before any table work; n = 28 gets as far as the tables
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(vt_code, "subset_buckets", no_table)
        with pytest.raises(ValueError, match="2\\^29 words exceeds the cap n <= 28"):
            enumerate_codebook(CodeParams(29, 0, 0))
        with pytest.raises(AssertionError, match="a table was built"):
            enumerate_codebook(CodeParams(28, 0, 0))


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
                rows = enumerate_codebook(CodeParams(n, a1, a2)).rows
                assert np.array_equal(unpack_rows(rows, n), expected)


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


def _mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """(a + b w)(c + d w) in Z[w], w a primitive cube root of unity: w^2 = -1 - w."""
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c - b * d


def _pow(p: tuple[int, int], k: int) -> tuple[int, int]:
    result = (1, 0)
    while k:
        if k & 1:
            result = _mul(result, p)
        p, k = _mul(p, p), k >> 1
    return result


def _ramanujan_sum(m: int, a: int) -> int:
    """c_m(a) = sum over d | gcd(m, a) of mu(m / d) * d."""

    def mobius(k: int) -> int:
        sign, p = 1, 2
        while k > 1:
            if p * p > k:
                p = k
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    g = math.gcd(m, a)
    return sum(mobius(m // d) * d for d in range(1, g + 1) if g % d == 0)


def character_sum_sizes(n: int) -> list[list[int]]:
    """Class sizes from the character sum over Z_3 x Z_{n+1}, exactly in Z[w].

    With N = n + 1 and x = -w^u, the words' generating product over the
    characters of order m | N is (1 - x^m)^(N/m) / (1 - x), and the sum over
    those characters of the a2 twist is Ramanujan's c_m(a2):

        |C(a1, a2)| = 1/(3N) sum_{m | N} c_m(a2) sum_{u < 3} w^(-u a1)
                      (1 - x^m)^(N/m - 1) sum_{j < m} x^j.

    It generalises Ginzburg's VT class-size formula (Sloane, "On
    single-deletion-correcting codes", 2002) and shares nothing with the DP.
    A size depends on a2 only through gcd(a2, N), so each (a1, gcd) is
    evaluated once.
    """
    big_n = n + 1
    omega = [(1, 0), (0, 1), (-1, -1)]
    divisors = [m for m in range(1, big_n + 1) if big_n % m == 0]
    terms = {}
    for u in range(3):
        x = (-omega[u][0], -omega[u][1])
        for m in divisors:
            geometric, power = (0, 0), (1, 0)
            for _ in range(m):
                geometric = (geometric[0] + power[0], geometric[1] + power[1])
                power = _mul(power, x)
            terms[u, m] = _mul(_pow((1 - power[0], -power[1]), big_n // m - 1), geometric)
    by_gcd: dict[tuple[int, int], int] = {}
    for a1 in range(3):
        for g in divisors:
            total = (0, 0)
            for m in divisors:
                c = _ramanujan_sum(m, g)
                for u in range(3):
                    t = _mul(omega[-u * a1 % 3], terms[u, m])
                    total = (total[0] + c * t[0], total[1] + c * t[1])
            assert total[1] == 0 and total[0] % (3 * big_n) == 0, (n, a1, g, total)
            by_gcd[a1, g] = total[0] // (3 * big_n)
    return [[by_gcd[a1, math.gcd(a2, big_n)] for a2 in range(big_n)] for a1 in range(3)]


class TestClassSizes:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_bitwise_count(self, n):
        assert class_sizes(n).tolist() == bitwise_class_sizes(n)

    def test_exact_beyond_fixed_width(self):
        sizes = class_sizes(200).tolist()
        assert all(type(size) is int for row in sizes for size in row)
        assert sum(map(sum, sizes)) == 2**200

    @pytest.mark.parametrize("n", [*range(3, 65), 255, 256, 1000, COUNT_LIMIT])
    def test_matches_character_sum(self, n):
        assert class_sizes(n).tolist() == character_sum_sizes(n)

    def test_paper_bounds_from_exact_sizes_at_n1000(self):
        # the best class meets the pigeonhole size, so its redundancy is at
        # most log2(3(n+1)), the constructive bound the paper states
        n = 1000
        best = max(class_sizes(n).flat)
        assert best * 3 * (n + 1) >= 2**n
        assert n - math.log2(best) <= redundancy_upper_bound(n)

    def test_best_class_within_log2_3_of_the_lower_bound_at_n1e6(self):
        # n = 10^6 is past COUNT_LIMIT, so the size comes from the character sum alone; its
        # 3(n + 1) entries are 12 values shared by gcd(a2, n + 1), compared once each by id
        n = 10**6
        sizes = {id(size): size for row in character_sum_sizes(n) for size in row}.values()
        gap = n - math.log2(max(sizes)) - redundancy_lower_bound(n)
        assert 0 < gap <= math.log2(3) + 0.02


class TestCountLimit:
    def test_at_the_limit(self):
        sizes = class_sizes(COUNT_LIMIT)
        assert sizes.shape == (3, COUNT_LIMIT + 1)
        assert sum(sizes.flat) == 2**COUNT_LIMIT

    @pytest.mark.parametrize("count", [class_sizes, best_params])
    def test_refuses_past_the_limit_before_any_count(self, monkeypatch, count):
        def no_step(*args, **kwargs):
            raise AssertionError("a count step ran")

        monkeypatch.setattr(np, "roll", no_step)
        with pytest.raises(ValueError, match=f"count limit n <= {COUNT_LIMIT}"):
            count(COUNT_LIMIT + 1)


class TestCodebookMatrix:
    @pytest.mark.parametrize(
        "n, shape",
        [(4, (4,)), (4, (2, 5)), (65, (2, 1))],
        ids=["1-d", "width-5", "n65-one-word"],
    )
    def test_refuses_rows_of_another_shape(self, n, shape):
        with pytest.raises(ValueError, match=f"uint64 rows of the code length {n}, pad bits 0"):
            Codebook(CodeParams(n, 0, 0), np.zeros(shape, np.uint64))

    @pytest.mark.parametrize(
        "rows",
        [np.zeros((2, 1), np.int64), np.array([[0, 1, 1, 0], [1, 0, 0, 1]], np.uint8)],
        ids=["int64", "uint8-matrix"],
    )
    def test_refuses_what_is_not_uint64_rows(self, rows):
        # the uint8 matrix is the one-byte-per-bit form of (4, 2, 0)
        with pytest.raises(ValueError, match="uint64 rows of the code length 4, pad bits 0"):
            Codebook(CodeParams(4, 2, 0), rows)

    def test_refuses_a_set_pad_bit(self):
        # bit 0 of the word is position 64, past the 63 positions of n = 63
        rows = np.array([[0], [1]], np.uint64)
        with pytest.raises(ValueError, match="code length 63, pad bits 0"):
            Codebook(CodeParams(63, 0, 0), rows)
        assert len(Codebook(CodeParams(64, 0, 0), rows)) == 2

    @pytest.mark.parametrize("n", [3, 10, 21])
    def test_words_round_trip_bits(self, n):
        cb = enumerate_codebook(best_params(n))
        assert cb.rows.dtype == np.uint64 and cb.rows.shape == (len(cb), 1)
        assert np.array_equal(pack_rows(np.array([w.bits for w in cb.words], np.uint8), n), cb.rows)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_words_are_the_unpacked_rows_at_word_edges(self, n):
        bits = np.random.default_rng(n).integers(0, 2, (20, n), dtype=np.uint8)
        bits[0], bits[1] = 0, 1
        cb = Codebook(CodeParams(n, 0, 0), pack_rows(bits, n))
        unpacked = list(map(tuple, unpack_rows(cb.rows, n).tolist()))
        assert [w.bits for w in cb.words] == unpacked == list(map(tuple, bits.tolist()))

    @pytest.mark.parametrize("n", range(3, 23))
    def test_listed_rows_ascend_with_pad_bits_0(self, n):
        for params in (CodeParams(n, 0, 0), best_params(n), CodeParams(n, 2, n)):
            words = enumerate_codebook(params).rows[:, 0]
            assert not (words & np.uint64(2 ** (64 - n) - 1)).any()
            assert (words[1:] > words[:-1]).all()

    def test_enumeration_peak_memory(self):
        # 60,788 words at n = 22 take 0.46 MiB as rows; the peak, about 1.5 MiB,
        # is those rows, the int64 bucket entries and the prefixes spread over them
        codebook, peak = traced_peak(enumerate_codebook, best_params(22))
        assert len(codebook) == 60788
        assert peak < 5 * 2**20

    def test_enumeration_peak_memory_at_the_cap(self):
        # at n = 28 the 3.1M rows take 23.5 MiB; the gather holds at most three
        # arrays of one 8-byte entry per row at a time, about 71 MiB in all
        params = best_params(28)
        codebook, peak = traced_peak(enumerate_codebook, params)
        assert len(codebook) == class_sizes(28)[params.a1, params.a2]
        assert peak <= 100 * 2**20


class TestEnumerateByPrefix:
    """Odd and even splits above the sizes that ``TestEveryClass`` lists against the cube."""

    @pytest.mark.parametrize("n", [21, 22])
    def test_count_order_and_membership(self, n):
        sizes = class_sizes(n)
        first_bit_high = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        for params in (CodeParams(n, 0, 0), best_params(n), CodeParams(n, 2, n)):
            rows = enumerate_codebook(params).rows
            bits = unpack_rows(rows, n)
            assert bits.shape == (sizes[params.a1, params.a2], n)
            # rows read as integers, first bit highest: strictly increasing
            # means lexicographic order with no repeats
            assert (np.diff(bits @ first_bit_high) > 0).all()
            bit_sum, weighted = row_sums(rows, n, 1)
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
        two = Codebook(p, pack_rows(np.array([[0, 0, 0], [1, 0, 0]], np.uint8), 3))
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
    assert render_codebook(Codebook(CodeParams(3, 0, 1), np.zeros((0, 1), np.uint64))) == "n=3 a1=0 a2=1"


def test_render_codebook_peak_memory():
    # the listing is one uint8 buffer decoded once, so at its peak render
    # holds that buffer and the returned str: about twice the listing
    text, peak = traced_peak(render_codebook, enumerate_codebook(best_params(22)))
    assert peak <= 2.2 * len(text)
