"""Corruption map, pattern enumeration, and the seeded pattern sampler."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordel.channel import (
    CorruptionPattern,
    all_patterns,
    corrupt,
    corrupt_batch,
    corrupt_symbols,
    draw_pattern,
)
from ordel.core import Word, pack_rows, parse_word, unpack_rows

words = st.lists(st.integers(0, 1), min_size=3, max_size=24).map(lambda b: Word(tuple(b)))


def delete_at(bits: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Independent removal helper for the deletion-only comparison."""
    return tuple(b for i, b in enumerate(bits, start=1) if i != d)


class TestCorrupt:
    def test_delete_then_erase(self):
        y = corrupt(parse_word("10110"), CorruptionPattern(2, 3))
        assert y.render() == "11?0"
        assert y.erasure_pos == 3

    def test_pure_deletion(self):
        y = corrupt(parse_word("10110"), CorruptionPattern(1, 5))
        assert y.render() == "0110"
        assert y.erasure_pos is None

    def test_erase_last_position(self):
        y = corrupt(parse_word("101"), CorruptionPattern(2, 2))
        assert y.render() == "1?"
        assert y.erasure_pos == 2

    def test_rejects_invalid_patterns(self):
        with pytest.raises(ValueError):
            CorruptionPattern(3, 2)
        with pytest.raises(ValueError):
            CorruptionPattern(0, 2)
        with pytest.raises(ValueError):
            corrupt(parse_word("101"), CorruptionPattern(2, 4))

    @given(words, st.data())
    def test_output_shape(self, w, data):
        d = data.draw(st.integers(1, w.n))
        e = data.draw(st.integers(d, w.n))
        y = corrupt(w, CorruptionPattern(d, e))
        assert len(y.symbols) == w.n - 1
        assert y.symbols.count(None) == (1 if e <= w.n - 1 else 0)

    @given(words, st.data())
    def test_deletion_only_matches_removal(self, w, data):
        d = data.draw(st.integers(1, w.n))
        y = corrupt(w, CorruptionPattern(d, w.n))
        assert y.symbols == delete_at(w.bits, d)

    @given(words, st.data())
    def test_deleting_within_a_run_is_position_independent(self, w, data):
        d = data.draw(st.integers(1, w.n))
        # walk the maximal run containing d
        lo = d
        while lo > 1 and w.bits[lo - 2] == w.bits[d - 1]:
            lo -= 1
        hi = d
        while hi < w.n and w.bits[hi] == w.bits[d - 1]:
            hi += 1
        e = data.draw(st.integers(hi, w.n))
        outputs = {corrupt(w, CorruptionPattern(dd, e)).render() for dd in range(lo, hi + 1)}
        assert len(outputs) == 1

    @pytest.mark.parametrize("n", range(3, 13))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_symbols_match_corrupt_on_every_pattern(self, n, data):
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        for p in all_patterns(n):
            assert corrupt_symbols(bits, p.d, p.e) == corrupt(Word(bits), p).symbols

    @given(words)
    def test_batch_matches_corrupt_on_every_pattern(self, w):
        patterns = all_patterns(w.n)
        batch = corrupt_batch(
            pack_rows(np.array([w.bits] * len(patterns), np.uint8), w.n),
            w.n,
            np.array([p.d for p in patterns]),
            np.array([p.e for p in patterns]),
        )
        # the batch stores the erased symbol as 0, and leaves the pad bits 0
        expected = [[s or 0 for s in corrupt(w, p).symbols] for p in patterns]
        assert unpack_rows(batch, w.n - 1).tolist() == expected
        assert not unpack_rows(batch, 64)[:, w.n - 1 :].any()


class TestAllPatterns:
    def test_n3_order(self):
        assert [(p.d, p.e) for p in all_patterns(3)] == [
            (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
        ]

    @pytest.mark.parametrize("n,count", [(3, 6), (4, 10), (10, 55)])
    def test_triangular_count(self, n, count):
        pats = all_patterns(n)
        assert len(pats) == count == n * (n + 1) // 2
        assert len(set(pats)) == count
        assert all(1 <= p.d <= p.e <= n for p in pats)


class TestRandomPattern:
    def test_deterministic_per_seed(self):
        assert draw_pattern(random.Random(42), 10) == draw_pattern(random.Random(42), 10)
        seeds = range(200)
        assert [draw_pattern(random.Random(s), 17) for s in seeds] == [
            draw_pattern(random.Random(s), 17) for s in seeds
        ]

    def test_always_valid(self):
        rng = random.Random(7)
        for _ in range(100_000):
            p = draw_pattern(rng, 10)
            assert 1 <= p.d <= p.e <= 10

    def test_uniform_over_valid_patterns(self):
        # a stub rng walks every (d, e) of the n x n square once; if each valid
        # pattern is accepted from exactly one cell, uniform randint draws give
        # every pattern the same probability, and nothing else is drawn
        class SquareWalk:
            def __init__(self, n):
                cells = product(range(1, n + 1), repeat=2)
                self.values = iter([v for cell in cells for v in cell])

            def randint(self, lo, hi):
                assert (lo, hi) == (1, n)
                return next(self.values)

        for n in (3, 4, 10, 57):
            rng = SquareWalk(n)
            drawn = [draw_pattern(rng, n) for _ in range(n * (n + 1) // 2)]
            assert drawn == all_patterns(n)
            assert next(rng.values, None) is None
