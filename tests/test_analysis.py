"""Redundancy bounds, run statistics, and the bounds table."""

import math
from itertools import product

import pytest

from ordel import analysis
from ordel.analysis import (
    bounds_csv,
    bounds_table,
    redundancy_lower_bound,
    redundancy_upper_bound,
    run_stats,
    run_threshold,
)
from ordel.channel import CorruptionPattern, corrupt
from ordel.core import Word
from ordel.vt_code import COUNT_LIMIT, class_sizes


def runs_by_blocks(bits) -> int:
    """Independent run decomposition: count maximal equal blocks."""
    blocks = 1
    for a, b in zip(bits, bits[1:]):
        if a != b:
            blocks += 1
    return blocks


def deletion_ball_size(bits) -> int:
    """How many words one deletion makes from ``bits``; e = n leaves no erasure."""
    n = len(bits)
    return len({corrupt(Word(tuple(bits)), CorruptionPattern(d, n)) for d in range(1, n + 1)})


class TestBounds:
    def test_upper_bound_values(self):
        assert redundancy_upper_bound(3) == pytest.approx(math.log2(12))
        assert redundancy_upper_bound(3) == pytest.approx(3.5849625007, abs=1e-9)
        assert redundancy_upper_bound(7) == pytest.approx(4.5849625007, abs=1e-9)

    def test_lower_bound_at_100(self):
        # 99 - 2*sqrt(99 * log2 100) = 47.70704..., log2 of that = 5.57613...
        assert redundancy_lower_bound(100) == pytest.approx(5.5761304762, abs=1e-9)

    def test_lower_bound_undefined_for_small_n(self):
        assert redundancy_lower_bound(4) is None
        assert redundancy_lower_bound(3) is None

    def test_gap_converges_to_log2_3(self):
        n = 10**6
        gap = redundancy_upper_bound(n) - redundancy_lower_bound(n)
        assert abs(gap - math.log2(3)) < 0.02

    @pytest.mark.parametrize("n", [10**306, 10**400])
    def test_lower_bound_past_the_float_range(self, n):
        # (n - 1) * log2 n overflows a float from n ~ 1.8e305; the gap still
        # tends to log2 3
        lower = redundancy_lower_bound(n)
        assert lower == pytest.approx(math.log2(n), abs=1e-12)
        assert redundancy_upper_bound(n) - lower == pytest.approx(math.log2(3), abs=1e-9)

    def test_gap_monotone_on_geometric_grid(self):
        ns = [10**k for k in range(3, 10)]
        gaps = [redundancy_upper_bound(n) - redundancy_lower_bound(n) for n in ns]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(g > math.log2(3) for g in gaps)

    @pytest.mark.parametrize("n", [21, 22, 24])
    def test_lower_bound_below_constructive_redundancy(self, n):
        # smallest lengths where the bound is defined at all; the best class
        # is one code correcting these corruptions, so it must sit above it
        lower = redundancy_lower_bound(n)
        assert lower is not None
        sizes = class_sizes(n)
        achieved = n - math.log2(int(sizes.max()))
        assert lower <= achieved <= redundancy_upper_bound(n)


class TestRunCount:
    """A word's single-deletion ball has one word per run: the module's converse bound rests on it."""

    def test_examples(self):
        assert deletion_ball_size((0, 0, 0, 0)) == 1
        assert deletion_ball_size((1, 0, 1, 1, 0)) == 4  # 1|0|11|0

    @pytest.mark.parametrize("n", [3, 8, 15])
    def test_alternating_word(self, n):
        assert deletion_ball_size([i % 2 for i in range(n)]) == n

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_block_decomposition(self, n):
        for bits in product((0, 1), repeat=n):
            assert deletion_ball_size(bits) == runs_by_blocks(bits)


class TestRunThreshold:
    def test_negative_for_small_n(self):
        assert run_threshold(3) < 0

    def test_value_at_100(self):
        assert run_threshold(100) == pytest.approx(13.2304049433, abs=1e-9)

    def test_membership_definition(self):
        n = 8
        threshold = run_threshold(n)
        stats = run_stats(n)
        expected = sum(
            1 for bits in product((0, 1), repeat=n) if runs_by_blocks(bits) >= threshold
        )
        assert stats.high_run_count == expected


class TestRunStats:
    def test_all_words_qualify_when_threshold_negative(self):
        assert run_stats(3).high_run_fraction == 1.0

    def test_n12_against_quadratic_bound(self):
        frac = run_stats(12).high_run_fraction
        assert frac == 1.0
        assert frac >= 1 - 4 / 12**2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_mean_run_count_exact(self, n):
        stats = run_stats(n)
        # exact integer identity: total runs * 2 == (n + 1) * 2^n
        assert stats.total_runs * 2 == (n + 1) * 2**n
        assert stats.mean_runs == (n + 1) / 2

    @pytest.mark.parametrize("n", range(3, 11))
    def test_total_matches_scalar_tally(self, n):
        scalar_total = sum(runs_by_blocks(bits) for bits in product((0, 1), repeat=n))
        assert run_stats(n).total_runs == scalar_total

    def test_at_the_count_limit(self):
        stats = run_stats(COUNT_LIMIT)
        assert stats.words == 2**COUNT_LIMIT
        assert stats.total_runs * 2 == (COUNT_LIMIT + 1) * 2**COUNT_LIMIT
        assert 0 < stats.high_run_count < stats.words

    def test_refuses_past_the_count_limit_before_any_tally(self, monkeypatch):
        def no_tally(*args):
            raise AssertionError("a binomial was counted")

        monkeypatch.setattr(analysis.math, "comb", no_tally)
        with pytest.raises(ValueError, match=f"count limit n <= {COUNT_LIMIT}"):
            run_stats(COUNT_LIMIT + 1)

    @pytest.mark.parametrize("n", [64, 100])
    def test_high_run_count_matches_dp(self, n):
        # the first sizes where the threshold excludes words; the reference
        # counts words by (last bit, run count), one position at a time
        by_runs = {(0, 1): 1, (1, 1): 1}
        for _ in range(n - 1):
            nxt: dict[tuple[int, int], int] = {}
            for (last, runs), count in by_runs.items():
                for bit in (0, 1):
                    key = (bit, runs + (bit != last))
                    nxt[key] = nxt.get(key, 0) + count
            by_runs = nxt
        threshold = run_threshold(n)
        expected = sum(c for (_, runs), c in by_runs.items() if runs >= threshold)
        stats = run_stats(n)
        assert 0 < stats.high_run_count == expected < 2**n
        assert stats.total_runs == sum(runs * c for (_, runs), c in by_runs.items())


class TestBoundsTable:
    def test_small_n_row(self):
        (row,) = bounds_table([3])
        assert row.n == 3
        assert row.upper_bits == pytest.approx(3.5849625007, abs=1e-9)
        assert row.lower_bits is None
        assert row.gap_bits is None

    def test_n100_row(self):
        (row,) = bounds_table([100])
        assert row.upper_bits == pytest.approx(8.2431739835, abs=1e-9)
        assert row.lower_bits == pytest.approx(5.5761304762, abs=1e-9)
        assert row.gap_bits == pytest.approx(2.6670435073, abs=1e-9)

    def test_csv_rendering(self):
        text = bounds_csv(bounds_table([3, 100]))
        assert text.splitlines() == [
            "n,upper_bits,lower_bits,gap_bits",
            "3,3.584963,,",
            "100,8.243174,5.576130,2.667044",
        ]
