"""Seeded round-trip trials."""

import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ordel import montecarlo
from ordel.core import CodeParams, pack_rows, unpack_rows
from ordel.montecarlo import run_trials
from ordel.vt_code import best_params, class_sizes, enumerate_codebook


def test_reports_zero_failures_for_valid_corruptions():
    report = run_trials(50, 2000, seed=7)
    assert report.failures == 0
    assert report.first_failure is None
    assert report.passed
    assert report.render() == "n=50 trials=2000 seed=7 mode=per-word-class failures=0"


def test_deterministic_for_fixed_seed():
    a = run_trials(40, 500, seed=3)
    b = run_trials(40, 500, seed=3)
    assert a == b


def test_fixed_class_rejection_mode():
    report = run_trials(10, 200, seed=1, a1=0, a2=0)
    assert report.failures == 0
    assert report.mode == "rejection(a1=0,a2=0)"


@pytest.mark.parametrize("a1, a2", [(0, 0), (2, 1000), (1, 437)])
def test_fixed_class_at_n1000(a1, a2):
    report = run_trials(1000, 300, seed=11, a1=a1, a2=a2)
    assert report.render() == f"n=1000 trials=300 seed=11 mode=rejection(a1={a1},a2={a2}) failures=0"


def test_fixed_class_deterministic_for_fixed_seed():
    a = run_trials(64, 700, seed=3, a1=1, a2=7)
    assert a == run_trials(64, 700, seed=3, a1=1, a2=7)
    assert a != run_trials(64, 700, seed=4, a1=1, a2=7)
    assert a.passed


def test_fixed_class_draws_are_members_at_n1000():
    table = montecarlo._completions(1000)
    packed, s1, s2 = montecarlo._draw_codewords(random.Random(2), 1000, 100, 2, 999, table)
    words = unpack_rows(packed, 1000)
    assert (unpack_rows(packed, 64 * 16)[:, 1000:] == 0).all()
    weights = np.arange(1, 1001)
    assert words.shape == (100, 1000) and len({w.tobytes() for w in words}) == 100
    assert (words.sum(axis=1) % 3 == 2).all() and (words @ weights % 1001 == 999).all()
    assert (s1 == 2).all() and (s2 == 999).all()


@pytest.mark.parametrize("n", [21844, 21845])
def test_fixed_class_draws_are_members_at_the_uint16_key_limit(n):
    # subset_buckets sorts its keys as uint16 while 3(n + 1) <= 2^16: through n = 21844,
    # and as int32 from n = 21845 on, where keys reach 3(n + 1) - 1 = 65537
    table = montecarlo._completions(n)
    packed, _, _ = montecarlo._draw_codewords(random.Random(n), n, 50, 1, n // 3, table)
    words = unpack_rows(packed, n)
    assert (words.sum(axis=1) % 3 == 1).all()
    assert (words @ np.arange(1, n + 1) % (n + 1) == n // 3).all()


@pytest.mark.parametrize("n", [12, 16])
def test_sampler_selects_each_member_exactly_once(n):
    # every free prefix with every u below the largest bucket M: the accepted completions
    # are the class, each member once, so uniform (free bits, u) draws give uniform members
    table = montecarlo._completions(n)
    cols, most = np.flatnonzero(unpack_rows(table[0], n).any(axis=0)), table[3]
    assert most == np.diff(table[2]).max()
    free = np.setdiff1d(np.arange(n), cols)
    assert free.size > 0
    prefixes = (np.arange(1 << free.size)[:, None] >> np.arange(free.size)) & 1
    rows = np.repeat(prefixes, most, axis=0)
    bits = np.zeros((rows.shape[0], n), np.uint8)
    bits[:, free] = rows
    words = pack_rows(bits, n)
    u = np.tile(np.arange(most), 1 << free.size)
    for params in (best_params(n), CodeParams(n, 0, 0), CodeParams(n, 2, n)):
        before = words.copy()
        kept = montecarlo._complete(table, words, n, u, params.a1, params.a2)
        got = Counter(map(tuple, unpack_rows(kept, n).tolist()))
        assert np.array_equal(words, before)
        assert got == Counter(w.bits for w in enumerate_codebook(params).words)
        assert set(got.values()) == {1}



def test_completion_table_peaks_near_what_it_holds():
    # the largest bucket M is read off the bucket sizes before they are summed in place into
    # the starts, so no second array of 3(n + 1) int64 sits beside them
    n = 10**6
    tracemalloc.start()
    try:
        table = montecarlo._completions(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(part.nbytes for part in table[:3])
    assert table[3] == np.diff(table[2]).max()
    assert peak - held < 3 * (n + 1) * 8 / 2, (peak, held)

def test_seeded_draws_cover_a_small_class_evenly():
    table = montecarlo._completions(8)
    words, _, _ = montecarlo._draw_codewords(random.Random(8), 8, 60_000, 1, 3, table)
    counts = Counter(map(tuple, unpack_rows(words, 8).tolist()))
    assert set(counts) == {w.bits for w in enumerate_codebook(CodeParams(8, 1, 3)).words}
    assert len(counts) == 9
    mean = 60_000 / 9
    assert all(abs(c - mean) <= 0.05 * mean for c in counts.values()), counts


class WalkingRng:
    """A stand-in for ``random.Random`` whose ``getrandbits`` returns 64-bit words whose
    top k bits walk 0, 1, ..., 2^k - 1 and round again."""

    def __init__(self, k: int):
        self.k, self.next = k, 0

    def getrandbits(self, bits: int) -> int:
        tops = (np.arange(self.next, self.next + bits // 64) % (1 << self.k)).astype(np.uint64)
        self.next += bits // 64
        return int.from_bytes((tops << np.uint64(64 - self.k)).astype("<u8").tobytes(), "little")


@pytest.mark.parametrize("bound", [3, 5, 26, 2080, 1000])
def test_draw_below_gives_every_value_equally_often(bound):
    # the top k bits walk every value below 2^k in turn, so every value below a bound
    # that is not a power of two must come out equally often, in that order
    k = (bound - 1).bit_length()
    values = montecarlo._draw_below(WalkingRng(k), 5 * bound, bound)
    assert values.dtype == np.int64
    assert values.tolist() == list(range(bound)) * 5


@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_pattern_draw_gives_every_pattern_twice(n):
    # the values below n(n+1) walked once: each (d, e), 1 <= d <= e <= n, comes out from
    # exactly two of them and nothing else does, so uniform values give uniform patterns
    count = n * (n + 1)
    d, e = montecarlo._draw_patterns(WalkingRng((count - 1).bit_length()), count, n)
    drawn = Counter(zip(d.tolist(), e.tolist()))
    assert drawn == Counter({(i, j): 2 for i in range(1, n + 1) for j in range(i, n + 1)})


def test_short_first_attempts_are_made_up_by_more(monkeypatch):
    # the first _complete call keeps only 3 members: the loop draws again, exactly
    # count members come back, deterministically, and the first 3 are the same
    table = montecarlo._completions(64)
    full, _, _ = montecarlo._draw_codewords(random.Random(5), 64, 100, 0, 0, table)
    real = montecarlo._complete

    def short_first_attempt():
        calls = []

        def short_first(*args):
            kept = real(*args)
            calls.append(len(kept))
            return kept[:3] if len(calls) == 1 else kept

        monkeypatch.setattr(montecarlo, "_complete", short_first)
        return montecarlo._draw_codewords(random.Random(5), 64, 100, 0, 0, table), calls

    (words, s1, s2), calls = short_first_attempt()
    assert len(calls) == 2 and calls[0] >= 100 and calls[1] >= 97
    assert np.array_equal(words, short_first_attempt()[0][0])
    assert words.shape == (100, 1) and len(set(words[:, 0].tolist())) == 100
    assert np.array_equal(words[:3], full[:3]) and not np.array_equal(words, full)
    bits = unpack_rows(words, 64)
    assert (bits.sum(axis=1) % 3 == 0).all() and (bits @ np.arange(1, 65) % 65 == 0).all()
    assert (s1 == 0).all() and (s2 == 0).all()


def test_one_attempt_and_one_pattern_round_per_batch(monkeypatch):
    # sized draws: at n = 64 a 100-trial fixed-class run draws its words, their u and
    # its pattern indices with one getrandbits call each
    calls = []
    real = montecarlo._draw_words
    monkeypatch.setattr(montecarlo, "_draw_words", lambda rng, *shape: calls.append(shape) or real(rng, *shape))
    assert run_trials(64, 100, 1, 0, 0).passed
    assert len(calls) == 3


def test_refuses_n_past_the_table_limit_before_building_it(monkeypatch):
    def no_table(*args):
        raise AssertionError("the completion table was built")

    monkeypatch.setattr(montecarlo, "subset_buckets", no_table)
    for n in (2**22, 2 * 10**9):  # the first refused n, and one far past it
        with pytest.raises(ValueError, match=r"n < 2\^22, the limit of the fixed-class completion table"):
            run_trials(n, 1, 1, 0, 0)
    with pytest.raises(AssertionError, match="table was built"):
        run_trials(2**22 - 1, 1, 1, 0, 0)  # the largest n it takes goes on to build it


def test_refuses_n_past_one_getrandbits_row_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(montecarlo, "_draw_codewords", no_draw)
    for n in (2**31 - 63, 2**31 - 2):  # both ends of the refused range
        with pytest.raises(ValueError, match=r"n <= 2\^31 - 64, the most bits one getrandbits"):
            run_trials(n, 1, 1)
    with pytest.raises(AssertionError, match="word was drawn"):
        run_trials(2**31 - 64, 1, 1)  # the largest n it takes goes on to draw


def test_per_word_runs_need_no_table(monkeypatch):
    monkeypatch.setattr(montecarlo, "_completions", None)
    assert run_trials(2**22, 2, 1).passed


def test_rejects_partial_class_arguments():
    with pytest.raises(ValueError):
        run_trials(10, 10, seed=1, a1=0)


def test_empty_class_detected_instead_of_spinning():
    # (a1=0, a2=1) has no members at n = 3
    with pytest.raises(ValueError, match="empty"):
        run_trials(3, 1, seed=1, a1=0, a2=1)


EMPTY_CLASSES = [
    (n, a1, a2)
    for n in range(3, 11)
    for a1 in range(3)
    for a2 in range(n + 1)
    if class_sizes(n)[a1, a2] == 0
]


def test_the_empty_classes_are_at_n3():
    assert EMPTY_CLASSES == [(3, 0, 1), (3, 0, 3), (3, 1, 0), (3, 2, 2)]


@pytest.mark.parametrize("n, a1, a2", EMPTY_CLASSES)
def test_every_empty_class_raises(n, a1, a2):
    with pytest.raises(ValueError, match=rf"class \(n={n}, a1={a1}, a2={a2}\) is empty"):
        run_trials(n, 5, seed=1, a1=a1, a2=a2)


def test_no_class_is_empty_from_n4():
    # run_trials checks emptiness below n = 13 only; the argument in its
    # comment covers every larger n, this every n up to 100
    for n in range(4, 101):
        assert min(class_sizes(n).flat) > 0, n


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_trials(2, 10, seed=1)
    with pytest.raises(ValueError):
        run_trials(10, 0, seed=1)


@pytest.mark.parametrize("n", [2**31 - 1, 10**21])
@pytest.mark.parametrize("cls", [(None, None), (0, 0)])
def test_refuses_n_past_the_int32_limit_before_any_work(monkeypatch, n, cls):
    # past n <= 2^31 - 64, getrandbits' C int limit, refused before the completion
    # table and the first draw, which at these lengths would allocate gigabytes
    # or overflow getrandbits
    monkeypatch.setattr(montecarlo, "_completions", None)
    monkeypatch.setattr(montecarlo, "_draw_codewords", None)
    with pytest.raises(ValueError, match=r"n <= 2\^31 - 64, the most bits one getrandbits"):
        run_trials(n, 1, 1, *cls)


def test_rejected_trial_counted_and_described(monkeypatch):
    # the kernel rejects trial 3; the report gives the kernel's failure reason
    real = montecarlo.decode_batch

    def reject_trial_3(y, n, e, a1, a2):
        words, k, status = real(y, n, e, a1, a2)
        status = status.copy()
        status[3] = 0
        return words, k, status

    monkeypatch.setattr(montecarlo, "decode_batch", reject_trial_3)
    report = run_trials(20, 10, seed=4)
    assert report.failures == 1 and not report.passed
    line = re.fullmatch(
        r"x=([01]{20}) d=(\d+) e=(\d+) a1=([012]) a2=(\d+) got=no synchronization", report.first_failure
    )
    assert line is not None, report.first_failure
    x, d, e, a1, a2 = line.groups()
    bits = [int(c) for c in x]
    assert 1 <= int(d) <= int(e) <= 20
    assert int(a1) == sum(bits) % 3
    assert int(a2) == sum(i * b for i, b in enumerate(bits, start=1)) % 21
    assert report.render() == (
        f"n=20 trials=10 seed=4 mode=per-word-class failures=1\nfirst_failure: {report.first_failure}"
    )


def test_rejected_fixed_class_trial_carries_the_class(monkeypatch):
    real = montecarlo.decode_batch

    def reject_trial_2(y, n, e, a1, a2):
        words, k, status = real(y, n, e, a1, a2)
        status = status.copy()
        status[2] = 0
        return words, k, status

    monkeypatch.setattr(montecarlo, "decode_batch", reject_trial_2)
    report = run_trials(40, 6, seed=9, a1=2, a2=17)
    assert report.failures == 1 and not report.passed
    line = re.fullmatch(
        r"x=([01]{40}) d=(\d+) e=(\d+) a1=2 a2=17 got=no synchronization", report.first_failure
    )
    assert line is not None, report.first_failure
    x, d, e = line.groups()
    bits = [int(c) for c in x]
    assert 1 <= int(d) <= int(e) <= 40
    assert sum(bits) % 3 == 2
    assert sum(i * b for i, b in enumerate(bits, start=1)) % 41 == 17
    assert report.render() == (
        f"n=40 trials=6 seed=9 mode=rejection(a1=2,a2=17) failures=1\nfirst_failure: {report.first_failure}"
    )


def test_trials_and_their_report_stay_on_rows(monkeypatch):
    # no scalar corrupt or decode runs, for the trials or for the failure report
    def scalar(*args):
        raise AssertionError("a scalar corrupt or decode ran")

    for name in ("decode", "corrupt"):
        monkeypatch.setattr(montecarlo, name, scalar, raising=False)
    assert run_trials(50, 2000, seed=7).passed
    assert run_trials(40, 500, seed=3, a1=2, a2=17).passed
    real = montecarlo.decode_batch

    def reject_trial_3(y, n, e, a1, a2):
        words, k, status = real(y, n, e, a1, a2)
        status = status.copy()
        status[3] = 0
        return words, k, status

    monkeypatch.setattr(montecarlo, "decode_batch", reject_trial_3)
    report = run_trials(20, 10, seed=4)
    assert report.first_failure == "x=00010111000100001100 d=1 e=14 a1=1 a2=9 got=no synchronization"


def test_report_shows_the_word_the_kernel_returned(monkeypatch):
    # the kernel "recovers" trial 3 with one bit flipped: the report shows that word
    real = montecarlo.decode_batch

    def flip_trial_3(y, n, e, a1, a2):
        words, k, status = real(y, n, e, a1, a2)
        words, status = words.copy(), status.copy()
        words[3, 0] ^= np.uint64(1 << 63)  # the packed word's first position
        status[3] = 1
        return words, k, status

    monkeypatch.setattr(montecarlo, "decode_batch", flip_trial_3)
    report = run_trials(20, 10, seed=4)
    assert report.failures == 1
    assert report.first_failure == "x=00010111000100001100 d=1 e=14 a1=1 a2=9 got=10010111000100001100"
