"""Seeded round-trip trials."""

import re

import pytest

from ordel import montecarlo
from ordel.montecarlo import run_trials


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


def test_rejects_partial_class_arguments():
    with pytest.raises(ValueError):
        run_trials(10, 10, seed=1, a1=0)


def test_empty_class_detected_instead_of_spinning():
    # (a1=0, a2=1) has no members at n = 3
    with pytest.raises(ValueError, match="empty"):
        run_trials(3, 1, seed=1, a1=0, a2=1)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_trials(2, 10, seed=1)
    with pytest.raises(ValueError):
        run_trials(10, 0, seed=1)


def test_rejected_trial_counted_and_described(monkeypatch):
    # the kernel rejects trial 3; the scalar decode, run again on that trial
    # for the report, recovers the word
    real = montecarlo.decode_batch

    def reject_trial_3(y, e, a1, a2):
        words, k, status = real(y, e, a1, a2)
        status = status.copy()
        status[3] = 0
        return words, k, status

    monkeypatch.setattr(montecarlo, "decode_batch", reject_trial_3)
    report = run_trials(20, 10, seed=4)
    assert report.failures == 1 and not report.passed
    line = re.fullmatch(
        r"x=([01]{20}) d=(\d+) e=(\d+) a1=([012]) a2=(\d+) got=([01]{20})", report.first_failure
    )
    assert line is not None, report.first_failure
    x, d, e, a1, a2, got = line.groups()
    bits = [int(c) for c in x]
    assert got == x
    assert 1 <= int(d) <= int(e) <= 20
    assert int(a1) == sum(bits) % 3
    assert int(a2) == sum(i * b for i, b in enumerate(bits, start=1)) % 21
    assert report.render() == (
        f"n=20 trials=10 seed=4 mode=per-word-class failures=1\nfirst_failure: {report.first_failure}"
    )
