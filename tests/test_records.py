"""The record contract: result records are NamedTuples, types that check fields are dataclasses.

A result record keeps its field order, refuses assignment, compares by its fields, and keeps
the ``Name(field=value, ...)`` repr and its ``render`` output.
"""

import dataclasses

import pytest

from ordel.analysis import BoundsRow, RunStats, bounds_table, run_stats
from ordel.channel import CorruptionPattern
from ordel.core import CodeParams, ReceivedWord, Word, parse_received
from ordel.decoder import NO_SYNC, BitHypothesis, DecodeFailure, Recovered, decode
from ordel.montecarlo import TrialReport, run_trials
from ordel.oracle import PreimageSet, VerificationReport, brute_force_decode
from ordel.vt_code import Codebook, enumerate_codebook

FOUR = CodeParams(4, 2, 0)

# each record as the library returns it, its fields in the old dataclass order, and its repr
RECORDS = {
    "Recovered": (
        lambda: decode(parse_received("1?1", 4), FOUR),
        ("word", "insertion_index", "sync_pass"),
        "Recovered(word=Word(bits=(1, 0, 0, 1)), insertion_index=2, sync_pass=1)",
    ),
    "DecodeFailure": (
        lambda: DecodeFailure(NO_SYNC),
        ("reason",),
        "DecodeFailure(reason='no synchronization')",
    ),
    "PreimageSet": (
        lambda: brute_force_decode(parse_received("1?1", 4), enumerate_codebook(FOUR)),
        ("received", "candidates"),
        "PreimageSet(received=ReceivedWord(symbols=(1, None, 1), erasure_pos=2), "
        "candidates=frozenset({(Word(bits=(1, 0, 0, 1)), CorruptionPattern(d=2, e=2))}))",
    ),
    "VerificationReport": (
        lambda: VerificationReport("deletion-balls", 12),
        ("check", "checked", "failure"),
        "VerificationReport(check='deletion-balls', checked=12, failure=None)",
    ),
    "TrialReport": (
        lambda: run_trials(64, 10, 1, 0, 0),
        ("n", "trials", "seed", "mode", "failures", "first_failure"),
        "TrialReport(n=64, trials=10, seed=1, mode='rejection(a1=0,a2=0)', failures=0, "
        "first_failure=None)",
    ),
    "RunStats": (
        lambda: run_stats(5),
        ("n", "words", "total_runs", "mean_runs", "threshold", "high_run_count",
         "high_run_fraction"),
        "RunStats(n=5, words=32, total_runs=96, mean_runs=3.0, threshold=-2.3099216650768604, "
        "high_run_count=32, high_run_fraction=1.0)",
    ),
    "BoundsRow": (
        lambda: bounds_table([100])[0],
        ("n", "upper_bits", "lower_bits", "gap_bits"),
        "BoundsRow(n=100, upper_bits=8.24317398347295, lower_bits=5.576130476168839, "
        "gap_bits=2.667043507304111)",
    ),
}


@pytest.fixture(params=list(RECORDS))
def case(request):
    make, fields, text = RECORDS[request.param]
    return request.param, make(), fields, text


def test_fields_keep_the_old_order(case):
    name, record, fields, _ = case
    assert type(record).__name__ == name
    assert type(record)._fields == fields


def test_assignment_raises_attribute_error(case):
    _, record, fields, _ = case
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_equal_fields_compare_equal(case):
    _, record, fields, _ = case
    twin = type(record)(**{field: getattr(record, field) for field in fields})
    assert twin == record and hash(twin) == hash(record)
    assert twin is not record
    # a record is the tuple of its fields
    assert record == tuple(getattr(record, field) for field in fields)


def test_repr_keeps_the_name_field_form(case):
    _, record, _, text = case
    assert repr(record) == text


def test_only_the_verification_failure_has_a_default():
    assert {t.__name__: t._field_defaults for t in (
        Recovered, DecodeFailure, PreimageSet, VerificationReport, TrialReport, RunStats,
        BoundsRow) if t._field_defaults} == {"VerificationReport": {"failure": None}}


def test_properties_and_render_are_unchanged():
    assert RECORDS["PreimageSet"][0]().words == (Word((1, 0, 0, 1)),)
    passing = VerificationReport("code-capability", 336)
    assert passing.passed and passing.render() == "PASS checked=336"
    failing = VerificationReport("code-capability", 7, "FAIL collision")
    assert not failing.passed and failing.render() == "FAIL collision"
    report = TrialReport(64, 10, 1, "per-word-class", 0, None)
    assert report.passed and report.render() == (
        "n=64 trials=10 seed=1 mode=per-word-class failures=0")
    report = TrialReport(8, 3, 2, "per-word-class", 1, "x=10110110 d=2 e=3 got=no synchronization")
    assert not report.passed and report.render() == (
        "n=8 trials=3 seed=2 mode=per-word-class failures=1\n"
        "first_failure: x=10110110 d=2 e=3 got=no synchronization")


@pytest.mark.parametrize("kind", [Word, ReceivedWord, CodeParams, CorruptionPattern,
                                  BitHypothesis, Codebook])
def test_types_that_check_fields_stay_frozen_dataclasses(kind):
    assert dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen
    assert not issubclass(kind, tuple)
