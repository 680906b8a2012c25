"""Command-line surface: flag grammar, formats, exit codes, determinism."""

import gc
import hashlib
import io
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ordel
from ordel import oracle, vt_code
from ordel.cli import run
from ordel.oracle import VerificationReport
from ordel.vt_code import COUNT_LIMIT, class_sizes


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def reject_row_3(y, e, words, status):
    """An ``edit_kernel`` edit: the kernel fails row 3 of each call."""
    status[3] = 0


class TestCorrupt:
    def test_delete_and_erase(self, capsys):
        status, out, err = invoke(capsys, "corrupt", "--word", "10110", "--d", "2", "--e", "3")
        assert (status, out, err) == (0, "11?0\n", "")

    def test_pure_deletion(self, capsys):
        status, out, _ = invoke(capsys, "corrupt", "--word", "10110", "--d", "1", "--e", "5")
        assert (status, out) == (0, "0110\n")

    def test_invalid_pattern(self, capsys):
        status, _, err = invoke(capsys, "corrupt", "--word", "10110", "--d", "4", "--e", "2")
        assert status == 1
        assert err.startswith("error:")

    def test_invalid_word(self, capsys):
        status, _, err = invoke(capsys, "corrupt", "--word", "10a10", "--d", "1", "--e", "2")
        assert status == 1
        assert "invalid character" in err


class TestDecode:
    def test_with_erasure(self, capsys):
        # the erasure position is the '?' in the received word
        status, out, _ = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0"
        )
        assert (status, out) == (0, "1001\n")

    def test_no_erasure_flag(self, capsys):
        # no '?' in the received word: a deletion alone
        status, out, _ = invoke(
            capsys, "decode", "--received", "0110", "--n", "5",
            "--a1", "0", "--a2", "2",
        )
        assert (status, out) == (0, "10110\n")

    def test_decode_failure_is_status_2(self, capsys):
        # no-erasure discrepancy 2 is impossible under a single deletion
        status, out, err = invoke(
            capsys, "decode", "--received", "100", "--n", "4",
            "--a1", "0", "--a2", "0",
        )
        assert status == 2
        assert out == ""
        assert "invalid discrepancy" in err

    def test_unknown_flag_rejected(self, capsys):
        status, _, _ = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4",
            "--a1", "2", "--a2", "0", "--bogus", "1",
        )
        assert status == 1

    def test_out_of_range_params_rejected(self, capsys):
        status, _, err = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4", "--a1", "5", "--a2", "0"
        )
        assert status == 1
        assert "a1" in err


class TestCodebook:
    def test_explicit_params(self, capsys):
        status, out, _ = invoke(capsys, "codebook", "--n", "4", "--a1", "2", "--a2", "0")
        assert status == 0
        assert out == "n=4 a1=2 a2=0\n0110\n1001\n"

    def test_best_class(self, capsys):
        status, out, _ = invoke(capsys, "codebook", "--n", "3", "--best")
        assert status == 0
        assert out == "n=3 a1=0 a2=0\n000\n"

    @pytest.mark.parametrize("n, rows", [(18, 4600), (19, 8747)])
    def test_listing_written_in_pieces(self, capsys, n, rows):
        # the header, then 4096 rows a piece, the last piece short: 2 and 3 pieces of rows
        codebook = vt_code.enumerate_codebook(vt_code.best_params(n))
        pieces = len(list(vt_code.render_codebook_pieces(codebook)))
        assert (len(codebook), pieces) == (rows, 2 + rows // 4096)
        status, out, err = invoke(capsys, "codebook", "--n", str(n), "--best")
        assert (status, out, err) == (0, vt_code.render_codebook(codebook) + "\n", "")

    def test_best_excludes_explicit(self, capsys):
        status, _, _ = invoke(capsys, "codebook", "--n", "3", "--best", "--a1", "0", "--a2", "0")
        assert status == 1

    def test_requires_both_residues(self, capsys):
        status, _, err = invoke(capsys, "codebook", "--n", "3", "--a1", "0")
        assert status == 1
        assert "--best" in err

    def test_cap_refusal(self, capsys):
        status, _, err = invoke(capsys, "codebook", "--n", "40", "--best")
        assert status == 1
        assert "cap" in err

    def test_best_checks_the_cap_before_counting(self, capsys, monkeypatch):
        # the refusal comes from the cap alone: the exact count never runs
        def no_count(n):
            raise AssertionError("class_sizes ran")

        monkeypatch.setattr(vt_code, "class_sizes", no_count)
        status, out, err = invoke(capsys, "codebook", "--best", "--n", "1024")
        assert (status, out) == (1, "")
        assert err == "error: exhaustive enumeration of 2^1024 words exceeds the cap n <= 28\n"


class TestVerify:
    def test_best_class(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--n", "6")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("PASS" in line for line in lines)

    def test_counts_class_sizes_once(self, capsys, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return class_sizes(n)

        monkeypatch.setattr(vt_code, "class_sizes", counted)
        status, out, _ = invoke(capsys, "verify", "--n", "8")
        assert (status, calls) == (0, [8])
        assert out.startswith("n=8 a1=0 a2=0 code-capability: PASS")

    def test_a_failing_sweep_exits_1(self, capsys, monkeypatch):
        # the decoder check, stubbed to fail: its FAIL line prints between the two passing
        # checks, and verify then ends with one error line and exit status 1
        failure = "FAIL x1=000000 x2=no-synchronization d=1 e=1"
        monkeypatch.setattr(oracle, "verify_decoder",
                            lambda codebook: VerificationReport("decoder-round-trip", 1, failure))
        status, out, err = invoke(capsys, "verify", "--n", "6")
        assert (status, err) == (1, "error: verification failed\n")
        assert [line.split(": ", 1)[1][:4] for line in out.splitlines()] == ["PASS", "FAIL", "PASS"]

    def test_all_params(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--n", "4", "--all-params")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 * 3 * 5
        assert all("PASS" in line for line in lines)

    def test_all_params_refused_before_listing_classes(self, capsys):
        status, out, err = invoke(capsys, "verify", "--n", str(10**12), "--all-params")
        assert (status, out) == (1, "")
        assert "count limit" in err

    def test_passes_at_n17(self, capsys):
        # the sweeps handle |C| * n(n+1)/2, |C| * n(n+1)/2 and |C| * n rows
        size = class_sizes(17).max()
        status, out, _ = invoke(capsys, "verify", "--n", "17")
        assert status == 0
        assert out.splitlines() == [
            f"n=17 a1=0 a2=9 {check}: PASS checked={checked}"
            for check, checked in (
                ("code-capability", size * 153),
                ("decoder-round-trip", size * 153),
                ("deletion-balls", size * 17),
            )
        ]

    @pytest.mark.parametrize("n", [21, 22])
    def test_passes_past_the_old_row_cap(self, capsys, n):
        # the best classes at n = 21 and 22 need 7,342,797 and 15,379,364 rows, past 2^22
        sizes = class_sizes(n)
        params = vt_code.best_of(sizes)
        size = sizes[params.a1, params.a2]
        status, out, _ = invoke(capsys, "verify", "--n", str(n))
        assert status == 0
        assert out.splitlines() == [
            f"n={n} a1={params.a1} a2={params.a2} {check}: PASS checked={checked}"
            for check, checked in (
                ("code-capability", size * n * (n + 1) // 2),
                ("decoder-round-trip", size * n * (n + 1) // 2),
                ("deletion-balls", size * n),
            )
        ]

    def test_row_cap_from_n25(self, capsys):
        # enumeration allows n <= 28, but n = 25's best class needs more rows than the cap
        status, out, err = invoke(capsys, "verify", "--n", "25")
        assert (status, out) == (1, "")
        assert "row cap" in err

    @pytest.mark.parametrize("argv", [["--n", "25"], ["--n", "28"], ["--n", "25", "--all-params"]])
    def test_pairwise_cap_before_listing(self, capsys, monkeypatch, argv):
        # the refusal needs only the class size from class_sizes, so no class is listed
        def no_listing(*args):
            raise AssertionError("enumerate_codebook called")

        monkeypatch.setattr(vt_code, "enumerate_codebook", no_listing)
        status, out, err = invoke(capsys, "verify", *argv)
        assert (status, out) == (1, "")
        assert "row cap" in err

    @pytest.mark.parametrize("n", [29, COUNT_LIMIT])
    def test_row_cap_from_n29_to_the_count_limit(self, capsys, monkeypatch, n):
        # past the enumeration cap the exact class size still exists, so the
        # refusal is the row cap's, and no class is listed
        monkeypatch.setattr(vt_code, "enumerate_codebook", None)
        status, out, err = invoke(capsys, "verify", "--n", str(n))
        assert (status, out) == (1, "")
        assert err.startswith("error: the sweeps need ") and "row cap 134217728" in err

    def test_row_cap_refusal_is_short_at_the_count_limit(self, capsys):
        # the row count at n = 1024 has over 300 digits; the refusal gives it, and |C|, in bits
        status, out, err = invoke(capsys, "verify", "--n", str(COUNT_LIMIT))
        assert (status, out) == (1, "")
        assert err == (
            "error: the sweeps need 2^1031.4 corrupted rows (n = 1024, |C| = 2^1012.4), "
            "above the row cap 134217728\n"
        )
        assert len(err) < 160

    def test_refuses_past_the_count_limit(self, capsys):
        status, out, err = invoke(capsys, "verify", "--n", str(COUNT_LIMIT + 1))
        assert (status, out) == (1, "")
        assert err == (
            f"error: exact counts at n = {COUNT_LIMIT + 1} exceed the count limit n <= {COUNT_LIMIT}\n"
        )


class TestBounds:
    def test_n_list_row(self, capsys):
        status, out, _ = invoke(capsys, "bounds", "--n-list", "100")
        assert status == 0
        assert out == "n,upper_bits,lower_bits,gap_bits\n100,8.243174,5.576130,2.667044\n"

    def test_undefined_fields_empty(self, capsys):
        status, out, _ = invoke(capsys, "bounds", "--n-list", "3,7")
        assert status == 0
        assert out.splitlines()[1] == "3,3.584963,,"

    def test_geometric_grid(self, capsys):
        status, out, _ = invoke(capsys, "bounds", "--n-grid", "1000:1000000:10")
        assert status == 0
        ns = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ns == ["1000", "10000", "100000", "1000000"]

    def test_rows_past_the_float_range(self, capsys):
        status, out, _ = invoke(capsys, "bounds", "--n-list", f"{10**306},{10**400}")
        assert status == 0
        assert out.splitlines()[1:] == [
            f"{10**306},1018.094960,1016.509997,1.584963",
            f"{10**400},1330.356200,1328.771238,1.584963",
        ]

    def test_exactly_one_selector(self, capsys):
        assert invoke(capsys, "bounds")[0] == 1
        assert invoke(capsys, "bounds", "--n-list", "5", "--n-grid", "3:9:2")[0] == 1

    def test_length_below_3_refused(self, capsys):
        # by analysis.redundancy_upper_bound, before any row is printed
        status, out, err = invoke(capsys, "bounds", "--n-list", "5,2")
        assert (status, out, err) == (1, "", "error: n must be >= 3, got 2\n")

    def test_bad_grid(self, capsys):
        assert invoke(capsys, "bounds", "--n-grid", "10:5:2")[0] == 1
        assert invoke(capsys, "bounds", "--n-grid", "10:100:1")[0] == 1
        assert invoke(capsys, "bounds", "--n-grid", "abc")[0] == 1


class TestSimulate:
    def test_report_line(self, capsys):
        status, out, _ = invoke(
            capsys, "simulate", "--n", "30", "--trials", "500", "--seed", "9"
        )
        assert status == 0
        assert out == "n=30 trials=500 seed=9 mode=per-word-class failures=0\n"

    def test_byte_identical_for_same_argv(self, capsys):
        first = invoke(capsys, "simulate", "--n", "25", "--trials", "400", "--seed", "5")
        second = invoke(capsys, "simulate", "--n", "25", "--trials", "400", "--seed", "5")
        assert first == second

    def test_fixed_class_mode(self, capsys):
        status, out, _ = invoke(
            capsys, "simulate", "--n", "8", "--trials", "50", "--seed", "2",
            "--a1", "0", "--a2", "0",
        )
        assert status == 0
        assert "mode=rejection(a1=0,a2=0)" in out

    @pytest.mark.parametrize(
        "n, a1, a2",
        [(n, a1, a2) for n in range(3, 11) for a1 in range(3) for a2 in range(n + 1)
         if class_sizes(n)[a1, a2] == 0],
    )
    def test_empty_class_is_a_usage_error(self, capsys, n, a1, a2):
        status, out, err = invoke(
            capsys, "simulate", "--n", str(n), "--trials", "5", "--seed", "1",
            "--a1", str(a1), "--a2", str(a2),
        )
        assert (status, out) == (1, "")
        assert err == (
            f"error: class (n={n}, a1={a1}, a2={a2}) is empty: no word has both residues\n"
        )

    @pytest.mark.parametrize("n", [2**31 - 1, 10**21])
    @pytest.mark.parametrize("cls", [[], ["--a1", "0", "--a2", "0"]])
    def test_n_past_the_int32_limit_is_a_usage_error(self, capsys, n, cls):
        # past n <= 2^31 - 64, getrandbits' C int limit, in both modes
        status, out, err = invoke(capsys, "simulate", "--n", str(n), "--trials", "1", "--seed", "1", *cls)
        assert (status, out) == (1, "")
        assert err == f"error: n = {n} is past n <= 2^31 - 64, the most bits one getrandbits call draws\n"

    @pytest.mark.parametrize("n", [2**31 - 63, 2**31 - 2])
    def test_n_past_one_getrandbits_row_is_a_usage_error(self, capsys, n):
        # both ends of the refused range: a row of 2^25 words is past getrandbits' C int
        status, out, err = invoke(capsys, "simulate", "--n", str(n), "--trials", "1", "--seed", "1")
        assert (status, out) == (1, "")
        assert err == f"error: n = {n} is past n <= 2^31 - 64, the most bits one getrandbits call draws\n"

    def test_fixed_class_past_the_table_limit_is_a_usage_error(self, capsys):
        # the first refused n, and the n whose table once ended in a MemoryError traceback
        for n in (2**22, 2 * 10**9):
            status, out, err = invoke(
                capsys, "simulate", "--n", str(n), "--trials", "1", "--seed", "1", "--a1", "0", "--a2", "0"
            )
            assert (status, out) == (1, "")
            assert err == f"error: n = {n} is past n < 2^22, the limit of the fixed-class completion table\n"

    def test_a_failing_trial_exits_2(self, capsys, edit_kernel):
        # the kernel rejects trial 3: the report names it, and simulate ends with exit status 2
        edit_kernel(reject_row_3)
        status, out, err = invoke(capsys, "simulate", "--n", "20", "--trials", "10", "--seed", "4")
        assert (status, err) == (2, "error: 1 round-trip failures\n")
        assert out == (
            "n=20 trials=10 seed=4 mode=per-word-class failures=1\n"
            "first_failure: x=00010111000100001100 d=1 e=14 a1=1 a2=9 got=no synchronization\n"
        )

    def test_partial_class_rejected(self, capsys):
        for residue in (["--a1", "0"], ["--a2", "0"]):
            status, out, err = invoke(
                capsys, "simulate", "--n", "8", "--trials", "5", "--seed", "2", *residue
            )
            assert (status, out, err) == (1, "", "error: a1 and a2 must be given together\n")


class TestRuns:
    def test_report_line(self, capsys):
        status, out, _ = invoke(capsys, "runs", "--n", "8")
        assert status == 0
        assert out == (
            "n=8 words=256 mean_runs=4.500000 threshold=-2.980741 "
            "high_run_count=256 high_run_fraction=1.000000 "
            "lemma_bound=0.937500 lemma_holds=yes\n"
        )

    def test_cap_refusal(self, capsys):
        # runs counts and lists nothing, so it takes no --cap
        status, out, err = invoke(capsys, "runs", "--n", "8", "--cap", "28")
        assert (status, out) == (1, "")
        assert err == "error: unrecognized arguments: --cap 28\n"

    def test_report_past_28(self, capsys):
        status, out, _ = invoke(capsys, "runs", "--n", "29")
        assert status == 0
        assert out == (
            "n=29 words=536870912 mean_runs=15.000000 threshold=-2.493845 "
            "high_run_count=536870912 high_run_fraction=1.000000 "
            "lemma_bound=0.995244 lemma_holds=yes\n"
        )

    def test_count_limit(self, capsys):
        status, out, _ = invoke(capsys, "runs", "--n", str(COUNT_LIMIT))
        assert status == 0 and out.startswith(f"n={COUNT_LIMIT} words={2**COUNT_LIMIT} ")
        status, out, err = invoke(capsys, "runs", "--n", str(COUNT_LIMIT + 1))
        assert (status, out) == (1, "")
        assert "count limit" in err


COMMANDS = ["codebook", "corrupt", "decode", "verify", "bounds", "simulate", "runs"]
SIMULATE = ["simulate", "--n", "9", "--trials", "5", "--seed", "1"]
N_BELOW_3 = "n must be >= 3, got 2"


class TestGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            [*SIMULATE, "--bogus"],
            ["simulate", "--tri", "5", "--n", "9", "--seed", "1"],
            ["simulate", "--n", "9", "--seed", "1"],
            ["simulate", "--n", "x", "--trials", "5", "--seed", "1"],
            [*SIMULATE, "-h"],
            ["-h"],
            ["frobnicate"],
            [],
        ],
        ids=["unknown", "abbreviated", "missing", "non-integer", "short-help", "top-short-help",
             "unknown-command", "no-arguments"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        status, out, err = invoke(capsys, *argv)
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["corrupt", "--word", "01", "--d", "1", "--e", "1"], N_BELOW_3),
            (["decode", "--received", "1??0", "--n", "5", "--a1", "0", "--a2", "0"],
             "a received word has at most one erasure, at erasure_pos: got erasures=2, erasure_pos=2"),
            (["decode", "--received", "0", "--n", "2", "--a1", "0", "--a2", "0"], N_BELOW_3),
            (["decode", "--received", "11x0", "--n", "5", "--a1", "0", "--a2", "0"],
             "invalid character 'x' in received word '11x0'"),
            (["bounds", "--n-list", "3,x"], "bad --n-list: invalid literal for int() with base 10: 'x'"),
            (["bounds", "--n-grid", "2:10:2"], N_BELOW_3),
            (["bounds", "--n-grid", "0:10:2"], "--n-grid needs start >= 1, stop >= start, factor >= 2"),
            (["runs", "--n", "2"], N_BELOW_3),
            (["simulate", "--n", "2", "--trials", "1", "--seed", "1"], N_BELOW_3),
            (["verify", "--n", "2"], N_BELOW_3),
        ],
        ids=["corrupt-short", "decode-two-erasures", "decode-short", "decode-bad-character",
             "bounds-bad-list", "bounds-grid-short", "bounds-grid-zero", "runs-short", "simulate-short",
             "verify-short"],
    )
    def test_refusal_is_one_exact_line(self, capsys, argv, message):
        # a length below 3 gets core.check_length's one message from every command, a grid
        # start below 1 (an endless grid) the grid's own
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (["codebook", "--n", "6", "--a1", "0", "--a2", "0", "--cap", "30"], "--cap 30"),
            (["decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0", "--e", "2"],
             "--e 2"),
            (["decode", "--received", "0110", "--n", "5", "--a1", "0", "--a2", "2", "--no-erasure"],
             "--no-erasure"),
        ],
        ids=["codebook-cap", "decode-e", "decode-no-erasure"],
    )
    def test_removed_option_is_unrecognized(self, capsys, argv, removed):
        # the cap is fixed, and the received word's '?' alone places the erasure
        status, out, err = invoke(capsys, *argv)
        assert (status, out, err) == (1, "", f"error: unrecognized arguments: {removed}\n")

    @pytest.mark.parametrize(
        "argv, seed",
        [(["--n=9", "--trials=5", "--seed=1"], 1), (["--n", "9", "--trials", "5", "--seed", "-3"], -3)],
        ids=["equals", "negative-value"],
    )
    def test_accepted_forms(self, capsys, argv, seed):
        status, out, err = invoke(capsys, "simulate", *argv)
        assert (status, out, err) == (0, f"n=9 trials=5 seed={seed} mode=per-word-class failures=0\n", "")

    @pytest.mark.parametrize("command", [[], *([name] for name in COMMANDS)], ids=["top", *COMMANDS])
    def test_help_returns_0(self, capsys, command):
        # run() returns: no SystemExit leaves it, though argparse's help action exits
        status, out, err = invoke(capsys, *command, "--help")
        assert (status, err) == (0, "")
        assert out.startswith(" ".join(["usage: ordel", *command, "[--help]"]))
        if not command:
            assert all(name in out for name in COMMANDS)


class TestExhaustiveOutputPinned:
    """Stdout of the exhaustive commands at n = 12, pinned by SHA-256, so any
    change in a class size, a listed word or a run tally shows here."""

    @pytest.mark.parametrize(
        "argv, size, digest",
        [
            (("codebook", "--best"), 1393,
             "2b5ffb32c01e7ae3425e677c726e9263dc39c5fe9906ee990b0a0448b4406f2d"),
            (("runs",), 139,
             "7faf98d6a6d6bdcc41a9b2cf2be37f2bd1f3c99241003b577277176d33d225b6"),
            (("verify",), 152,
             "7e0f97c3a8cafadc80eae67540930eb69d8fa609e3f45a52ba9dcddb2d47a4db"),
        ],
        ids=["codebook", "runs", "verify"],
    )
    def test_n12(self, capsys, argv, size, digest):
        status, out, err = invoke(capsys, argv[0], "--n", "12", *argv[1:])
        assert (status, err) == (0, "")
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)

    @pytest.mark.parametrize(
        "n, size, digest",
        [
            (20, 349686, "943c426a61f2018939cf80f046657143116731b4e44cce8e3ca3d0b04729c68f"),
            # n = 22 lists its class over four prefixes of the first two positions
            (22, 1398139, "65b52049938c2b411f7f5ff2755740bcae71a150d9ca86d3b4c18f59483c0011"),
        ],
        ids=["n20", "n22"],
    )
    def test_best_codebook(self, capsys, n, size, digest):
        status, out, err = invoke(capsys, "codebook", "--n", str(n), "--best")
        assert (status, err) == (0, "")
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)

    def test_codebook_head_and_tail(self, capsys):
        lines = invoke(capsys, "codebook", "--n", "12", "--best")[1].splitlines()
        assert lines[:3] == ["n=12 a1=0 a2=0", "000000000000", "000000101100"]
        assert lines[-1] == "111111111111"

    @pytest.mark.parametrize(
        "argv, rejects, status, digest, err",
        [
            (("simulate", "--n", "1000", "--trials", "100000", "--seed", "1"), False, 0,
             "c519493d976fa6bc07d97008ed420fd154d78d68553b4ae13930a51e238585bf", ""),
            (("simulate", "--n", "64", "--trials", "20000", "--seed", "1", "--a1", "0", "--a2", "0"),
             False, 0, "ad4baf36b30b88c81b8c691106dc1358646a62a643662db86b26cf970a78dc90", ""),
            (("simulate", "--n", "20", "--trials", "10", "--seed", "4"), True, 2,
             "5a1176ed49964857aa4249897cb295355ba260d1dbe7e1aae0eb91bf2704eb5e",
             "error: 1 round-trip failures\n"),
            (("simulate", "--n", "40", "--trials", "6", "--seed", "9", "--a1", "2", "--a2", "17"),
             True, 2, "197b65d93f773a71e3b50204a38ef80673821883001d56054b79ad2d8d7ef865",
             "error: 1 round-trip failures\n"),
            (("verify", "--n", "8", "--all-params"), False, 0,
             "26ede88044d23fd0cedc34501a16d67bf869e8b097a4f5bb2a7b7710bd543cb5", ""),
            (("verify", "--n", "13"), False, 0,
             "e910e79d3e2627284ad235fce5e472aba2920413b672912b3d3556b47e1c73cf", ""),
            (("verify", "--n", "8"), True, 1,
             "a1fce0b5fca20173e2121331a47cad0b7f638a7da02e4adea43edb6391118861",
             "error: verification failed\n"),
            (("corrupt", "--word", "10110", "--d", "2", "--e", "3"), False, 0,
             "b2b94707c8f2761bef4bb2ab4569cf26383165f25c7e5e6e92664be37af756e2", ""),
            (("corrupt", "--word", "10110", "--d", "2", "--e", "5"), False, 0,
             "81d05477a3dfd252c71b0b4b76c2d4613cdd14ee0f2fafead5be1a2f8544efe0", ""),
            (("decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0"), False, 0,
             "d6a1a767319c3bf2a337b16e3a14916f63e432872e0f8df1cb73b32a8b338ae4", ""),
            (("decode", "--received", "0110", "--n", "5", "--a1", "0", "--a2", "2"), False, 0,
             "136712be50948e2e85058a97c177220c977adbe01130b9426c713247b5f7d22d", ""),
            (("decode", "--received", "000", "--n", "4", "--a1", "2", "--a2", "0"), False, 2,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "error: invalid discrepancy\n"),
            (("codebook", "--n", "8", "--best"), False, 0,
             "f9f06b6c26a9ed5deac9ab0e2594a2a44d4180ae747eeff2f75f91bfe415e396", ""),
            (("bounds", "--n-list", "3,7,100"), False, 0,
             "bfba04ab7e4ef245ac561e03075f4131627d0b2cd156a2c4f96958ee636014c7", ""),
            (("bounds", "--n-grid", "1000:1000000000:10"), False, 0,
             "c4643cf34993d98dd98bc7054f3c3781c29b30f4cc8c485f4b120db4e0c781c6", ""),
            (("runs", "--n", "16"), False, 0,
             "dde0b74acaf9c0d8021eb4efe75e32de808c25f8d76b5f8cd338649d97a5bd1b", ""),
        ],
        ids=["simulate-n1000", "simulate-fixed-n64", "simulate-rejected", "simulate-fixed-rejected",
             "verify-n8-all", "verify-n13", "verify-rejected", "corrupt", "corrupt-deletion",
             "decode", "decode-deletion", "decode-failure", "codebook", "bounds-list",
             "bounds-grid", "runs"],
    )
    def test_byte_identity(self, capsys, edit_kernel, argv, rejects, status, digest, err):
        # README's CLI examples and the round-trip commands, pinned by exit status, stdout's
        # SHA-256 and stderr; a rejects row has the kernel reject row 3 of each call, so
        # both failure lines, simulate's got= and verify's x2=, are pinned too
        if rejects:
            edit_kernel(reject_row_3)
        got, out, got_err = invoke(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), got_err) == (status, digest, err)


def test_cli_import_binds_every_submodule():
    # bench/run.py imports ordel.cli alone and then reads the other modules
    # as attributes of the package, whose root exports nothing
    names = ["analysis", "channel", "cli", "core", "decoder", "montecarlo", "oracle", "vt_code"]
    code = (
        "import importlib, inspect, ordel; importlib.import_module('ordel.cli'); "
        f"print([n for n in {names!r} if not inspect.ismodule(getattr(ordel, n, None))])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ordel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_simulate_leaves_numpy_random_unloaded():
    # the draws come from random.Random: loading numpy.random would add about 6 MB of RSS
    code = (
        "import sys; from ordel.cli import run; "
        "run(['simulate', '--n', '64', '--trials', '200', '--seed', '1', '--a1', '0', '--a2', '0']); "
        "run(['simulate', '--n', '1000', '--trials', '200', '--seed', '1']); "
        "print('numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ordel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, "False"), result.stderr


def test_every_command_leaves_click_unloaded():
    # numpy is the only runtime dependency
    argvs = [
        ["codebook", "--n", "8", "--best"],
        ["corrupt", "--word", "10110", "--d", "2", "--e", "3"],
        ["decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0"],
        ["verify", "--n", "6"],
        ["bounds", "--n-list", "3,7"],
        ["simulate", "--n", "30", "--trials", "20", "--seed", "1"],
        ["runs", "--n", "8"],
    ]
    code = (
        "import sys; from ordel.cli import run; "
        f"statuses = [run(argv) for argv in {argvs!r}]; "
        "print(statuses, 'click' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ordel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, f"{[0] * 7} False"), result.stderr


def test_missing_subcommand_is_usage_error(capsys):
    assert invoke(capsys, "frobnicate")[0] == 1


def test_run_keeps_no_reference_to_its_streams():
    # in-process callers capture each run in fresh streams; keeping them
    # would leak every capture for the life of the process
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(["corrupt", "--word", "10110", "--d", "2", "--e", "3"]) == 0
        assert run(["corrupt", "--word", "101", "--d", "2", "--e", "4"]) == 1
    assert (out.getvalue(), err.getvalue().startswith("error: ")) == ("11?0\n", True)
    refs = (weakref.ref(out), weakref.ref(err))
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
