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
from ordel import vt_code
from ordel.cli import run
from ordel.vt_code import class_sizes


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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
        status, out, _ = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0", "--e", "2"
        )
        assert (status, out) == (0, "1001\n")

    def test_erasure_position_inferred(self, capsys):
        status, out, _ = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4", "--a1", "2", "--a2", "0"
        )
        assert (status, out) == (0, "1001\n")

    def test_no_erasure_flag(self, capsys):
        status, out, _ = invoke(
            capsys, "decode", "--received", "0110", "--n", "5",
            "--a1", "0", "--a2", "2", "--no-erasure",
        )
        assert (status, out) == (0, "10110\n")

    def test_decode_failure_is_status_2(self, capsys):
        # no-erasure discrepancy 2 is impossible under a single deletion
        status, out, err = invoke(
            capsys, "decode", "--received", "100", "--n", "4",
            "--a1", "0", "--a2", "0", "--no-erasure",
        )
        assert status == 2
        assert out == ""
        assert "invalid discrepancy" in err

    def test_erasure_flag_mismatch_is_usage_error(self, capsys):
        status, _, err = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4",
            "--a1", "2", "--a2", "0", "--e", "1",
        )
        assert status == 1
        assert "does not match" in err

    def test_no_erasure_with_marker_is_usage_error(self, capsys):
        status, _, _ = invoke(
            capsys, "decode", "--received", "1?1", "--n", "4",
            "--a1", "2", "--a2", "0", "--no-erasure",
        )
        assert status == 1

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

    def test_cap_can_be_lowered(self, capsys):
        status, _, err = invoke(
            capsys, "codebook", "--n", "6", "--a1", "0", "--a2", "0", "--cap", "5"
        )
        assert status == 1
        assert "cap" in err


class TestVerify:
    def test_best_class(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--n", "6")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("PASS" in line for line in lines)

    def test_all_params(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--n", "4", "--all-params")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 * 3 * 5
        assert all("PASS" in line for line in lines)

    def test_all_params_refused_before_listing_classes(self, capsys):
        status, out, err = invoke(capsys, "verify", "--n", str(10**12), "--all-params")
        assert (status, out) == (1, "")
        assert "cap" in err

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

    def test_row_cap_from_n21(self, capsys):
        # enumeration allows n <= 28, but n = 21's best class needs more rows than the cap
        status, out, err = invoke(capsys, "verify", "--n", "21")
        assert (status, out) == (1, "")
        assert "row cap" in err

    @pytest.mark.parametrize("argv", [["--n", "25"], ["--n", "28"], ["--n", "21", "--all-params"]])
    def test_pairwise_cap_before_listing(self, capsys, monkeypatch, argv):
        # the refusal needs only the class size from class_sizes, so no class is listed
        def no_listing(*args):
            raise AssertionError("enumerate_codebook called")

        monkeypatch.setattr(vt_code, "enumerate_codebook", no_listing)
        status, out, err = invoke(capsys, "verify", *argv)
        assert (status, out) == (1, "")
        assert "row cap" in err

    def test_enumeration_cap_names_no_flag(self, capsys):
        # verify has no --cap, so its refusal past n = 28 offers none
        status, out, err = invoke(capsys, "verify", "--n", "29")
        assert (status, out) == (1, "")
        assert "cap n <= 28" in err and "raise" not in err


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
        status, out, err = invoke(capsys, "simulate", "--n", str(n), "--trials", "1", "--seed", "1", *cls)
        assert (status, out) == (1, "")
        assert "n + 1 < 2^31" in err

    def test_partial_class_rejected(self, capsys):
        status, _, _ = invoke(
            capsys, "simulate", "--n", "8", "--trials", "5", "--seed", "2", "--a1", "0"
        )
        assert status == 1


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
        assert invoke(capsys, "runs", "--n", "29")[0] == 1


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
