"""Command-line surface: every subcommand is a thin adapter over the library.

Positions d, e, k are 1-based on the command line, matching the library
convention.  Data goes to stdout, diagnostics to stderr.  Exit status 0 on
success, 1 on usage/validation errors or a failed verification, 2 when a
decode (or a simulated round trip) fails.
"""

from __future__ import annotations

import sys

import click

from . import analysis, montecarlo, oracle, vt_code
from .channel import CorruptionPattern, corrupt
from .core import CodeParams, parse_received, parse_word
from .decoder import DecodeFailure, decode

USAGE_ERROR = 1
DECODE_ERROR = 2


def _echo(text: str, err: bool = False) -> None:
    """Print a line to the current stdout (or stderr).

    The stream goes to click explicitly: a stream click looks up itself is
    cached for good, so each ``run`` under a fresh redirect would leak it.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout)


class _DecodeFailed(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@click.group()
def cli() -> None:
    """Codes correcting one deletion followed by at most one erasure."""


@cli.command("codebook")
@click.option("--n", type=int, required=True, help="Word length (n >= 3).")
@click.option("--a1", type=int, default=None, help="Bit-sum residue mod 3.")
@click.option("--a2", type=int, default=None, help="Weighted-sum residue mod n+1.")
@click.option("--best", is_flag=True, help="Use the largest parameter class.")
@click.option("--cap", type=int, default=None, help="Override the enumeration cap (default 28).")
def codebook_cmd(n: int, a1: int | None, a2: int | None, best: bool, cap: int | None) -> None:
    """List all codewords of one parameter class."""
    if best:
        if a1 is not None or a2 is not None:
            raise click.UsageError("--best excludes --a1/--a2")
        vt_code.check_cap(n, cap)  # before the exact count, which the cap makes moot
        params = vt_code.best_params(n)
    else:
        if a1 is None or a2 is None:
            raise click.UsageError("give both --a1 and --a2, or --best")
        params = CodeParams(n, a1, a2)
    _echo(vt_code.render_codebook(vt_code.enumerate_codebook(params, cap)))


@cli.command("corrupt")
@click.option("--word", "word_text", required=True, help="Codeword as a '0'/'1' string.")
@click.option("--d", type=int, required=True, help="Deletion position, 1-based.")
@click.option("--e", type=int, required=True, help="Erasure parameter; e = n means none.")
def corrupt_cmd(word_text: str, d: int, e: int) -> None:
    """Apply a deletion-erasure pattern ('?' marks the erasure)."""
    word = parse_word(word_text)
    received = corrupt(word, CorruptionPattern(d, e))
    _echo(received.render())


@cli.command("decode")
@click.option("--received", "received_text", required=True, help="Received word over '0'/'1'/'?'.")
@click.option("--n", type=int, required=True, help="Original word length.")
@click.option("--a1", type=int, required=True)
@click.option("--a2", type=int, required=True)
@click.option("--e", type=int, default=None, help="Erasure position (must match the '?').")
@click.option("--no-erasure", is_flag=True, help="Assert the word has no erasure.")
def decode_cmd(
    received_text: str, n: int, a1: int, a2: int, e: int | None, no_erasure: bool
) -> None:
    """Recover the transmitted codeword."""
    if e is not None and no_erasure:
        raise click.UsageError("--e and --no-erasure are mutually exclusive")
    received = parse_received(received_text, n)
    if no_erasure and received.erasure_pos is not None:
        raise click.UsageError(f"--no-erasure given but '?' found at position {received.erasure_pos}")
    if e is not None and received.erasure_pos != e:
        raise click.UsageError(
            f"--e {e} does not match the received word (erasure at {received.erasure_pos})"
        )
    outcome = decode(received, CodeParams(n, a1, a2))
    if isinstance(outcome, DecodeFailure):
        raise _DecodeFailed(outcome.reason)
    _echo(outcome.word.render())


@cli.command("verify")
@click.option("--n", type=int, required=True)
@click.option("--all-params", is_flag=True, help="Sweep all 3(n+1) parameter classes.")
def verify_cmd(n: int, all_params: bool) -> None:
    """Run the brute-force checks (code capability, decoder, deletion balls)."""
    sizes = vt_code.class_sizes(n)
    if all_params:
        param_list = (CodeParams(n, a1, a2) for a1 in range(3) for a2 in range(n + 1))
    else:
        param_list = [vt_code.best_of(sizes)]
    failed = False
    for params in param_list:
        oracle.check_rows(n, sizes[params.a1, params.a2])
        codebook = vt_code.enumerate_codebook(params)
        for report in (
            oracle.verify_code(codebook),
            oracle.verify_decoder(codebook),
            oracle.deletion_balls_disjoint(codebook),
        ):
            _echo(
                f"n={params.n} a1={params.a1} a2={params.a2} {report.check}: {report.render()}"
            )
            failed = failed or not report.passed
    if failed:
        raise click.ClickException("verification failed")


@cli.command("bounds")
@click.option("--n-list", "n_list", default=None, help="Comma-separated lengths, e.g. 3,7,15.")
@click.option("--n-grid", "n_grid", default=None, help="Geometric grid start:stop:factor.")
def bounds_cmd(n_list: str | None, n_grid: str | None) -> None:
    """Emit the redundancy bounds table as CSV."""
    if (n_list is None) == (n_grid is None):
        raise click.UsageError("give exactly one of --n-list or --n-grid")
    if n_list is not None:
        try:
            values = [int(part) for part in n_list.split(",") if part]
        except ValueError as exc:
            raise click.UsageError(f"bad --n-list: {exc}")
    else:
        try:
            start_text, stop_text, factor_text = n_grid.split(":")
            start, stop, factor = int(start_text), int(stop_text), int(factor_text)
        except ValueError:
            raise click.UsageError(f"bad --n-grid {n_grid!r}, expected start:stop:factor")
        if start < 3 or stop < start or factor < 2:
            raise click.UsageError("--n-grid needs start >= 3, stop >= start, factor >= 2")
        values = []
        v = start
        while v <= stop:
            values.append(v)
            v *= factor
    if any(v < 3 for v in values):
        raise click.UsageError("all lengths must be >= 3")
    _echo(analysis.bounds_csv(analysis.bounds_table(values)))


@cli.command("simulate")
@click.option("--n", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--a1", type=int, default=None, help="Fix the class; members are drawn uniformly from it.")
@click.option("--a2", type=int, default=None)
def simulate_cmd(n: int, trials: int, seed: int, a1: int | None, a2: int | None) -> None:
    """Random corrupt/decode round trips; reports the failure count."""
    if (a1 is None) != (a2 is None):
        raise click.UsageError("give both --a1 and --a2, or neither")
    report = montecarlo.run_trials(n, trials, seed, a1, a2)
    _echo(report.render())
    if not report.passed:
        raise _DecodeFailed(f"{report.failures} round-trip failures")


@cli.command("runs")
@click.option("--n", type=int, required=True)
def runs_cmd(n: int) -> None:
    """Exact run-count statistics over all 2^n words."""
    stats = analysis.run_stats(n)
    lemma_bound = 1.0 - 4.0 / (n * n)
    _echo(
        f"n={stats.n} words={stats.words} mean_runs={stats.mean_runs:.6f} "
        f"threshold={stats.threshold:.6f} high_run_count={stats.high_run_count} "
        f"high_run_fraction={stats.high_run_fraction:.6f} "
        f"lemma_bound={lemma_bound:.6f} "
        f"lemma_holds={'yes' if stats.high_run_fraction >= lemma_bound else 'no'}"
    )


def run(argv: list[str]) -> int:
    """Run one CLI invocation; returns the exit status instead of exiting."""
    try:
        cli.main(args=list(argv), prog_name="ordel", standalone_mode=False)
    except _DecodeFailed as exc:
        _echo(f"error: {exc.reason}", err=True)
        return DECODE_ERROR
    except click.ClickException as exc:
        _echo(f"error: {exc.format_message()}", err=True)
        return USAGE_ERROR
    except (ValueError, MemoryError) as exc:  # a MemoryError: a class or table past memory
        _echo(f"error: {exc}", err=True)
        return USAGE_ERROR
    except click.exceptions.Abort:
        return USAGE_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
