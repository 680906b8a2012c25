"""Command-line surface: every subcommand is a thin adapter over the library.

Positions d, e, k are 1-based on the command line, matching the library
convention.  Data goes to stdout, diagnostics to stderr.  Exit status 0 on
success or ``--help``, 1 on usage/validation errors or a failed verification,
2 when a decode (or a simulated round trip) fails.

Each command's argparse parser is built once, at import, and ``run`` parses
with the named command's parser alone, or with the top-level one if argv names
no command.  Options are never abbreviated; ``--help`` is the only help flag.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, montecarlo, oracle, vt_code
from .channel import CorruptionPattern, corrupt
from .core import CodeParams, parse_received, parse_word
from .decoder import DecodeFailure, decode

__all__ = ["main", "run"]

USAGE_ERROR = 1
DECODE_ERROR = 2
_INT = {"type": int}
_NEEDED = {"type": int, "required": True}


class _UsageError(Exception):
    """A bad command line, a refused combination of options, or a failed verification."""


class _DecodeFailed(Exception):
    """A decode, or a simulated round trip, failed."""


class _Parser(argparse.ArgumentParser):
    """A parse error raises ``_UsageError``; only the ``--help`` action exits."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise _UsageError(message)


_TOP = _Parser(prog="ordel", description="Codes correcting one deletion followed by at most one erasure.")
_COMMANDS = _TOP.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(name: str, *options: tuple[str, dict]):
    """Register the decorated handler as command ``name``; options are (flag, keywords) pairs."""
    def register(handler):
        parser = _COMMANDS.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        for flag, spec in options:
            parser.add_argument(flag, **spec)
        parser.set_defaults(handler=handler)
        return handler
    return register


@_command("codebook",
          ("--n", dict(_NEEDED, help="Word length (n >= 3).")),
          ("--a1", dict(_INT, help="Bit-sum residue mod 3.")),
          ("--a2", dict(_INT, help="Weighted-sum residue mod n+1.")),
          ("--best", dict(action="store_true", help="Use the largest parameter class.")))
def codebook_cmd(n: int, a1: int | None, a2: int | None, best: bool) -> None:
    """List all codewords of one parameter class."""
    if best:
        if a1 is not None or a2 is not None:
            raise _UsageError("--best excludes --a1/--a2")
        vt_code.check_cap(n)  # before the exact count, which the cap makes moot
        params = vt_code.best_params(n)
    else:
        if a1 is None or a2 is None:
            raise _UsageError("give both --a1 and --a2, or --best")
        params = CodeParams(n, a1, a2)
    print(vt_code.render_codebook(vt_code.enumerate_codebook(params)))


@_command("corrupt",
          ("--word", dict(required=True, help="Codeword as a '0'/'1' string.")),
          ("--d", dict(_NEEDED, help="Deletion position, 1-based.")),
          ("--e", dict(_NEEDED, help="Erasure parameter; e = n means none.")))
def corrupt_cmd(word: str, d: int, e: int) -> None:
    """Apply a deletion-erasure pattern ('?' marks the erasure)."""
    print(corrupt(parse_word(word), CorruptionPattern(d, e)).render())


@_command("decode",
          ("--received", dict(required=True, help="Received word over '0'/'1'/'?'; '?' is the erasure.")),
          ("--n", dict(_NEEDED, help="Original word length.")),
          ("--a1", _NEEDED), ("--a2", _NEEDED))
def decode_cmd(received: str, n: int, a1: int, a2: int) -> None:
    """Recover the transmitted codeword."""
    outcome = decode(parse_received(received, n), CodeParams(n, a1, a2))
    if isinstance(outcome, DecodeFailure):
        raise _DecodeFailed(outcome.reason)
    print(outcome.word.render())


@_command("verify",
          ("--n", _NEEDED),
          ("--all-params", dict(action="store_true", help="Sweep all 3(n+1) parameter classes.")))
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
        for report in (oracle.verify_code(codebook), oracle.verify_decoder(codebook),
                       oracle.deletion_balls_disjoint(codebook)):
            print(f"n={params.n} a1={params.a1} a2={params.a2} {report.check}: {report.render()}")
            failed = failed or not report.passed
    if failed:
        raise _UsageError("verification failed")


@_command("bounds",
          ("--n-list", dict(help="Comma-separated lengths, e.g. 3,7,15.")),
          ("--n-grid", dict(help="Geometric grid start:stop:factor.")))
def bounds_cmd(n_list: str | None, n_grid: str | None) -> None:
    """Emit the redundancy bounds table as CSV."""
    if (n_list is None) == (n_grid is None):
        raise _UsageError("give exactly one of --n-list or --n-grid")
    if n_list is not None:
        try:
            values = [int(part) for part in n_list.split(",") if part]
        except ValueError as exc:
            raise _UsageError(f"bad --n-list: {exc}")
    else:
        try:
            start_text, stop_text, factor_text = n_grid.split(":")
            start, stop, factor = int(start_text), int(stop_text), int(factor_text)
        except ValueError:
            raise _UsageError(f"bad --n-grid {n_grid!r}, expected start:stop:factor")
        if start < 1 or stop < start or factor < 2:  # a finite grid; bounds_table checks each n
            raise _UsageError("--n-grid needs start >= 1, stop >= start, factor >= 2")
        values = [start]
        while values[-1] * factor <= stop:
            values.append(values[-1] * factor)
    print(analysis.bounds_csv(analysis.bounds_table(values)))


@_command("simulate",
          ("--n", _NEEDED), ("--trials", _NEEDED), ("--seed", _NEEDED),
          ("--a1", dict(_INT, help="Fix the class; members are drawn uniformly from it.")),
          ("--a2", _INT))
def simulate_cmd(n: int, trials: int, seed: int, a1: int | None, a2: int | None) -> None:
    """Random corrupt/decode round trips; reports the failure count."""
    report = montecarlo.run_trials(n, trials, seed, a1, a2)
    print(report.render())
    if not report.passed:
        raise _DecodeFailed(f"{report.failures} round-trip failures")


@_command("runs", ("--n", _NEEDED))
def runs_cmd(n: int) -> None:
    """Exact run-count statistics over all 2^n words."""
    stats = analysis.run_stats(n)
    lemma_bound = 1.0 - 4.0 / (n * n)
    print(
        f"n={stats.n} words={stats.words} mean_runs={stats.mean_runs:.6f} "
        f"threshold={stats.threshold:.6f} high_run_count={stats.high_run_count} "
        f"high_run_fraction={stats.high_run_fraction:.6f} lemma_bound={lemma_bound:.6f} "
        f"lemma_holds={'yes' if stats.high_run_fraction >= lemma_bound else 'no'}"
    )


def run(argv: list[str]) -> int:
    """Run one CLI invocation; returns the exit status instead of exiting."""
    command = _COMMANDS.choices.get(argv[0]) if argv else None
    try:
        options = vars(command.parse_args(argv[1:]) if command else _TOP.parse_args(argv))
        options.pop("handler")(**options)
    except SystemExit as exc:  # from the --help action alone
        return exc.code
    # a MemoryError: a class or table past memory
    except (_DecodeFailed, _UsageError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DECODE_ERROR if isinstance(exc, _DecodeFailed) else USAGE_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
