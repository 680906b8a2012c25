"""The benchmark's workloads, their operations and their correctness gates.

Every call into ordel goes through a public function or through the
in-process CLI, ``ordel.cli.run``.  Every output is checked by a gate that
counts attempted and failed operations instead of raising, so a wrong result
or an exception never ends a run.

One operation of each workload:

* ``simulate_n1000`` and ``simulate_fixed_n64``: one ``ordel simulate``
  invocation of a fixed number of trials, with a seed drawn from the run's
  seed;
* ``exhaustive_n20``: one sweep: ``ordel codebook --n 20 --best``, ``ordel
  runs --n 20``, ``ordel verify --n 13``, and a brute-force agreement pass at
  n=9 over every distinct corrupted word of the best class, in an order
  shuffled by the run's seed (the seed changes the order, not the work).

A traced round composes the same work from the public library calls, so each
layer gets its own spans.  A workload that never calls a layer still reports
it, measured on a small probe of the other kind: a sweep at small sizes in a
simulate round, or trips at n=64 in an exhaustive round.
"""

from __future__ import annotations

import contextlib
import io
import operator
import random
import re
import statistics
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from spans import NullTracer, Tracer, durations, totals

NULL = NullTracer()
WARM_TRIALS = 10
PROBE_SWEEP_SIZES = (12, 12, 8, 7)
PROBE_TRIP_N = 64
PROBE_TRIPS = 200
# small invocations per round timed both through the CLI and as library calls
CLI_PAIRS = 10

NOTES = {
    "decoder.scan_rebuild_us": "derived: decode - discrepancy - checksum",
    "decoder.pass2_frac": "exact count: second-pass recoveries / recoveries",
    "decoder.scan_steps_mean": "exact count: k, or e+k after a second pass",
    "montecarlo.self_us":
        "derived: run_trials per trial - (Word + draw_pattern + corrupt + decode + word_eq)",
    "oracle.checked": "exact count: checked totals of the verify reports plus agreement checks",
    "cli.self_ms":
        "derived: small cli.run invocation - the library calls it wraps, median of pairs",
    "trace_overhead_frac": "derived: traced / untraced time of the same composed work - 1",
}


class Gate:
    """Attempted and failed operation counts; keeps the first failure's detail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, attempted: int, failed: int = 0, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and self.first_failure is None:
            self.first_failure = detail

    def expect(self, ok: bool, detail: str, attempted: int = 1) -> None:
        self.record(attempted, 0 if ok else attempted, detail)


def guarded(gate: Gate, attempted: int, fn, *args):
    """``fn(*args)``, or None after counting its exception as ``attempted`` failures."""
    try:
        return fn(*args)
    except Exception:  # a crashing operation is a counted failure, not the end of the run
        gate.record(attempted, attempted, traceback.format_exc())
        return None


@contextlib.contextmanager
def step(tr, gate: Gate, name: str, attempted: int):
    """A span around one sweep step; an exception in it counts as failed operations."""
    tr.open(name)
    try:
        yield
    except Exception:  # same boundary as guarded()
        gate.record(attempted, attempted, traceback.format_exc())
    finally:
        tr.close()


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one in-process ``ordel`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    return status, out.getvalue(), err.getvalue()


# ---- reference values, computed without ordel ------------------------------


def class_size_table(n: int) -> list[list[int]]:
    """Exact class sizes ``[a1][a2]``, counted one bit position at a time."""
    m = n + 1
    table = [[0] * m for _ in range(3)]
    table[0][0] = 1
    for i in range(1, n + 1):
        nxt = [row[:] for row in table]
        for a1, row in enumerate(table):
            for a2, count in enumerate(row):
                nxt[(a1 + 1) % 3][(a2 + i) % m] += count
        table = nxt
    return table


def best_class(table: list[list[int]]) -> tuple[int, int, int]:
    """(a1, a2, size) of the largest class, ties going to the smallest (a1, a2)."""
    best = (0, 0, -1)
    for a1, row in enumerate(table):
        for a2, size in enumerate(row):
            if size > best[2]:
                best = (a1, a2, size)
    return best


def draw_words(n: int, count: int, seed: int, fixed: tuple[int, int] | None):
    """The benchmark's own seeded draw: ``count`` (bits, a1, a2) triples.

    With ``fixed``, draws are rejected until they belong to that class.
    """
    rng = random.Random(seed)
    weights = range(1, n + 1)
    words = []
    while len(words) < count:
        bits = tuple(map(int, format(rng.getrandbits(n), f"0{n}b")))
        a1 = sum(bits) % 3
        a2 = sum(map(operator.mul, weights, bits)) % (n + 1)
        if fixed is None or fixed == (a1, a2):
            words.append((bits, a1, a2))
    return words


# ---- gates -----------------------------------------------------------------


def check_simulate(gate: Gate, workload, trials: int, seed: int, result) -> None:
    """``ordel simulate`` exits 0 and reports ``failures=0`` for exactly these arguments."""
    if result is None:
        return
    status, out, err = result
    expected = (
        f"n={workload.n} trials={trials} seed={seed} mode={workload.mode} failures=0\n"
    )
    if status == 0 and out == expected:
        gate.record(trials)
        return
    reported = re.search(r"failures=(\d+)", out)
    failed = min(trials, max(1, int(reported[1]))) if reported else trials
    gate.record(trials, failed, f"simulate: status {status}, {out.strip()!r}, "
                                f"expected {expected.strip()!r}; {err.strip()}")


def _class_listing_ok(words: list[str], n: int, a1: int, a2: int) -> bool:
    """Sorted, distinct n-bit strings that are all members of class (a1, a2)."""
    for w in words:
        if len(w) != n or w.count("0") + w.count("1") != n or w.count("1") % 3 != a1:
            return False
        if sum(i for i, c in enumerate(w, 1) if c == "1") % (n + 1) != a2:
            return False
    return all(a < b for a, b in zip(words, words[1:]))


def check_codebook(gate: Gate, n: int, best: tuple[int, int, int], result) -> None:
    """The best-class listing: reference class and size, pigeonhole bound, every word a member."""
    if result is None:
        return
    status, out, err = result
    a1, a2, size = best
    lines = out.splitlines()
    ok = (
        status == 0
        and lines[:1] == [f"n={n} a1={a1} a2={a2}"]
        and len(lines) - 1 == size
        and size * 3 * (n + 1) >= 2**n
        and _class_listing_ok(lines[1:], n, a1, a2)
    )
    gate.expect(ok, f"codebook n={n}: status {status}, header {lines[:1]}, "
                    f"{len(lines) - 1} words, expected {best}; {err.strip()}")


def _runs_ok(n: int, words: int, total_runs, lemma_holds: bool) -> bool:
    """Every word counted, and runs summing to (n+1)/2 per word on average."""
    return words == 2**n and 2 * total_runs == (n + 1) * 2**n and lemma_holds


def check_runs(gate: Gate, n: int, result) -> None:
    """``ordel runs``: ``lemma_holds=yes`` and total_runs * 2 == (n+1) * 2^n."""
    if result is None:
        return
    status, out, err = result
    line = re.fullmatch(
        r"n=(\d+) words=(\d+) mean_runs=([0-9.]+) .* lemma_holds=(yes|no)", out.strip()
    )
    ok = (
        status == 0
        and line is not None
        and int(line[1]) == n
        and _runs_ok(n, int(line[2]), Fraction(line[3]) * int(line[2]), line[4] == "yes")
    )
    gate.expect(ok, f"runs n={n}: status {status}, {out.strip()!r}; {err.strip()}")


def check_verify(gate: Gate, n: int, best: tuple[int, int, int], result) -> None:
    """The three ``ordel verify`` lines read PASS, on the reference class, with exact counts."""
    if result is None:
        return
    status, out, err = result
    a1, a2, size = best
    pairs = size * n * (n + 1) // 2
    expected = [
        f"n={n} a1={a1} a2={a2} {check}: PASS checked={count}"
        for check, count in (
            ("code-capability", pairs),
            ("decoder-round-trip", pairs),
            ("deletion-balls", size * n),
        )
    ]
    lines = out.splitlines()
    for i, want in enumerate(expected):
        got = lines[i] if i < len(lines) else None
        gate.expect(
            status == 0 and len(lines) == len(expected) and got == want,
            f"verify: status {status}, line {got!r}, expected {want!r}; {err.strip()}",
        )


# ---- exact counts ----------------------------------------------------------


class DecodeTally:
    """Exact decode counts: recoveries, second-pass recoveries and sync-scan steps."""

    def __init__(self) -> None:
        self.recovered = 0
        self.pass2 = 0
        self.steps = 0

    def add(self, outcome, y) -> None:
        self.recovered += 1
        self.steps += outcome.insertion_index
        if outcome.sync_pass == 2:
            self.pass2 += 1
            self.steps += y.effective_erasure

    def key(self) -> tuple[int, int, int]:
        return (self.recovered, self.pass2, self.steps)


# ---- composed work ---------------------------------------------------------


def trip_block(o, n, words, pattern_seed, tr, kind, rnd, gate, tally) -> None:
    """One round trip per word, composed from public calls.

    ``discrepancy`` and ``hypothesis_checksum`` at k=1 are also timed on each
    received word, so the parts of ``decode`` get their own figures.
    """
    Word, CodeParams = o.core.Word, o.core.CodeParams
    draw_pattern, corrupt = o.channel.draw_pattern, o.channel.corrupt
    decode, discrepancy = o.decoder.decode, o.decoder.discrepancy
    checksum, Recovered = o.decoder.hypothesis_checksum, o.decoder.Recovered
    hyp = o.decoder.BitHypothesis(1, 0)
    rng = random.Random(pattern_seed)
    call = tr.call
    for i, (bits, a1, a2) in enumerate(words):
        params = CodeParams(n, a1, a2)
        tr.group = (kind, rnd, i)
        tr.open("montecarlo.trip")
        try:
            word = call("core.Word", Word, bits)
            pattern = call("channel.draw_pattern", draw_pattern, rng, n)
            y = call("channel.corrupt", corrupt, word, pattern)
            outcome = call("decoder.decode", decode, y, params)
            call("decoder.discrepancy", discrepancy, y, params)
            call("decoder.hypothesis_checksum", checksum, y, 1, hyp, params)
            ok = isinstance(outcome, Recovered) and call(
                "core.word_eq", operator.eq, outcome.word, word
            )
            detail = "" if ok else f"trip {i}: n={n} a1={a1} a2={a2} {pattern} -> {outcome}"
        except Exception:  # counted as a failed trip
            ok, detail = False, traceback.format_exc()
        finally:
            tr.close()
        if ok:
            tally.add(outcome, y)
        else:
            gate.record(0, 1, detail)
    gate.record(len(words))


def agreement_pass(o, n, best, order_seed, tr, gate, tally, time_parts: bool) -> int:
    """Check brute_force_decode(y, codebook).words == (decode(y).word,) for every distinct y.

    The ys are every corruption of every word of the class ``best``.
    Returns how many were checked.
    """
    params = o.core.CodeParams(n, best[0], best[1])
    codebook = tr.call("vt_code.enumerate_codebook", o.vt_code.enumerate_codebook, params)
    corrupt = o.channel.corrupt
    received = {corrupt(x, p) for x in codebook.words for p in o.channel.all_patterns(n)}
    order = sorted(received, key=lambda y: y.render())
    random.Random(order_seed).shuffle(order)
    decode, brute_force = o.decoder.decode, o.oracle.brute_force_decode
    discrepancy, checksum = o.decoder.discrepancy, o.decoder.hypothesis_checksum
    Recovered, hyp = o.decoder.Recovered, o.decoder.BitHypothesis(1, 0)
    call = tr.call
    for y in order:
        try:
            outcome = call("decoder.decode", decode, y, params)
            if time_parts:
                call("decoder.discrepancy", discrepancy, y, params)
                call("decoder.hypothesis_checksum", checksum, y, 1, hyp, params)
            preimages = call("oracle.brute_force_decode", brute_force, y, codebook)
            ok = isinstance(outcome, Recovered) and preimages.words == (outcome.word,)
            detail = "" if ok else (
                f"agreement n={n}: y={y} decode {outcome}, brute force {preimages.words}"
            )
        except Exception:  # counted as a failed check
            ok, detail = False, traceback.format_exc()
        if ok:
            tally.add(outcome, y)
        else:
            gate.record(0, 1, detail)
    gate.record(len(order))
    return len(order)


@dataclass(frozen=True)
class SweepSizes:
    """Word lengths of the four parts of one exhaustive sweep."""

    codebook_n: int
    runs_n: int
    verify_n: int
    agree_n: int

    def references(self) -> dict[int, tuple[list[list[int]], tuple[int, int, int]]]:
        """Reference class-size table and best class for each length the sweep enumerates."""
        lengths = {self.codebook_n, self.verify_n, self.agree_n}
        tables = {n: class_size_table(n) for n in lengths}
        return {n: (table, best_class(table)) for n, table in tables.items()}

    def cli_sweep(self, o, refs, order_seed, gate, tally) -> tuple[float, int]:
        """One sweep as users run it; returns its seconds and the decoder round trips it checked."""
        commands = (
            (["codebook", "--n", str(self.codebook_n), "--best"], 1),
            (["runs", "--n", str(self.runs_n)], 1),
            (["verify", "--n", str(self.verify_n)], 3),
        )
        start = perf_counter()
        results = [guarded(gate, attempted, run_cli, o.cli, argv) for argv, attempted in commands]
        agreed = guarded(
            gate, 1, agreement_pass, o, self.agree_n, refs[self.agree_n][1], order_seed,
            NULL, gate, tally, False,
        )
        seconds = perf_counter() - start
        check_codebook(gate, self.codebook_n, refs[self.codebook_n][1], results[0])
        check_runs(gate, self.runs_n, results[1])
        check_verify(gate, self.verify_n, refs[self.verify_n][1], results[2])
        size = refs[self.verify_n][1][2]
        return seconds, size * self.verify_n * (self.verify_n + 1) // 2 + (agreed or 0)

    def library_sweep(self, o, refs, order_seed, tr, kind, rnd, gate, tally) -> int:
        """The same sweep composed from the library calls each CLI command wraps.

        Returns the oracle's exact count: the verify reports' ``checked`` plus
        the agreement checks.
        """
        vt, CodeParams = o.vt_code, o.core.CodeParams
        checked = 0
        tr.group = (kind, rnd, 0)
        tr.open("bench.sweep")
        try:
            n = self.codebook_n
            table, best = refs[n]
            listing = None
            with step(tr, gate, "step.codebook", 1):
                sizes = tr.call("vt_code.class_sizes", vt.class_sizes, n)
                codebook = tr.call(
                    "vt_code.enumerate_codebook", vt.enumerate_codebook, CodeParams(n, *best[:2])
                )
                listing = tr.call("vt_code.render_codebook", vt.render_codebook, codebook)
            if listing is not None:
                gate.expect(sizes.tolist() == table, f"class_sizes({n}) differs from the reference")
                check_codebook(gate, n, best, (0, listing + "\n", ""))

            n = self.runs_n
            stats = None
            with step(tr, gate, "step.runs", 1):
                stats = tr.call("analysis.run_stats", o.analysis.run_stats, n)
            if stats is not None:
                lemma = stats.high_run_fraction >= 1.0 - 4.0 / (n * n)
                gate.expect(_runs_ok(n, stats.words, stats.total_runs, lemma),
                            f"run_stats({n}) = {stats}")

            n = self.verify_n
            table, best = refs[n]
            reports = None
            with step(tr, gate, "step.verify", 3):
                sizes = tr.call("vt_code.class_sizes", vt.class_sizes, n)
                params = CodeParams(n, *best[:2])
                codebook = tr.call("vt_code.enumerate_codebook", vt.enumerate_codebook, params)
                reports = [
                    tr.call(name, fn, codebook)
                    for name, fn in (
                        ("oracle.verify_code", o.oracle.verify_code),
                        ("oracle.verify_decoder", o.oracle.verify_decoder),
                        ("oracle.deletion_balls", o.oracle.deletion_balls_disjoint),
                    )
                ]
            if reports is not None:
                checked += sum(r.checked for r in reports)
                gate.expect(sizes.tolist() == table, f"class_sizes({n}) differs from the reference")
                check_verify(gate, n, best, (0, _verify_lines(params, reports), ""))

            n = self.agree_n
            with step(tr, gate, "step.agreement", 1):
                checked += agreement_pass(o, n, refs[n][1], order_seed, tr, gate, tally, True)
        finally:
            tr.close()
        return checked


def cli_pairs(o, commands, tr, rnd, gate) -> None:
    """Time small commands both as ``ordel`` invocations and as the library calls they wrap.

    ``commands`` holds (name, argv, library call); the call returns text that
    the command's stdout must start with.  Which side runs first alternates.
    """
    for i in range(CLI_PAIRS):
        tr.group = ("cli", rnd, i)
        for name, argv, library in commands:
            sides = [("cli." + name, run_cli, o.cli, argv), ("lib." + name, library)]
            results = {}
            for span_name, fn, *args in sides if i % 2 == 0 else sides[::-1]:
                results[span_name] = guarded(gate, 1, tr.call, span_name, fn, *args)
            cli_result, text = results["cli." + name], results["lib." + name]
            if cli_result is not None and text is not None:
                status, out, err = cli_result
                gate.expect(
                    status == 0 and out.startswith(text),
                    f"ordel {' '.join(argv)}: status {status}, {out[:200]!r} does not start "
                    f"with the library's {text[:200]!r}; {err.strip()}",
                )


def cli_self_ms(spans: list[list]) -> float:
    """Median over the pairs of invocation time minus library time, in ms."""
    pairs: dict[tuple, dict[str, int]] = {}
    for name, start, end, _, group in spans:
        if group[0] == "cli":
            side, command = name.split(".", 1)
            pairs.setdefault((group[1], group[2], command), {})[side] = end - start
    gaps = [p["cli"] - p["lib"] for p in pairs.values() if len(p) == 2]
    return statistics.median(gaps) / 1e6 if gaps else 0.0


def _verify_lines(params, reports) -> str:
    """The lines ``ordel verify`` prints for these reports."""
    return "".join(
        f"n={params.n} a1={params.a1} a2={params.a2} {r.check}: {r.render()}\n" for r in reports
    )


def _verify_text(o, n: int) -> str:
    """What ``ordel verify --n N`` prints, built from the library calls it wraps."""
    params = o.vt_code.best_params(n)
    codebook = o.vt_code.enumerate_codebook(params)
    return _verify_lines(params, (
        o.oracle.verify_code(codebook),
        o.oracle.verify_decoder(codebook),
        o.oracle.deletion_balls_disjoint(codebook),
    ))


def _runs_prefix(o, n: int) -> str:
    """The start of what ``ordel runs --n N`` prints, from ``run_stats``."""
    stats = o.analysis.run_stats(n)
    return f"n={stats.n} words={stats.words} mean_runs={stats.mean_runs:.6f} "


# ---- workloads -------------------------------------------------------------


def _median_of_rounds(agg, rounds, kind, name, divisor, per_call) -> float:
    """Median over rounds of a span name's total (or mean per call) time, divided."""
    values = []
    for rnd in range(rounds):
        total, calls, _ = agg.get((kind, rnd, name), (0, 0, 0))
        if calls:
            values.append((total / calls if per_call else total) / divisor)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, rounds, trips, montecarlo, sweeps, decodes, block,
                  decode_tally, checked, overheads) -> dict[str, float]:
    """Every per-layer metric from the spans of a traced run.

    ``trips``, ``montecarlo``, ``sweeps`` and ``decodes`` name the group kind
    each family of metrics is read from.
    """
    agg = totals(spans)

    def us(kind, name):
        return _median_of_rounds(agg, rounds, kind, name, 1e3, True)

    def per_sweep_s(name):
        return _median_of_rounds(agg, rounds, sweeps, name, 1e9, False)

    decode_ns = durations(spans, decodes, "decoder.decode")
    cuts = statistics.quantiles(decode_ns, n=100, method="inclusive")
    decode, discrepancy = us(decodes, "decoder.decode"), us(decodes, "decoder.discrepancy")
    checksum = us(decodes, "decoder.hypothesis_checksum")
    parts = {
        name: us(trips, name)
        for name in ("core.Word", "channel.draw_pattern", "channel.corrupt", "decoder.decode",
                     "core.word_eq")
    }
    trial = _median_of_rounds(agg, rounds, montecarlo, "montecarlo.run_trials", 1e3 * block, False)
    recovered, pass2, steps = decode_tally
    return {
        "decoder.decode_p50_us": cuts[49] / 1e3,
        "decoder.decode_p99_us": cuts[98] / 1e3,
        "decoder.discrepancy_us": discrepancy,
        "decoder.checksum_us": checksum,
        "decoder.scan_rebuild_us": decode - discrepancy - checksum,
        "decoder.pass2_frac": pass2 / recovered if recovered else 0.0,
        "decoder.scan_steps_mean": steps / recovered if recovered else 0.0,
        "channel.corrupt_us": parts["channel.corrupt"],
        "channel.draw_pattern_us": parts["channel.draw_pattern"],
        "core.word_us": parts["core.Word"],
        "core.word_eq_us": parts["core.word_eq"],
        "montecarlo.trial_us": trial,
        "montecarlo.self_us": trial - sum(parts.values()),
        "vt_code.class_sizes_s": per_sweep_s("vt_code.class_sizes"),
        "vt_code.enumerate_codebook_s": per_sweep_s("vt_code.enumerate_codebook"),
        "analysis.run_stats_s": per_sweep_s("analysis.run_stats"),
        "oracle.verify_code_s": per_sweep_s("oracle.verify_code"),
        "oracle.verify_decoder_s": per_sweep_s("oracle.verify_decoder"),
        "oracle.deletion_balls_s": per_sweep_s("oracle.deletion_balls"),
        "oracle.brute_force_decode_us": us(sweeps, "oracle.brute_force_decode"),
        "oracle.checked": checked,
        "cli.self_ms": cli_self_ms(spans),
        "trace_overhead_frac": statistics.median(overheads),
    }


def _fingerprint_check(gate: Gate, fingerprints: list) -> None:
    """Exact counts must repeat across the rounds of a run."""
    gate.expect(
        all(fp == fingerprints[0] for fp in fingerprints),
        f"exact counts differ between rounds: {sorted(set(map(repr, fingerprints)))}",
    )


def _sides(rnd: int) -> tuple[bool, bool]:
    """Which side runs first alternates between rounds: untraced, then traced, or back."""
    return (False, True) if rnd % 2 == 0 else (True, False)


class Simulate:
    """``ordel simulate`` at length n, per-word class or one fixed class."""

    def __init__(self, o, seed, trace, n, fixed, chunk, block) -> None:
        self.o, self.seed, self.n, self.fixed = o, seed, n, fixed
        self.chunk, self.block = chunk, block
        self.mode = ("per-word-class" if fixed is None
                     else f"rejection(a1={fixed[0]},a2={fixed[1]})")
        self.chunk_seeds = random.Random(seed)
        self.probe_layers = ("vt_code", "analysis", "oracle")
        if trace:
            self.words = draw_words(n, block, seed, fixed)
            self.probe = SweepSizes(*PROBE_SWEEP_SIZES)
            self.probe_refs = self.probe.references()

    def argv(self, trials: int, seed: int) -> list[str]:
        argv = ["simulate", "--n", str(self.n), "--trials", str(trials), "--seed", str(seed)]
        if self.fixed is not None:
            argv += ["--a1", str(self.fixed[0]), "--a2", str(self.fixed[1])]
        return argv

    def warm_up(self, gate: Gate):
        """The first call: one short invocation, whose output also feeds the self-check."""
        result = guarded(gate, WARM_TRIALS, run_cli, self.o.cli, self.argv(WARM_TRIALS, self.seed))
        check_simulate(gate, self, WARM_TRIALS, self.seed, result)
        return result

    def self_check(self, warm) -> bool:
        """A deliberately wrong expected trial count must count as a failed operation."""
        probe = Gate()
        check_simulate(probe, self, WARM_TRIALS + 1, self.seed, warm)
        return probe.failed > 0

    def measure(self, seconds: float, gate: Gate, between) -> tuple[dict, dict]:
        """Invocations for ``seconds``; ``between()`` runs after each, outside the timing."""
        times = []
        end = perf_counter() + seconds
        while perf_counter() < end:
            seed = self.chunk_seeds.getrandbits(31)
            argv = self.argv(self.chunk, seed)
            start = perf_counter()
            result = guarded(gate, self.chunk, run_cli, self.o.cli, argv)
            times.append(perf_counter() - start)
            check_simulate(gate, self, self.chunk, seed, result)
            between()
        metrics = {
            "trials_per_s": statistics.median(self.chunk / t for t in times),
            "sweep_s": statistics.median(times),
        }
        return metrics, {"invocations": len(times), "trials_per_invocation": self.chunk}

    def trace(self, seconds: float, gate: Gate) -> tuple[dict, Tracer, dict]:
        o, tr = self.o, Tracer()
        a1, a2 = self.fixed if self.fixed is not None else (None, None)
        overheads, fingerprints = [], []
        end = perf_counter() + seconds
        rnd = 0
        while rnd < 2 or perf_counter() < end:
            elapsed = {}
            for traced in _sides(rnd):
                tally = DecodeTally()
                start = perf_counter()
                trip_block(o, self.n, self.words, self.seed, tr if traced else NULL,
                           "trip", rnd, gate, tally)
                elapsed[traced] = perf_counter() - start
                fingerprints.append(("trips", tally.key()))
            overheads.append(elapsed[True] / elapsed[False] - 1)
            decode_tally = tally.key()

            tr.group = ("montecarlo", rnd, 0)
            report = guarded(gate, self.block, tr.call, "montecarlo.run_trials",
                             o.montecarlo.run_trials, self.n, self.block, self.seed, a1, a2)
            if report is not None:
                gate.expect(report.failures == 0 and report.trials == self.block,
                            f"run_trials: {report.render()}", self.block)
            cli_pairs(o, [("simulate", self.argv(1, self.seed), lambda: o.montecarlo.run_trials(
                self.n, 1, self.seed, a1, a2).render())], tr, rnd, gate)

            checked = self.probe.library_sweep(o, self.probe_refs, self.seed, tr, "probe-sweep",
                                               rnd, gate, DecodeTally())
            fingerprints.append(("probe-sweep", checked))
            rnd += 1
        _fingerprint_check(gate, [fp for fp in fingerprints if fp[0] == "trips"])
        _fingerprint_check(gate, [fp for fp in fingerprints if fp[0] == "probe-sweep"])
        metrics = layer_metrics(
            tr.spans, rnd, "trip", "montecarlo", "probe-sweep", "trip", self.block,
            decode_tally, checked, overheads,
        )
        return metrics, tr, {"rounds": rnd, "trips_per_round": self.block}


class Exhaustive:
    """One exhaustive sweep: codebook, runs, verify and the brute-force agreement pass."""

    def __init__(self, o, seed, trace, sizes: SweepSizes) -> None:
        self.o, self.seed, self.sizes = o, seed, sizes
        self.refs = sizes.references()
        self.probe = SweepSizes(*PROBE_SWEEP_SIZES)
        self.probe_refs = self.probe.references()
        self.probe_layers = ("core", "channel", "montecarlo")
        if trace:
            self.words = draw_words(PROBE_TRIP_N, PROBE_TRIPS, seed, None)

    def warm_up(self, gate: Gate):
        """The first call: one sweep at small sizes, whose codebook also feeds the self-check."""
        o, probe = self.o, self.probe
        argv = ["codebook", "--n", str(probe.codebook_n), "--best"]
        result = guarded(gate, 1, run_cli, o.cli, argv)
        check_codebook(gate, probe.codebook_n, self.probe_refs[probe.codebook_n][1], result)
        probe.cli_sweep(o, self.probe_refs, self.seed, gate, DecodeTally())
        return result

    def self_check(self, warm) -> bool:
        """A deliberately wrong expected class size must count as a failed operation."""
        a1, a2, size = self.probe_refs[self.probe.codebook_n][1]
        probe = Gate()
        check_codebook(probe, self.probe.codebook_n, (a1, a2, size + 1), warm)
        return probe.failed > 0

    def measure(self, seconds: float, gate: Gate, between) -> tuple[dict, dict]:
        """Sweeps for ``seconds``; ``between()`` runs after each, outside the timing."""
        times, rates = [], []
        end = perf_counter() + seconds
        while perf_counter() < end:
            elapsed, round_trips = self.sizes.cli_sweep(self.o, self.refs, self.seed, gate,
                                                        DecodeTally())
            times.append(elapsed)
            rates.append(round_trips / elapsed)
            between()
        metrics = {"trials_per_s": statistics.median(rates), "sweep_s": statistics.median(times)}
        return metrics, {"sweeps": len(times)}

    def trace(self, seconds: float, gate: Gate) -> tuple[dict, Tracer, dict]:
        o, tr, sizes, probe, vt = self.o, Tracer(), self.sizes, self.probe, self.o.vt_code
        commands = [
            ("codebook", ["codebook", "--n", str(probe.codebook_n), "--best"],
             lambda: vt.render_codebook(
                 vt.enumerate_codebook(vt.best_params(probe.codebook_n))) + "\n"),
            ("runs", ["runs", "--n", str(probe.runs_n)], lambda: _runs_prefix(o, probe.runs_n)),
            ("verify", ["verify", "--n", str(probe.verify_n)],
             lambda: _verify_text(o, probe.verify_n)),
        ]
        overheads, fingerprints = [], []
        end = perf_counter() + seconds
        rnd = 0
        while rnd < 2 or perf_counter() < end:
            elapsed = {}
            for traced in _sides(rnd):
                tally = DecodeTally()
                start = perf_counter()
                checked = sizes.library_sweep(o, self.refs, self.seed, tr if traced else NULL,
                                              "sweep", rnd, gate, tally)
                elapsed[traced] = perf_counter() - start
                fingerprints.append((tally.key(), checked))
            overheads.append(elapsed[True] / elapsed[False] - 1)

            cli_pairs(o, commands, tr, rnd, gate)

            trip_block(o, PROBE_TRIP_N, self.words, self.seed, tr, "probe-trip", rnd, gate,
                       DecodeTally())
            tr.group = ("probe-montecarlo", rnd, 0)
            report = guarded(gate, PROBE_TRIPS, tr.call, "montecarlo.run_trials",
                             o.montecarlo.run_trials, PROBE_TRIP_N, PROBE_TRIPS, self.seed)
            if report is not None:
                gate.expect(report.failures == 0, f"run_trials: {report.render()}", PROBE_TRIPS)
            rnd += 1
        _fingerprint_check(gate, fingerprints)
        metrics = layer_metrics(
            tr.spans, rnd, "probe-trip", "probe-montecarlo", "sweep", "sweep", PROBE_TRIPS,
            tally.key(), checked, overheads,
        )
        return metrics, tr, {"rounds": rnd}


def make(name: str, o, seed: int, trace: bool):
    """The named workload, with its inputs built from ``seed``."""
    if name == "simulate_n1000":
        return Simulate(o, seed, trace, n=1000, fixed=None, chunk=500, block=1000)
    if name == "simulate_fixed_n64":
        return Simulate(o, seed, trace, n=64, fixed=(0, 0), chunk=100, block=200)
    if name == "exhaustive_n20":
        return Exhaustive(o, seed, trace, SweepSizes(20, 20, 13, 9))
    raise ValueError(f"unknown workload {name!r}")
