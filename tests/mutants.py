"""Mutation gate: how many hand-made faults the Tier-1 suite catches.

Each entry of ``MUTANTS`` is (file, exact old text, new text, why the change is not
equivalent).  For each, ``src``, ``tests``, ``bench`` (``test_surface`` reads it) and
``pyproject.toml`` are copied to a temporary directory, the old text is replaced there, and
Tier-1 runs in the copy with ``pytest -x``: the mutated module's own test file first, where
most mutants fail within a second, then, only if that passes, the rest of the suite.  (Two
runs, because pytest collects a file named on its command line in directory order, not
first.)  A mutant is killed when either run fails and survived when both pass.  It is stale
when its old text does not occur exactly once in the file: a refactor moved that text, so
the entry needs mending before it guards anything.

Run from anywhere, ``python tests/mutants.py``; the unmutated copy runs first, and nothing is
judged if it fails.  One line per mutant and a tally go to stdout, as a Markdown list; the
exit status is 1 if a mutant survived or went stale.  The file is not ``test_*``, so Tier-1
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench")
TIMEOUT_S = 900  # several times a whole Tier-1 run


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str


ORACLE = "src/ordel/oracle.py"
MUTANTS = [
    Mutant(ORACLE, "step = max(1, BATCH_WORDS // len(d))",
           "step = max(1, BATCH_WORDS // len(d)) + 1",
           "a decoder block one codeword larger can pass BATCH_WORDS rows a kernel call"),
    Mutant(ORACLE, "int(place[j]) + 1, failure)", "int(place[j]), failure)",
           "a failing decoder row's checked count misses the row itself"),
    Mutant(ORACLE, "owner, d = np.divmod(np.flatnonzero(_run_starts(codebook)), n)",
           "d, owner = np.divmod(np.flatnonzero(_run_starts(codebook).T), len(codebook))",
           "the ball rows in (d, codeword) order: an earlier codeword's later run is seen first"),
    Mutant(ORACLE, "balls[:m] & ~np.uint64(1 << 64 - e)", "balls[:m]",
           "every pool keyed at e = n: no erasure, so the capability sweep misses its collisions"),
    Mutant(ORACLE, "(e * (e - 1) // 2 + int(d[j]) - 1)", "(e * (e + 1) // 2 + int(d[j]) - 1)",
           "a failing capability row's checked count takes in all of its own pool's rows"),
    Mutant(ORACLE, "    check_rows(codebook.params.n, len(codebook))\n", "",
           "the sweeps no longer refuse past the row cap or past n = 64"),
    Mutant(ORACLE, "if n > 64:", "if n > 128:",
           "at n = 65 the sweeps read only the first 64 positions of each row"),
    Mutant("src/ordel/analysis.py", "return math.log2(n + 1) + math.log2(3)",
           "return math.log2(n) + math.log2(3)",
           "the pigeonhole bound counts 3(n + 1) classes, not 3n"),
    Mutant("src/ordel/channel.py", "prefix_mask((d - 1, e - 1, e), words.shape[1])",
           "prefix_mask((d, e - 1, e), words.shape[1])",
           "the batched channel keeps x_d and deletes x_{d+1}"),
    Mutant("src/ordel/cli.py", "failed = failed or not report.passed",
           "failed = failed and not report.passed",
           "a failing verify report no longer sets exit status 1"),
    Mutant("src/ordel/cli.py", "if not report.passed:", "if False:",
           "a simulate run with failed trials exits 0, not 2"),
    Mutant("src/ordel/core.py", "if not 1 <= i <= len(self.bits):",
           "if not 0 <= i <= len(self.bits):",
           "Word.bit(0) returns x_n where it raises IndexError"),
    Mutant("src/ordel/core.py", "text.find(ERASURE_CHAR) + 1 or None",
           "text.find(ERASURE_CHAR) or None",
           "the erasure position one early, off the '?', so ReceivedWord refuses every erasure"),
    Mutant("src/ordel/core.py", "if n < MIN_LENGTH:", "if n <= MIN_LENGTH:",
           "every length check refuses n = 3, the shortest word"),
    Mutant("src/ordel/core.py", "if erasures > 1 or pos != ", "if pos != ",
           "a second '?' after the one at erasure_pos passes: two erasures in one received word"),
    Mutant("src/ordel/core.py", "if ch not in alphabet:", "if False:",
           "a character outside the symbol table raises KeyError: a CLI traceback, no error line"),
    Mutant("src/ordel/core.py", '_read(text, "01", "word")', '_read(text, _SYMBOLS, "word")',
           "a '?' in a word passes the character check, and Word refuses it with another message"),
    Mutant("src/ordel/decoder.py", "np.where(k <= e, k, 0)", "np.where(k < e, k, 0)",
           "the batched scan refuses an insertion at k = e, where the bit sits before the erasure"),
    Mutant("src/ordel/decoder.py", "(32, 16, 8, 4, 2, 1)", "(32, 16, 8, 4, 2)",
           "the in-word select stops a bit short: a sync bit at an odd in-word index lands one early"),
    Mutant("src/ordel/decoder.py", "if top >= 2**63:", "if top > 2**63:",
           "a largest weighted sum of exactly 2^63 passes the guard and overflows int64"),
    Mutant("src/ordel/decoder.py", "first_weight + 64 * s)", "first_weight)",
           "row_sums weighs each later chunk of columns as if it began the row"),
    Mutant("src/ordel/decoder.py", "(status < 1) | (decoded != words)", "(decoded != words)",
           "a row the kernel fails, but whose stale word matches, counts as a round trip"),
    Mutant("src/ordel/decoder.py", "i = bad[0]", "i = bad[-1]",
           "a batch with two failing rows reports the later one"),
    Mutant("src/ordel/decoder.py", "z if status[i] > 0 else", "z if status[i] >= 0 else",
           "a row with no synchronization shows the kernel's unspecified word, not the reason"),
    Mutant("src/ordel/montecarlo.py", "ok = u < start[key + 1] - start[key]",
           "ok = u <= start[key + 1] - start[key]",
           "the sampler keeps u equal to the bucket size, one entry past the bucket"),
    Mutant("src/ordel/montecarlo.py", "b += b >= a", "b += b > a",
           "b may equal a: a pair with d = e + 1, and some patterns drawn once, not twice"),
    Mutant("src/ordel/montecarlo.py", "return np.minimum(a, b) + 1, np.maximum(a, b)",
           "return np.minimum(a, b), np.maximum(a, b)",
           "the drawn deletion lands one position early, at d = 0 for pairs holding 0"),
    Mutant("src/ordel/vt_code.py", "moved = counts[[2, 0, 1]]", "moved = counts[[1, 2, 0]]",
           "setting a bit moves a word from class a1 to a1 - 1: the a1 rows of the table swap"),
    Mutant("src/ordel/vt_code.py", "3 * m <= 1 << 16", "3 * m <= 1 << 17",
           "keys up to 3m - 1 sorted as uint16 past 2^16 wrap, so buckets get the wrong subsets"),
    Mutant("src/ordel/vt_code.py", "if n > ENUM_CAP:", "if n >= ENUM_CAP:",
           "listing refuses n = 28, the cap itself"),
    Mutant("src/ordel/vt_code.py", "if n > COUNT_LIMIT:", "if n >= COUNT_LIMIT:",
           "the exact counts refuse n = 1024, the count limit itself"),
]


def pytest_status(tree: Path, *args: str) -> int | None:
    """Tier-1's exit status in ``tree``, with ``-x`` and ``args``; None past ``TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant | None) -> str:
    """Killed, survived, stale or timed out: the verdict on one mutant, or on none."""
    if mutant is not None and (ROOT / mutant.file).read_text().count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in COPIED:
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if mutant is None:
            status = pytest_status(tree)
        else:
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            own = f"tests/test_{path.stem}.py"
            status = pytest_status(tree, own)
            if status == 0:
                status = pytest_status(tree, f"--ignore={own}")
    return "timed out" if status is None else "survived" if status == 0 else "killed"


def main() -> int:
    start = time.perf_counter()
    if (verdict := run(None)) != "survived":
        print(f"- the unmutated suite did not pass ({verdict}): no mutant is judged")
        return 1
    print(f"- unmutated suite passes, {time.perf_counter() - start:.1f} s")
    tally: dict[str, int] = {}
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        tally[verdict] = tally.get(verdict, 0) + 1
        print(f"- {verdict}, {time.perf_counter() - start:.1f} s: {mutant.file} "
              f"`{mutant.old.strip()}` -> `{mutant.new.strip()}` ({mutant.why})", flush=True)
    print(f"- {len(MUTANTS)} mutants: " + ", ".join(f"{v} {k}" for k, v in sorted(tally.items())))
    return int(bool(tally.get("survived") or tally.get("stale")))


if __name__ == "__main__":
    sys.exit(main())
