"""The limits matrix: every command at each limit the code states ends in one of three ways.

Each row runs ``ordel`` in a fresh process, with one OpenBLAS thread and its address space
capped at 1 GiB (``RLIMIT_AS``, set in the child alone), so a table past memory fails there
and not on the host.  The run must exit 0 with nothing on stderr, or exit with one
``error:`` line and nothing on stdout, never a traceback.  A row's pattern is matched
against the whole of stderr.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ordel

ADDRESS_SPACE = 1 << 30
TRIAL = ["--trials", "1", "--seed", "1"]
FIXED = ["--a1", "0", "--a2", "0"]
REFUSED_ENUM = r"error: exhaustive enumeration of 2\^29 words exceeds the cap n <= 28\n"
COUNTS_PAST = r"error: exact counts at n = 1025 exceed the count limit n <= 1024\n"

LIMITS = [  # argv, the limit named, exit status, stderr pattern
    pytest.param(["simulate", "--n", str(2**31 - 64), *TRIAL],
                 "memory: corrupt_batch's three prefix masks of a 2^25-word row, past 1 GiB", 1,
                 r"error: Unable to allocate 768\. MiB .*\n", id="simulate-memory"),
    pytest.param(["simulate", "--n", str(2**31 - 63), *TRIAL],
                 "getrandbits: n <= 2^31 - 64", 1,
                 r"error: n = 2147483585 is past n <= 2\^31 - 64, .*\n", id="simulate-getrandbits"),
    pytest.param(["simulate", "--n", str(2**22 - 1), *TRIAL, *FIXED],
                 "completion table: n < 2^22", 0, "", id="simulate-fixed-at-table"),
    pytest.param(["simulate", "--n", str(2**22), *TRIAL, *FIXED],
                 "completion table: n < 2^22", 1,
                 r"error: n = 4194304 is past n < 2\^22, .*\n", id="simulate-fixed-past-table"),
    pytest.param(["runs", "--n", "1024"], "COUNT_LIMIT", 0, "", id="runs-at-count"),
    pytest.param(["runs", "--n", "1025"], "COUNT_LIMIT", 1, COUNTS_PAST, id="runs-past-count"),
    pytest.param(["verify", "--n", "25"], "ROW_CAP", 1,
                 r"error: the sweeps need 2\^27\.1 corrupted rows .*above the row cap 134217728\n",
                 id="verify-past-rows"),
    pytest.param(["verify", "--n", "1025"], "COUNT_LIMIT", 1, COUNTS_PAST, id="verify-past-count"),
    pytest.param(["codebook", "--best", "--n", "28"], "ENUM_CAP", 0, "", id="codebook-at-cap"),
    pytest.param(["codebook", "--best", "--n", "29"], "ENUM_CAP", 1, REFUSED_ENUM,
                 id="codebook-best-past-cap"),
    pytest.param(["codebook", "--n", "29", *FIXED], "ENUM_CAP", 1, REFUSED_ENUM,
                 id="codebook-past-cap"),
    pytest.param(["bounds", "--n-list", str(10**399)], "the float range", 0, "",
                 id="bounds-400-digits"),
    pytest.param(["decode", "--received", "0" * (10**5 - 1), "--n", str(10**5), *FIXED],
                 "none: the scalar decode sums in Python ints", 0, "", id="decode-n100000"),
]


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv, limit, status, pattern", LIMITS)
def test_limit_ends_cleanly(tmp_path, argv, limit, status, pattern):
    env = {**os.environ, "PYTHONPATH": str(Path(ordel.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    with open(tmp_path / "stdout", "wb") as out:  # a file: n = 28's listing is 89 MB
        result = subprocess.run([sys.executable, "-m", "ordel.cli", *argv], stdout=out,
                                stderr=subprocess.PIPE, text=True, env=env,
                                preexec_fn=cap_address_space)
    err = result.stderr
    assert result.returncode == status, (limit, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (limit, err)
    assert re.fullmatch(pattern, err), (limit, err)
    assert status == 0 or (tmp_path / "stdout").stat().st_size == 0, limit
