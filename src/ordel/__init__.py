"""Binary codes correcting one deletion followed by at most one erasure.

The code with parameters (n, a1, a2) is the set of n-bit words whose bit sum
is a1 mod 3 and whose position-weighted sum is a2 mod (n+1).  Any member can
be recovered after one bit is deleted and a later bit erased, given only the
erasure position; the best parameter class costs under log2(3(n+1)) bits of
redundancy.
"""

from .analysis import (
    BoundsRow,
    RunStats,
    bounds_csv,
    bounds_table,
    redundancy_lower_bound,
    redundancy_upper_bound,
    run_count,
    run_stats,
    run_threshold,
)
from .channel import CorruptionPattern, all_patterns, corrupt, random_pattern
from .core import (
    CodeParams,
    ReceivedWord,
    Word,
    parse_received,
    parse_word,
)
from .decoder import (
    BitHypothesis,
    DecodeFailure,
    DecodeOutcome,
    Recovered,
    checksum_step,
    decode,
    discrepancy,
    hypothesis_checksum,
)
from .montecarlo import TrialReport, run_trials
from .oracle import (
    PreimageSet,
    VerificationReport,
    brute_force_decode,
    deletion_balls_disjoint,
    verify_code,
    verify_decoder,
)
from .vt_code import (
    Codebook,
    best_params,
    class_sizes,
    enumerate_codebook,
    is_member,
    redundancy,
    render_codebook,
)

__version__ = "0.1.0"

__all__ = [
    "BitHypothesis",
    "BoundsRow",
    "Codebook",
    "CodeParams",
    "CorruptionPattern",
    "DecodeFailure",
    "DecodeOutcome",
    "PreimageSet",
    "ReceivedWord",
    "Recovered",
    "RunStats",
    "TrialReport",
    "VerificationReport",
    "Word",
    "all_patterns",
    "best_params",
    "bounds_csv",
    "bounds_table",
    "brute_force_decode",
    "checksum_step",
    "class_sizes",
    "corrupt",
    "decode",
    "deletion_balls_disjoint",
    "discrepancy",
    "enumerate_codebook",
    "hypothesis_checksum",
    "is_member",
    "parse_received",
    "parse_word",
    "random_pattern",
    "redundancy",
    "redundancy_lower_bound",
    "redundancy_upper_bound",
    "render_codebook",
    "run_count",
    "run_stats",
    "run_threshold",
    "run_trials",
    "verify_code",
    "verify_decoder",
]
