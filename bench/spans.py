"""In-memory spans around the benchmark's calls into ordel.

A span is ``[name, start_ns, end_ns, parent, group]``.  ``parent`` is the
index of the enclosing span in the same list (-1 for a root) and ``group`` is
``[kind, round, index]``: the kind of work (``trip``, ``sweep``, ``cli``,
...), the traced round it ran in, and the trip number inside that round (0
for everything that is not a trip).  Spans of one trip or one sweep share a
group.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

FIELDS = ["name", "start_ns", "end_ns", "parent", "group"]


class Tracer:
    """Records one span per call made through it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.group: tuple = ("", 0, 0)
        self._open = [-1]

    def open(self, name: str) -> None:
        self.spans.append([name, perf_counter_ns(), 0, self._open[-1], self.group])
        self._open.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def call(self, name: str, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead comparison."""

    group: tuple = ("", 0, 0)

    def open(self, name: str) -> None:
        pass

    def close(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its direct children cover, in ns."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def totals(spans: list[list]) -> dict[tuple[str, int, str], list[int]]:
    """``(kind, round, name) -> [total ns, calls, total self ns]``."""
    out: dict[tuple[str, int, str], list[int]] = defaultdict(lambda: [0, 0, 0])
    for span, own in zip(spans, self_times(spans)):
        entry = out[(span[4][0], span[4][1], span[0])]
        entry[0] += span[2] - span[1]
        entry[1] += 1
        entry[2] += own
    return out


def self_summary(spans: list[list]) -> dict[str, dict[str, int]]:
    """Calls, total ns and self ns for each ``kind/name``, summed over rounds."""
    out: dict[str, dict[str, int]] = {}
    for (kind, _, name), (total, calls, own) in totals(spans).items():
        entry = out.setdefault(f"{kind}/{name}", {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += calls
        entry["total_ns"] += total
        entry["self_ns"] += own
    return out


def durations(spans: list[list], kind: str, name: str) -> list[int]:
    """Durations in ns of every span with this name and group kind."""
    return [s[2] - s[1] for s in spans if s[0] == name and s[4][0] == kind]


def write(path, header: dict, spans: list[list]) -> None:
    """One JSON object: the header, the self-time summary, the span field names and the spans."""
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {**header, "self_times": self_summary(spans), "fields": FIELDS, "spans": spans}
    with open(path, "w") as f:
        json.dump(record, f, separators=(",", ":"))
