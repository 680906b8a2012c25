"""Line map: which lines of ``src/ordel`` no Tier-1 test runs.

A line tracer, filtered to ``src/ordel``, is installed with ``sys.settrace`` (and
``threading.settrace``, for any thread started later) before ``pytest.main`` runs Tier-1 in
this process, with acceptance criterion 8 deselected: every line it runs, the rest of the
suite runs too (checked when this map was written).  A file's executable lines are the line numbers in its code objects' ``co_lines``;
each one that no trace event reached is printed as a Markdown list item, ``- file:line:
text``.  The lines that only ``python -m ordel.cli`` runs, in the limits matrix's child
processes, are ``cli.main``'s body and the ``__main__`` guard's; they are printed too,
marked as child-process lines.

Run from anywhere, ``python tests/coverage.py``; further arguments go to pytest.  Traced,
Tier-1 takes about twice its untraced time.  The exit status is pytest's if that is not 0,
else 1 if a line that is not a child-process line went unexecuted.  The file is not
``test_*``, so Tier-1 does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ordel"
CRITERION_8 = "tests/test_acceptance.py::test_08_monte_carlo_at_scale"
CHILD = "child process only: `python -m ordel.cli`, as the limits matrix runs it"


def executable(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` hold instructions for."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def child_only(path: Path) -> set[int]:
    """The lines of ``cli.main``'s body and of the ``if __name__ == "__main__":`` body."""
    lines = set()
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.FunctionDef) and node.name == "main"
                or isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)):
            for statement in node.body:
                lines.update(range(statement.lineno, statement.end_lineno + 1))
    return lines


def traced_tier1(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Tier-1's exit status under the tracer, and the lines it ran in each ``src/ordel`` file."""
    hits: dict[Path, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its file's hit lines, None outside

    def tracer(frame, event, arg):  # the global trace function: one call event per new frame
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve() if not name.startswith("<") else None
            files[name] = hits.setdefault(path, set()) if path and path.parent == SRC else None
        lines = files[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported untraced; it imports no ordel module

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", CRITERION_8, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = traced_tier1(sys.argv[1:])
    unexplained = 0
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(executable(path) - hits.get(path, set()))
        child, text = child_only(path), path.read_text().splitlines()
        for line in missed:
            note = f"  ({CHILD})" if line in child else ""
            unexplained += not note
            print(f"- {path.relative_to(ROOT)}:{line}: `{text[line - 1].strip()}`{note}")
    print(f"- line map: {unexplained} unexecuted src/ordel lines, besides child-process lines "
          f"(pytest exit status {status})")
    return status or int(unexplained > 0)


if __name__ == "__main__":
    sys.exit(main())
