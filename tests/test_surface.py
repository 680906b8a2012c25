"""Each module's ``__all__`` resolves and holds what the CLI, the bench and the criteria take."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "ordel").glob("*.py") if p.stem != "__init__")
CALLERS = [ROOT / "src" / "ordel" / "cli.py", *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def taken(path: Path) -> set[tuple[str, str]]:
    """(module, name) for what ``path`` takes from ``ordel.<module>``.

    That is each ``from ordel.<module> import name`` (``from .<module>`` in the package), and
    each read ``<module>.name`` of a module imported or assigned by name, or
    ``<anything>.<module>.name``, as the bench reads ``o.channel.corrupt``.
    """
    names, bound, reads = set(), {}, []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = ["ordel"] * node.level + (node.module.split(".") if node.module else [])
            if parts == ["ordel"]:
                bound.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif parts[0] == "ordel":
                names |= {(parts[1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Assign):  # as ``vt, CodeParams = o.vt_code, o.core.CodeParams``
            pairs = zip(*(getattr(side, "elts", [side]) for side in (node.targets[0], node.value)))
            bound.update({target.id: value.attr for target, value in pairs
                          if isinstance(target, ast.Name) and getattr(value, "attr", None) in MODULES})
        elif isinstance(node, ast.Attribute):
            reads.append(node)
    for node in reads:
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in bound:
            names.add((bound[owner.id], node.attr))
        elif isinstance(owner, ast.Attribute) and owner.attr in MODULES:
            names.add((owner.attr, node.attr))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ordel.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_callers_take_only_exported_names():
    taken_by = {path.relative_to(ROOT).as_posix(): taken(path) for path in CALLERS}
    # each form of taking a name is seen: from ordel.<m>, from .<m>, <m>.name, o.<m>.name, vt.name
    assert ("cli", "run") in taken_by["tests/test_acceptance.py"]
    assert {("decoder", "decode"), ("oracle", "check_rows")} <= taken_by["src/ordel/cli.py"]
    bench = taken_by["bench/workloads.py"]
    assert {("montecarlo", "run_trials"), ("vt_code", "render_codebook")} <= bench
    undeclared = [
        f"{caller}: ordel.{module}.{name}"
        for caller, names in taken_by.items()
        for module, name in sorted(names)
        if name not in importlib.import_module(f"ordel.{module}").__all__
    ]
    assert undeclared == []
