"""Every public top-level function and class in ``src/repro`` has a caller.

A name that only ``tests/`` reference is code no program path runs: it
costs reading, review and upkeep and shows nothing.  This test parses the
package and fails on any public top-level ``def`` or ``class`` that is
referenced nowhere a program could reach it.

A reference is a ``Name``, an ``Attribute`` or an ``ImportFrom`` alias
spelling the name.  It counts when it sits

* in any non-``__init__`` file under ``src/``, ``bench/``,
  ``benchmarks/`` or ``examples/`` other than the defining module,
* in the defining module, outside the name's own definition, or
* anywhere in ``.github/workflows/ci.yml`` (as a whole word).

Re-exports in ``__init__.py`` files do not count: they make a name
importable, not used.  Names kept on purpose without a caller go in
:data:`KEEP` with the reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"

KEEP: Dict[str, str] = {
    "HighLevelMonitor": (
        "PAPI's high-level interface to the preset output; DESIGN.md's "
        "PAPI row and docs/substrate.md name it"
    ),
    "score_column": (
        "scalar reference that test_score_columns_vectorizes compares "
        "score_columns against"
    ),
    "quantized": (
        "only constructor of the 'quantized' NoiseModel kind, whose "
        "repr feeds every event-set digest and cache key"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node: ast.AST) -> Counter:
    """Count the names ``node`` references as Name, Attribute or import."""
    names = []
    stack = [node]
    while stack:  # ast.walk, inlined: its generators cost a third of the run
        sub = stack.pop()
        kind = type(sub)
        if kind is ast.Name:
            names.append(sub.id)
        elif kind is ast.Attribute:
            names.append(sub.attr)
        elif kind is ast.ImportFrom:
            names.extend(alias.name for alias in sub.names)
        for field in sub._fields:
            value = getattr(sub, field, None)
            if isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append(value)
    return Counter(names)


@lru_cache(maxsize=None)
def dead_names() -> Tuple[Tuple[str, str], ...]:
    """``(module path, name)`` of every unreferenced public definition."""
    callers: Counter = Counter()  # references in non-__init__ files
    modules = []
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            per_stmt = [(stmt, _referenced(stmt)) for stmt in tree.body]
            in_file: Counter = Counter()
            for _, refs in per_stmt:
                in_file.update(refs)
            counted = path.name != "__init__.py"
            if counted:
                callers.update(in_file)
            if PACKAGE in path.parents:
                modules.append((path, per_stmt, in_file, counted))
    ci_text = CI_FILE.read_text() if CI_FILE.exists() else ""

    dead = []
    for path, per_stmt, in_file, counted in modules:
        for stmt, own in per_stmt:
            if not isinstance(stmt, _DEFS) or stmt.name.startswith("_"):
                continue
            name = stmt.name
            elsewhere = callers[name] - (in_file[name] if counted else 0)
            if elsewhere or in_file[name] > own[name]:
                continue
            if re.search(rf"\b{re.escape(name)}\b", ci_text):
                continue
            dead.append((str(path.relative_to(ROOT)), name))
    return tuple(dead)


def test_every_public_name_has_a_caller():
    dead = [(path, name) for path, name in dead_names() if name not in KEEP]
    assert not dead, (
        "public names with no caller outside tests/ (delete them, or add "
        "them to KEEP with a reason):\n"
        + "\n".join(f"  {path}: {name}" for path, name in dead)
    )


def test_keep_entries_are_still_defined_and_unreferenced():
    # A KEEP entry that gained a caller, or whose name is gone, is stale.
    assert sorted(name for _, name in dead_names() if name in KEEP) == sorted(KEEP)
