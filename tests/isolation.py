"""Run each counting test alone, in a fresh interpreter.

Usage: PYTHONPATH=src python tests/isolation.py [PYTEST_ARGS...]

A test that counts FFT passes or calls (through helpers.count_fft_passes or
helpers.count_calls, directly or through a helper function of its module, or
through its own monkeypatch after a cache's .cache_clear()) can pass in the
suite only because an earlier test warmed a per-process cache.  This script
lists those tests from the source of tests/test_*.py, collects their ids,
runs each id in its own `python -m pytest` process, one after the other, and
prints "pass" or "fail" with the id, then a summary.  It exits 1 if any test
fails alone.  It is not a pytest module: the Tier-1 run does not collect it.
Extra arguments go to every pytest process.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

COUNTERS = {"count_fft_passes", "count_calls"}
TESTS = Path(__file__).resolve().parent


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _clears_and_patches(node: ast.AST) -> bool:
    """Whether the function calls a .cache_clear() and takes the monkeypatch fixture."""
    return "monkeypatch" in _names(node) and any(
        isinstance(n, ast.Attribute) and n.attr == "cache_clear" for n in ast.walk(node))


def counting_tests(path: Path) -> list[str]:
    """Names of the module's test functions that reach a counter, directly or
    through the module's own functions, or that clear a cache and patch."""
    nodes = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)]
    functions = {node.name: _names(node) for node in nodes}
    counting = {node.name for node in nodes
                if functions[node.name] & COUNTERS or _clears_and_patches(node)}
    while more := {name for name, used in functions.items() if used & counting} - counting:
        counting |= more
    return sorted(name for name in counting if name.startswith("test_"))


def collected_ids(targets: list[str], extra: list[str]) -> list[str]:
    """The ids pytest collects for `file::function` targets, parameter sets expanded."""
    out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *extra, *targets],
                         cwd=TESTS.parent, capture_output=True, text=True, check=False)
    return [line for line in out.stdout.splitlines() if "::" in line]


def main(extra: list[str]) -> int:
    targets = [f"tests/{path.name}::{name}" for path in sorted(TESTS.glob("test_*.py"))
               for name in counting_tests(path)]
    ids = collected_ids(targets, extra)
    failed = 0
    for test_id in ids:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              *extra, test_id],
                             cwd=TESTS.parent, capture_output=True, text=True, check=False)
        failed += run.returncode != 0
        print(f"{'pass' if run.returncode == 0 else 'fail'} {test_id}", flush=True)
    print(f"{len(ids) - failed} of {len(ids)} counting tests pass alone")
    return 1 if failed or not ids else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
