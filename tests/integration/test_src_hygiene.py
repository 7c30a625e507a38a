"""Golden references stay in ``tests/oracles``, out of the package.

``code_version()`` hashes every source file under ``src/repro``, so a
reference implementation kept there would invalidate every cached
result whenever it is edited, and would ship code that only tests
call.  This guard scans the package's syntax trees (nothing is
imported) and fails on any function or method named ``*_scalar``
except the router's portable maze search.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one ``*_scalar`` definition production keeps: the scalar A* that
#: every maze search runs when no C compiler is available.
ALLOWED = {("repro/interposer/routing.py", "RoutingGrid.maze_route_scalar")}


def _scalar_definitions():
    """(file, qualified name) of every ``*_scalar`` function/method."""
    found = []

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if child.name.endswith("_scalar"):
                    found.append((rel, name))
                visit(child, rel, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, prefix + child.name + ".")
            else:
                visit(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), rel, "")
    return found


def test_scan_finds_the_portable_maze_search():
    assert ALLOWED <= set(_scalar_definitions())


def test_golden_references_live_in_tests_oracles():
    extra = [f"{rel}: {name}" for rel, name in _scalar_definitions()
             if (rel, name) not in ALLOWED]
    assert not extra, ("golden references belong in tests/oracles, not "
                       "src/: " + ", ".join(extra))
