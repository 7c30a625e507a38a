"""Source hygiene guards over the syntax trees of ``src/repro`` and
``tests``.

Nothing is imported; each guard scans the parsed sources.

* Golden references stay in ``tests/oracles``, out of the package.
  ``code_version()`` hashes every source file under ``src/repro``, so a
  reference implementation kept there would invalidate every cached
  result whenever it is edited, and would ship code that only tests
  call.  The scan fails on any function or method named ``*_scalar``
  except the router's portable maze search.
* No module-level import goes unused, in ``src/repro`` or in
  ``tests``.  Package ``__init__.py`` files (which import to
  re-export), names listed in a module's ``__all__`` and ``from
  __future__`` imports are exempt.  In ``tests``, a name that a test
  takes as a parameter counts as used: pytest resolves an imported
  fixture by that name.
* The import graph keeps its layers: ``repro/_kernel.py``, the compiled
  kernel's loader, imports no ``repro`` module, and nothing under
  ``repro/circuit`` or ``repro/partition`` imports from
  ``repro.interposer``, at module level or inside a function.  Nothing
  under ``repro/core`` imports ``repro.serve``, and its one
  ``repro.dse`` import is the pool workers' warm-up
  (``core/pool.py::_warm_import``): the flow reaches the result store
  in ``repro.core``, not through the service.  Nothing under
  ``repro/serve`` imports ``SweepSpec`` or ``Axis``: the service runs
  requests, and building sweeps is the client's business.
* No module under ``src/repro`` is reachable only from tests.  Imports
  are followed, inside functions too, from ``repro/__main__.py`` and
  every ``.py`` under ``benchmarks``, ``examples`` and ``perfbench``; a
  name imported from a package counts for the module that defines it,
  and a package ``__init__.py``'s own re-exports are not followed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

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


def _unused_imports(root, params_count=False):
    """(file, name) of every unused module-level import under ``root``;
    with ``params_count``, function parameter names count as uses."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, exported = [], set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0]
                             for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if params_count:
            used |= {a.arg for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                     for a in (n.args.posonlyargs + n.args.args
                               + n.args.kwonlyargs)}
        rel = path.relative_to(ROOT).as_posix()
        found += [(rel, name) for name in imported
                  if name not in used and name not in exported]
    return found


def test_no_unused_module_imports():
    unused = [f"{rel}: {name}" for rel, name in
              _unused_imports(SRC) + _unused_imports(TESTS, True)]
    assert not unused, "unused imports: " + ", ".join(unused)


def _imports(path):
    """(line, dotted name, scope) of every name a source file imports,
    at module level or inside a function; relative imports are resolved
    against the file's package, ``from m import n`` gives ``m.n``, and
    the scope is the qualified name of the enclosing function or class
    (``""`` at module level)."""
    base = SRC.parent if path.is_relative_to(SRC) else ROOT
    package = path.relative_to(base).parent.parts
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name, scope)
                             for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package[:len(package) - child.level + 1] \
                    if child.level else ()
                module = ".".join(base + ((child.module,) if child.module
                                          else ()))
                found.extend((child.lineno, f"{module}.{a.name}", scope)
                             for a in child.names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def _within(name, package):
    return name == package or name.startswith(package + ".")


def test_kernel_loader_imports_no_repro_module():
    bad = [f"_kernel.py:{line}: {name}"
           for line, name, _scope in _imports(SRC / "_kernel.py")
           if _within(name, "repro")]
    assert not bad, "the kernel loader must stay a leaf: " + ", ".join(bad)


def test_circuit_and_partition_do_not_import_the_interposer():
    bad = []
    for package in ("circuit", "partition"):
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC.parent).as_posix()
            bad += [f"{rel}:{line}: {name}"
                    for line, name, _scope in _imports(path)
                    if _within(name, "repro.interposer")]
    assert not bad, "imports from repro.interposer: " + ", ".join(bad)


#: The one ``repro.dse`` import allowed under ``repro/core``: the pool
#: initializer that pre-imports the evaluators in its workers.
CORE_DSE_IMPORT = ("repro/core/pool.py", "_warm_import")


def test_core_imports_neither_the_service_nor_the_sweeps():
    bad = []
    for path in sorted((SRC / "core").rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        bad += [f"{rel}:{line}: {name}"
                for line, name, scope in _imports(path)
                if _within(name, "repro.serve")
                or (_within(name, "repro.dse")
                    and (rel, scope) != CORE_DSE_IMPORT)]
    assert not bad, ("repro.core must stay below repro.dse and "
                     "repro.serve: " + ", ".join(bad))


#: Sweep-building names the service must not import.
SWEEP_NAMES = ("SweepSpec", "Axis")


def test_the_service_builds_no_sweeps():
    bad = []
    for path in sorted((SRC / "serve").rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        bad += [f"{rel}:{line}: {name}"
                for line, name, _scope in _imports(path)
                if _within(name, "repro")
                and name.rpartition(".")[2] in SWEEP_NAMES]
    assert not bad, ("repro.serve runs requests; it must not build "
                     "sweeps: " + ", ".join(bad))


#: Where production starts, besides ``python -m repro``: the scripts
#: that regenerate the paper's results, the examples and the benchmark.
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")


def _module_path(name):
    """Source file of dotted module ``name`` under ``src``, or None."""
    stem = SRC.parent.joinpath(*name.split("."))
    for path in (stem.with_suffix(".py"), stem / "__init__.py"):
        if path.is_file():
            return path
    return None


def _defining_module(name):
    """The module that defines dotted ``name``: the module itself, or,
    for a name a package re-exports, the module it comes from; None
    outside ``repro``."""
    while _within(name, "repro"):
        if _module_path(name) is not None:
            return name
        module, _, attr = name.rpartition(".")
        path = _module_path(module)
        if path is None:
            return None
        reexports = {imported.rpartition(".")[2]: imported
                     for _line, imported, _scope in _imports(path)
                     if path.name == "__init__.py"}
        if attr not in reexports:
            return module
        name = reexports[attr]
    return None


def _reached_modules():
    """Every source file under ``src/repro`` that production imports."""
    todo = [SRC / "__main__.py"] + sorted(
        path for d in ENTRY_DIRS for path in (ROOT / d).rglob("*.py"))
    seen = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.name == "__init__.py" and path.is_relative_to(SRC):
            continue
        for _line, name, _scope in _imports(path):
            module = _defining_module(name)
            if module is None:
                continue
            parts = module.split(".")
            todo += [_module_path(".".join(parts[:i]))
                     for i in range(1, len(parts) + 1)]
    return seen


def test_no_module_is_reached_only_from_tests():
    reached = _reached_modules()
    orphans = [path.relative_to(SRC.parent).as_posix()
               for path in sorted(SRC.rglob("*.py")) if path not in reached]
    assert not orphans, ("modules no production entry point imports "
                         "(delete them with their tests): "
                         + ", ".join(orphans))
