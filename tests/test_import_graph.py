"""The import graph of ``src/repro``: every module is used, none is cyclic.

``src/repro`` holds only the product. Every module in it must be reached
from an entry point (the CLI, an experiment, an example or a benchmark
script), and its module-level imports must form a DAG, so that importing
any module first never meets a partially initialised one. Test-only
oracles live under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _is_type_checking(test):
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _imports(path, package):
    """``(module, [(name, asname)], at_module_level)`` for each runtime import.

    Relative imports are resolved against *package*; imports guarded by
    ``TYPE_CHECKING`` never run and are left out.
    """
    def visit(nodes, top):
        for node in nodes:
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                yield from visit(node.orelse, top)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, [], top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")[:package.count(".") + 2 - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                yield base, [(a.name, a.asname or a.name) for a in node.names], top
            else:
                nested = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                yield from visit(ast.iter_child_nodes(node), top and not nested)

    return list(visit(ast.parse(path.read_text()).body, True))


IMPORTS = {
    name: _imports(path, name if name in PACKAGES else name.rpartition(".")[0])
    for name, path in MODULES.items()
}


def _defining_module(module, name):
    """The module that defines what ``from module import name`` binds."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    for base, names, _ in IMPORTS[module] if module in PACKAGES else []:
        for original, bound in names:
            if bound == name:
                return _defining_module(base, original)
    return module


def _uses(name, imports):
    """Modules whose code *name* uses; a package's re-exports of its own
    submodules are not a use."""
    for base, names, _ in imports:
        targets = [_defining_module(base, n) for n, _ in names] if names else [base]
        for target in targets:
            if target in MODULES and not (name in PACKAGES and target.startswith(name + ".")):
                yield target


def _ancestors(module):
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def _executes(name):
    """Modules a module-level import in *name* runs, beyond its own packages."""
    for base, names, top in IMPORTS[name]:
        if not top:
            continue
        targets = {base} | _ancestors(base) | {f"{base}.{n}" for n, _ in names}
        yield from sorted(t for t in targets
                          if t in MODULES and t != name and t not in _ancestors(name))


def test_every_module_is_reachable_from_an_entry_point():
    scripts = [*sorted((ROOT / "examples").glob("*.py")),
               *sorted((ROOT / "benchmarks").rglob("*.py"))]
    frontier = [t for path in scripts for t in _uses(path.name, _imports(path, ""))]
    frontier += [m for m in MODULES if m == "repro.__main__"
                 or m.startswith("repro.core.experiments")]
    reached = set()
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached |= {module} | _ancestors(module)
            frontier.extend(_uses(module, IMPORTS[module]))
    unreachable = sorted(set(MODULES) - reached)
    assert not unreachable, f"modules no entry point uses: {unreachable}"


def test_module_level_imports_are_acyclic():
    edges = {name: set(_executes(name)) for name in MODULES}
    reach = {}
    for start in MODULES:
        seen, frontier = set(), list(edges[start])
        while frontier:
            module = frontier.pop()
            if module not in seen:
                seen.add(module)
                frontier.extend(edges[module])
        reach[start] = seen
    cycles = {tuple(sorted(m for m in reach[start] if start in reach[m]))
              for start in MODULES if start in reach[start]}
    assert not cycles, f"import cycles: {sorted(cycles)}"
