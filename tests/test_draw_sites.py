"""Per-operation random draws go through ``repro.sim.rng``.

A scalar ``Generator`` call costs about as much as a hundred values of a
block draw, so every per-operation draw in ``src/repro`` is served by
``BlockDraws`` (DESIGN.md §15.3). This AST scan fails on any call of a
``numpy.random.Generator`` draw method outside ``repro.sim.rng``, except
at the sites listed in ``ALLOWED``. The scan goes by method name, which
is why ``BlockDraws`` names its methods differently.
"""

import ast
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

DRAWS = frozenset(
    name for name in dir(np.random.Generator)
    if not name.startswith("_") and name not in ("bit_generator", "spawn"))

#: (module, enclosing function) -> draw methods it may call directly.
ALLOWED = {
    # Setup, not per operation: one vector draw of every churn overwrite.
    ("repro.conv.ftl", "PageMappedFtl.precondition"): {"integers"},
    # Setup, not per operation: one vector draw per aging epoch.
    ("repro.device.core", "DeviceCore.age"): {"integers"},
    # Mixes exponential think times and integer picks on one stream,
    # which one block kind cannot serve.
    ("repro.apps.lsm", "LsmWorkload._reader"): {"exponential", "integers"},
}


def _draw_sites():
    """``(module, enclosing function, method, line)`` per draw call."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module == "repro.sim.rng":
            continue

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                elif (isinstance(child, ast.Call)
                      and isinstance(child.func, ast.Attribute)
                      and child.func.attr in DRAWS):
                    yield module, scope, child.func.attr, child.lineno
                yield from visit(child, inner)

        yield from visit(ast.parse(path.read_text()), "")


def test_no_scalar_draw_outside_rng():
    stray = [site for site in _draw_sites()
             if site[2] not in ALLOWED.get(site[:2], ())]
    assert not stray, (
        f"Generator draws outside repro.sim.rng (serve them with "
        f"BlockDraws or list them in ALLOWED): {stray}")


def test_allowlist_is_not_stale():
    found = {(module, scope, method) for module, scope, method, _ in _draw_sites()}
    listed = {(module, scope, method)
              for (module, scope), methods in ALLOWED.items()
              for method in methods}
    assert listed <= found, f"allowed sites that no longer draw: {listed - found}"
