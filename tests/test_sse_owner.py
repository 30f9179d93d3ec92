"""The SSE's basis and noise layout have one owner, ``dynamics``: no other module of
``src/spopo`` names ``SSE_CHUNK_STEPS`` or an ``_sse_`` function.

A second module that sizes or builds the SSE stack is a second place to edit when the stack
changes.  This walks the AST of each module but ``dynamics.py`` and fails on any name,
attribute or import of either.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spopo"


def sse_layout_names(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that name ``SSE_CHUNK_STEPS`` or an ``_sse_`` function, as a
    name, an attribute or an imported name."""
    lines = []
    for node in ast.walk(tree):
        names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        if any(name and (name == "SSE_CHUNK_STEPS" or name.startswith("_sse_"))
               for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_finds_each_form():
    tree = ast.parse("dynamics.SSE_CHUNK_STEPS\nfrom .dynamics import _sse_weights\n"
                     "_sse_stack(m, dt)\ndynamics.sse_floats(m, t, dt, n)\n"
                     "SSE_NORM_DRIFT_MAX\n_noise_streams(s)\n")
    assert sse_layout_names(tree) == [1, 2, 3]


def test_only_dynamics_names_the_sse_layout():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "dynamics.py"
             for line in sse_layout_names(ast.parse(path.read_text()))]
    assert not found, f"the SSE layout named outside dynamics: {', '.join(found)}"
