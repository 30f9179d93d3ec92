"""Every norm in ``spopo`` is ``hilbert._norm``, numpy's own sums: no ``linalg.norm`` call.

BLAS's ``nrm2`` behind ``np.linalg.norm`` can round differently with the thread count and the
build, and a second norm is a second overflow rule.  This walks the AST of ``src/spopo`` and
fails on any call of an attribute ``norm`` of a ``linalg``, and on ``norm`` imported from one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spopo"


def linalg_norms(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that call ``<...>.linalg.norm`` or import ``norm`` from a
    ``linalg`` module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if node.func.attr == "norm" and name == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            lines += [node.lineno for alias in node.names if alias.name == "norm"]
    return sorted(lines)


def test_the_guard_finds_each_form():
    tree = ast.parse("np.linalg.norm(v)\nlinalg.norm(v)\nfrom scipy.sparse.linalg import norm\n"
                     "v.norm()\n_norm(v)\nnp.linalg.eigvalsh(a)\n")
    assert linalg_norms(tree) == [1, 2, 3]


def test_no_linalg_norm_in_src():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in linalg_norms(ast.parse(path.read_text()))]
    assert not found, f"linalg.norm in src/spopo: {', '.join(found)}"
