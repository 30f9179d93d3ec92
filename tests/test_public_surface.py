"""Every public name of ``spopo`` has a caller outside the tests.

A public name is a top-level ``def`` or ``class`` of a module of ``src/spopo`` whose name
does not start with ``_``, or a method of such a class whose name does not (so no dunder).
It counts as used when its identifier appears in ``src/spopo`` or ``perfbench/`` outside its
own definition: as a name, an attribute, an imported name or alias, or a whole string
constant (the benchmark wraps functions by name).  API that only tests reach belongs in the
tests.

Blind spot: names are matched by identifier, not by binding, so a name that shares its
identifier with another counts as used through the other: a public ``identity`` is matched
by ``sparse.identity``, a method ``value`` by any other ``value``.  Such names are found only
by reading.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spopo"


def identifiers(tree: ast.AST) -> Counter:
    """How often each identifier appears in ``tree`` as a name, an attribute, an imported
    name or alias, or a whole string constant."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def public_definitions(path: Path):
    """(``module.name`` or ``module.Class.method``, definition node) of each public name."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    uses = sum((identifiers(ast.parse(p.read_text())) for p in sources), Counter())
    public = dict(item for p in sorted(SRC.glob("*.py")) for item in public_definitions(p))
    assert "supermode.build_supermodes" in public and "hilbert.LinearOperator.norm" in public
    unused = [name for name, node in public.items()
              if uses[node.name] == identifiers(node)[node.name]]
    assert not unused, f"public names that only tests reach: {', '.join(unused)}"
