"""The library holds no code that only the tests call: every public top-level
function or class of a `fbsde_filter` module is used by library code outside its
own definition, or exported from the package."""

import ast
from collections import Counter
from pathlib import Path

import fbsde_filter

PACKAGE = Path(fbsde_filter.__file__).parent


def _references(node: ast.AST) -> Counter:
    """How often each name is read, read as an attribute, or imported from a
    sibling module under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_public_definition_is_used_by_the_library_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    library = sum(map(_references, trees.values()), Counter())
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and library[node.name] == _references(node)[node.name]]
    assert unused == []
