"""Leftovers in the package source: unused imports and private functions.

Both checks read src/flagtutte/*.py with the standard library's ast, so
they see the source as written, not the imported modules.  A deletion that
leaves an import or a private helper behind fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtutte"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(SRC.glob("*.py"))}


def _references(tree, skip=None):
    """The names a tree loads, the attributes it reads and the names its
    `from` imports bring in, outside the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_every_module_level_import_is_used(name):
    tree = TREES[name]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    assert sorted(set(bound) - loaded) == [], name


def test_every_private_function_and_class_is_referenced():
    unused = []
    for name, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                if not any(node.name in _references(other, skip=node)
                           for other in TREES.values()):
                    unused.append("%s:%s" % (name, node.name))
    assert unused == []
