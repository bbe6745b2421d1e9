"""Leftovers in the package source: unused imports, unused functions and
result caches that flagtutte.clear_caches() would miss.

The checks read src/flagtutte/*.py with the standard library's ast, so
they see the source as written, not the imported modules; only the cache
check imports the package, to compare the caches it finds with the
registry of flagtutte.caches.  A deletion that leaves an import or a helper
behind fails here, and so does a new memo left out of the registry.
"""

import ast
import importlib
from pathlib import Path

import pytest

import flagtutte
from flagtutte import caches

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


def _unreferenced(pick):
    """module:name of each module-level definition that pick selects and
    no module of the package references."""
    return ["%s:%s" % (name, node.name)
            for name, tree in TREES.items() for node in tree.body
            if pick(node) and not any(node.name in _references(other, node)
                                      for other in TREES.values())]


def test_every_private_function_and_class_is_referenced():
    assert _unreferenced(
        lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")) == []


def test_every_function_outside_all_is_referenced():
    assert _unreferenced(
        lambda node: isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in flagtutte.__all__) == []


def _callee(node):
    """The name a decorator or a called expression ends in."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _module_caches():
    """(module, name) of every module-level functools memo and LRUCache."""
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(
                    _callee(d) in ("cache", "lru_cache")
                    for d in node.decorator_list):
                yield name[:-3], node.name
            elif (isinstance(node, ast.Assign)
                  and _callee(node.value) == "LRUCache"):
                yield from ((name[:-3], t.id) for t in node.targets)


def test_every_result_cache_is_registered():
    # the registry behind cache_stats() and clear_caches(); genfun's
    # _member_cache stays empty and only the benchmark worker reads it
    registered = {id(c) for c in caches._LRU_CACHES.values()}
    registered |= {id(fn) for fn in caches._MEMOS.values()}
    found = list(_module_caches())
    assert {("cones", "_triangulate_cells"), ("invariants", "_CELLS_CACHE"),
            ("genfun", "_prime_tables")} <= set(found)
    missing = ["%s.%s" % (module, name) for module, name in found
               if (module, name) != ("genfun", "_member_cache")
               and id(getattr(importlib.import_module(
                   "flagtutte." + module), name)) not in registered]
    assert missing == []
