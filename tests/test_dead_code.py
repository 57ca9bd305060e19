"""Dead-code guard: every function and class of the package is used by it.

A definition counts as used when the package names it somewhere outside
its own body: as a name, as an attribute, or as a string in ``__all__``.
Special methods are called by the language, and a definition registered by
a decorator call (a click command) is used by its decorator.  The few
definitions that only the tests use, as references for the program's
results or as the inverse of an input format, are listed in
``TEST_REFERENCES``.
"""

import ast
import os
from collections import Counter

import triplepoint

PACKAGE = os.path.dirname(os.path.abspath(triplepoint.__file__))

TEST_REFERENCES = {
    "IdealHandle.equals",
    "spair_audit",
    "Ring.from_terms",
    "DualGraph.to_json",
    "DualGraph.edge_indices",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name, attribute and ``__all__`` string in ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            out.update(ast.literal_eval(sub.value))
    return out


def _definitions(tree):
    """(qualified name, node) of every definition, nested ones included."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from walk(child, f"{name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _trees():
    trees = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                trees[fname] = ast.parse(fh.read())
    return trees


def _unused():
    trees = _trees()
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    unused = []
    for fname, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            if used[name] - _names(node)[name] > 0 or qualname in TEST_REFERENCES:
                continue
            unused.append(f"{fname}: {qualname}")
    return unused


def test_every_definition_is_used_by_the_package():
    assert _unused() == []


def test_test_references_exist():
    defined = {q for tree in _trees().values() for q, _ in _definitions(tree)}
    assert TEST_REFERENCES <= defined
