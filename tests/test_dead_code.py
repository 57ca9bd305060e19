"""Dead-code guard: every definition of the package is used by the package.

Names are resolved by scope, as Python resolves them:

- a module-level function, class or assignment is used when the package
  loads a name that resolves to it, outside its own body: in its module,
  through an import of it (``from .m import f``), or as an attribute of its
  module (``m.f`` after ``from . import m``);
- a nested function is used when its enclosing function loads its name;
- a method is used when the package reads an attribute of that name, except
  on an imported module (``itertools.product`` uses no ``product`` method).

So a local variable of the same name, an attribute of an imported module
and a string in ``__all__`` use nothing, and neither does a use inside an
unused definition: code that only unused code reaches is unused too.
Module-level assignments are checked like functions.  Special names are
used by the language, and a definition registered by a decorator call (a
click command) is used by its decorator.  There is no allowlist: code that
only the tests use lives in ``tests/reference.py``.

A module-level import is used when code of its module loads the name it
binds, resolved by scope as above (``from __future__`` binds nothing).

State is checked too: every attribute that the package stores on ``self``
is read somewhere in the package, as an attribute of any object.
"""

import ast
import os

import triplepoint

PACKAGE = os.path.dirname(os.path.abspath(triplepoint.__file__))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _special(name):
    return name.startswith("__") and name.endswith("__")


def _arguments(args):
    extra = [a for a in (args.vararg, args.kwarg) if a]
    return args.posonlyargs + args.args + args.kwonlyargs + extra


def _outer(node):
    """The expressions of a definition or lambda that its enclosing scope
    evaluates: decorators, bases, defaults and annotations."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    args = node.args
    out = args.defaults + [d for d in args.kw_defaults if d]
    if not isinstance(node, ast.Lambda):
        out += node.decorator_list + [a.annotation for a in _arguments(args) if a.annotation]
        out += [node.returns] if node.returns else []
    return out


def _inner(node):
    """What runs in the scope that ``node`` opens."""
    if isinstance(node, ast.Lambda):
        return [node.body]
    if isinstance(node, _COMPS):
        return list(ast.iter_child_nodes(node))
    return node.body


def _own_nodes(nodes):
    """The nodes of one scope: nested definitions, lambdas and
    comprehensions are yielded with their outer expressions, not their
    insides."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_DEFS, ast.Lambda)):
            stack += _outer(node)
        elif not isinstance(node, _COMPS):
            stack += ast.iter_child_nodes(node)


def _bindings(node):
    """{name: import target or None} of the names the scope of ``node``
    binds.  An import target is ("module", m) or ("name", m, attr) for the
    package's own modules, and ("external",) for any other module."""
    bound = {}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound.update((a.arg, None) for a in _arguments(node.args))
    declared = set()
    for sub in _own_nodes(_inner(node)):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.setdefault(sub.id, None)
        elif isinstance(sub, _DEFS):
            bound[sub.name] = None
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound[sub.name] = None
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
        elif isinstance(sub, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], ("external",)) for a in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            for a in sub.names:
                if sub.level == 0:
                    target = ("external",)
                elif sub.module is None:
                    target = ("module", a.name)
                else:
                    target = ("name", sub.module, a.name)
                bound[a.asname or a.name] = target
    return {k: v for k, v in bound.items() if k not in declared}


class _Uses(ast.NodeVisitor):
    """Every use in one module, appended to ``uses`` as (definition key,
    module, qualified name of the innermost enclosing definition, "" at
    module level).  A key is (module, qualified name) for a module-level or
    nested definition, and ("attribute", name) for an attribute read, which
    may name any method."""

    def __init__(self, module, tree, uses):
        self.module, self.uses = module, uses
        self.scopes = [(tree, "", _bindings(tree))]
        self.owner = ""
        for stmt in tree.body:
            self.visit(stmt)

    def _use(self, key):
        self.uses.append((key, self.module, self.owner))

    def _import_use(self, scope, name):
        """A load of ``name``, bound by an import in ``scope``."""
        if isinstance(scope, ast.Module):
            self._use(("import", name))

    def _enter(self, node, qualname):
        outer = self.owner
        if isinstance(node, _DEFS):
            self.owner = qualname
        self.scopes.append((node, qualname, _bindings(node)))
        for child in _inner(node):
            self.visit(child)
        self.scopes.pop()
        self.owner = outer

    def _scope(self, node):
        for sub in _outer(node):
            self.visit(sub)
        prefix = self.scopes[-1][1]
        self._enter(node, f"{prefix}.{node.name}" if prefix else node.name)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def visit_Lambda(self, node):
        for sub in _outer(node):
            self.visit(sub)
        self._enter(node, None)

    def _comprehension(self, node):
        self._enter(node, None)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def _resolve(self, name):
        """(scope node, its qualified name, import target) of the scope that
        binds ``name``, or None for a builtin; a class scope is seen only
        from its own body."""
        for depth, (node, qualname, bound) in enumerate(reversed(self.scopes)):
            if name in bound and not (depth and isinstance(node, ast.ClassDef)):
                return node, qualname, bound[name]
        return None

    def visit_Name(self, node):
        found = self._resolve(node.id) if isinstance(node.ctx, ast.Load) else None
        if found is None:
            return
        scope, qualname, target = found
        if target is not None:
            self._import_use(scope, node.id)
            if target[0] == "name":
                self._use((target[1], target[2]))
        elif isinstance(scope, ast.ClassDef):
            self._use(("attribute", node.id))
        elif qualname is not None:  # not a lambda argument or loop variable
            self._use((self.module, f"{qualname}.{node.id}" if qualname else node.id))

    def visit_Attribute(self, node):
        value = node.value
        found = self._resolve(value.id) if isinstance(value, ast.Name) else None
        target = found and found[2]
        if target and target[0] != "name":
            self._import_use(found[0], value.id)
            if target[0] == "module":
                self._use((target[1], node.attr))
            return  # an attribute of an imported module names no method
        if isinstance(node.ctx, ast.Load):
            self._use(("attribute", node.attr))
        self.visit(value)


def _definitions(module, tree):
    """(key, qualified name) of each definition of the module that the
    guard checks: functions, classes and module-level assignments."""
    out = []
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
        out += [((module, t.id), t.id) for t in targets if not _special(t.id)]

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = f"{prefix}{child.name}"
                if not _special(child.name) and not any(
                    isinstance(d, ast.Call) for d in child.decorator_list
                ):
                    key = ("attribute", child.name) if in_class else (module, qualname)
                    out.append((key, qualname))
                walk(child, f"{qualname}.", isinstance(child, ast.ClassDef))
            else:
                walk(child, prefix, in_class)

    walk(tree, "", False)
    return out


def _within(owner, qualname):
    return owner == qualname or owner.startswith(qualname + ".")


def _unused(sources):
    """The definitions in ``sources`` ({module name: source text}) that no
    use reaches, as "module: qualified name".  A use counts only outside the
    definition's own body and outside every unused definition, so code that
    only unused code reaches is unused too."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    uses = []
    for module, tree in trees.items():
        _Uses(module, tree, uses)
    definitions = [(m, key, q) for m, tree in trees.items() for key, q in _definitions(m, tree)]
    unused = []
    while True:
        users = {}
        for key, m, owner in uses:
            if not any(m == um and _within(owner, uq) for um, uq in unused):
                users.setdefault(key, []).append((m, owner))
        found = [
            (module, q)
            for module, key, q in definitions
            if all(m == module and _within(owner, q) for m, owner in users.get(key, ()))
        ]
        if found == unused:
            return [f"{m}: {q}" for m, q in unused]
        unused = found


def _unused_imports(sources):
    """The module-level imports in ``sources`` ({module name: source text})
    whose bound name no code of their module loads, as "module: name"."""
    unused = []
    for module, text in sources.items():
        tree, uses = ast.parse(text), []
        _Uses(module, tree, uses)
        loaded = {key[1] for key, _, _ in uses if key[0] == "import"}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            ):
                for a in stmt.names:
                    name = a.asname or a.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}: {name}")
    return unused


def _unread_attributes(sources):
    """The attributes that code in ``sources`` ({module name: source text})
    stores on ``self`` and no code there reads, as "module: name".  A read
    is a load of an attribute of that name on any object; an augmented
    assignment reads its target."""
    stored, loaded = {}, set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                loaded.add(node.target.attr)
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(f"{module}: {node.attr}", node.attr)
    return [key for key, attr in stored.items() if attr not in loaded]


def _package_sources():
    sources = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                sources[fname[:-3]] = fh.read()
    return sources


def test_every_definition_is_used_by_the_package():
    assert _unused(_package_sources()) == []


def test_every_import_is_loaded_by_its_module():
    assert _unused_imports(_package_sources()) == []


def test_every_stored_attribute_is_read_by_the_package():
    assert _unread_attributes(_package_sources()) == []


def test_unread_attributes_are_found():
    # edges is stored and never read; size is read on another object, total
    # by an augmented assignment, and _cache by its own method
    sources = {
        "dualgraph": (
            "class Graph:\n"
            "    def __init__(self, ids, edges):\n"
            "        self.ids, self.edges = ids, edges\n"
            "        self.size = len(ids)\n"
            "        self.total = 0\n"
            "        self.total += 1\n"
            "        self._cache = None\n"
            "    def cached(self):\n"
            "        return self._cache\n"
        ),
        "cli": "def show(graph):\n    return graph.size, graph.ids\n",
    }
    assert _unread_attributes(sources) == ["dualgraph: edges"]


def test_unused_imports_are_found():
    # ParseError is named only in a docstring, and re only as a local
    # variable that shadows the import; the __future__ import binds nothing,
    # and an import used in a decorator or through a module attribute counts
    sources = {
        "polyring": (
            "from __future__ import annotations\n"
            "import re\n"
            "from fractions import Fraction\n"
            "from . import kernel\n"
            "from .errors import ParseError, RingMismatchError as Mismatch\n"
            "def render(a, d):\n"
            "    \"\"\"No ParseError here.\"\"\"\n"
            "    re = Fraction(a, d)\n"
            "    return str(re)\n"
            "def check(p):\n"
            "    raise Mismatch(kernel.SZERO)\n"
        ),
        "cli": (
            "import click\n"
            "import os.path\n"
            "@click.command()\n"
            "def main(): pass\n"
        ),
    }
    assert _unused_imports(sources) == ["polyring: re", "polyring: ParseError", "cli: os"]


def test_names_resolve_by_scope():
    # product is read only by power, which only a local variable and
    # itertools.product name; LIMIT and helper are named only in __all__,
    # and helper calls only itself
    sources = {
        "ideals": (
            "import itertools\n"
            "class Ideal:\n"
            "    def product(self, other): return self\n"
            "    def power(self, n): return self.product(self)\n"
            "    def gens(self): return itertools.product(())\n"
            "def shape(ideal):\n"
            "    power = 2\n"
            "    return power, ideal.gens()\n"
            "LIMIT = 400\n"
            "def helper(): return helper()\n"
            "__all__ = ['LIMIT', 'helper']\n"
        ),
        "cli": (
            "from . import ideals\n"
            "from .ideals import Ideal\n"
            "def main(): return ideals.shape(Ideal())\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        ),
    }
    assert sorted(_unused(sources)) == [
        "ideals: Ideal.power",
        "ideals: Ideal.product",
        "ideals: LIMIT",
        "ideals: helper",
    ]
