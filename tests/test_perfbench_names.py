"""Name guard: every package name the benchmark's tracer reads still exists.

``perfbench/run.py`` reads spans by name (``calls(...)``, ``self_s(...)``)
and ``perfbench/tracer.py`` wraps ``_PRIVATE`` and probes ``_PROBES`` by
name, so renaming one of them breaks a traced run.  Both files are only
read here.
"""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _span_names():
    names = set()
    for node in ast.walk(_tree("run.py")):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("calls", "self_s")
        ):
            names.add(ast.literal_eval(node.args[0]))
    for node in ast.walk(_tree("tracer.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("_PRIVATE", "_PROBES") for t in node.targets
        ):
            value = node.value
            names.update(
                ast.literal_eval(k)
                for k in (value.keys if isinstance(value, ast.Dict) else value.elts)
            )
    return sorted(names)


NAMES = _span_names()


def test_names_were_found():
    assert "ideals.IdealHandle.colon" in NAMES
    assert "ideals._groebner_terms" in NAMES
    assert "ulrich.good_check" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"triplepoint.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)
    assert callable(obj), name
