"""Name guard: every package name the benchmark's tracer reads still exists.

``perfbench/run.py`` reads spans by name (``calls(...)``, ``self_s(...)``)
and ``perfbench/tracer.py`` wraps ``_PRIVATE`` and probes ``_PROBES`` by
name, so renaming one of them breaks a traced run.  The tracer also wraps
every public callable of ``triplepoint.kernel`` and counts raised
exceptions it looks up by name in ``triplepoint.errors``.  Both files are
only read here.
"""

import ast
import importlib
import inspect
import os

import pytest

from triplepoint import errors, kernel

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _calls(tree, *names):
    """Calls in ``tree`` of a plain name, restricted to ``names`` if given."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if not names or node.func.id in names:
                yield node


def _span_names():
    names = {ast.literal_eval(c.args[0]) for c in _calls(_tree("run.py"), "calls", "self_s")}
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


# The term-list entry points the other layers call: the kernel spans.
KERNEL_ENTRY_POINTS = {
    "add_terms",
    "mono_mul_terms",
    "mul_terms",
    "reduce_terms",
    "monic_terms",
}


def test_kernel_public_callables_are_its_entry_points():
    # A public helper or import (``gcd``, ``heappush``) would be traced as a
    # kernel span of its own.
    public = {
        attr: value
        for attr, value in vars(kernel).items()
        if not attr.startswith("_") and callable(value)
    }
    assert set(public) == KERNEL_ENTRY_POINTS
    for attr, value in public.items():
        assert value.__module__ == "triplepoint.kernel", attr


def test_kernel_calls_no_entry_point_of_its_own():
    # The tracer rebinds the module's own names too, so an internal call to
    # an entry point would add a span that no other layer asked for.
    called = {c.func.id for c in _calls(ast.parse(inspect.getsource(kernel)))}
    assert not called & KERNEL_ENTRY_POINTS


PROBED_EXCEPTIONS = sorted(
    {ast.literal_eval(c.args[1]) for c in _calls(_tree("tracer.py"), "_count_raises")}
)


def test_probed_exceptions_were_found():
    assert "GraphInvariantError" in PROBED_EXCEPTIONS


@pytest.mark.parametrize("name", PROBED_EXCEPTIONS)
def test_probed_exception_exists(name):
    exc = getattr(errors, name, None)
    assert inspect.isclass(exc) and issubclass(exc, errors.TriplepointError), name
