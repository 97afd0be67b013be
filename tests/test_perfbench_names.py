"""The benchmark harness looks frobgrow functions up by name.

`perfbench/run.py` names the functions its per-layer metrics read (in
`layer_metrics`) and the ones it hooks (`HOOKS`) as "layer.function" or
"layer.Class.method" strings; a name that no longer resolves makes every
traced benchmark run fail.  Its `_gb_pre` hook also reads the private
basis cache of `IdealHandle`.  These tests read run.py as text, so they
need nothing else from perfbench/, and skip when perfbench/ is absent.
"""

import ast
import importlib
import inspect
import os

import pytest

from frobgrow.fpoly import PrimeModulus, RingSpec
from frobgrow.groebner import IdealHandle

RUN_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
LAYERS = ("cli", "decomposer", "ktmodule", "groebner", "hq", "fpoly", "kernels")


def _traced_names(tree):
    """The "layer.name" strings passed to calls in `layer_metrics` (the
    tracer lookups; metric names are dict keys, not call arguments) and
    the keys of `HOOKS`."""
    fn = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics"
    )
    args = [a for n in ast.walk(fn) if isinstance(n, ast.Call) for a in n.args]
    hooks = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "HOOKS"
    )
    return {
        c.value
        for c in args + hooks.keys
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
        and c.value.partition(".")[0] in LAYERS
    }


def _resolves(name):
    """Whether the tracer would find `name`: a uni_* kernel, or a function
    (or a method of a class) defined in the frobgrow module of its layer."""
    layer, _, rest = name.partition(".")
    if layer == "kernels":
        module = importlib.import_module("frobgrow._kernels")
        return rest.startswith("uni_") and callable(getattr(module, rest, None))
    module = importlib.import_module(f"frobgrow.{layer}")
    head, _, method = rest.partition(".")
    obj = vars(module).get(head)
    if obj is None or getattr(obj, "__module__", None) != module.__name__:
        return False
    if not method:
        return inspect.isfunction(obj)
    return inspect.isclass(obj) and inspect.isfunction(vars(obj).get(method))


def _run_py_tree():
    if not os.path.exists(RUN_PY):
        pytest.skip("no perfbench/ in this checkout")
    with open(RUN_PY) as fh:
        return ast.parse(fh.read())


def test_traced_function_names_resolve():
    names = _traced_names(_run_py_tree())
    # the parse found the lookups and the hooks
    assert {"ktmodule.SliceCache.member", "hq.minors_lcm"} <= names
    missing = sorted(n for n in names if not _resolves(n))
    assert not missing, f"perfbench/run.py names functions frobgrow lacks: {missing}"


def test_groebner_cache_hook_sees_the_basis():
    # _gb_pre reads IdealHandle's private basis cache to tell a cache hit
    # from a Buchberger run; it is loaded alone from run.py's syntax tree
    fn = next(
        n for n in _run_py_tree().body
        if isinstance(n, ast.FunctionDef) and n.name == "_gb_pre"
    )
    namespace = {}
    exec(compile(ast.Module(body=[fn], type_ignores=[]), RUN_PY, "exec"), namespace)
    gb_pre = namespace["_gb_pre"]
    ring = RingSpec(PrimeModulus(2), (("t", 0), ("x", 1), ("y", 1)))
    ideal = IdealHandle(ring, ["x^2", "t*x*y"])
    assert gb_pre(None, (ideal,), {}) is False
    ideal.groebner_basis()
    assert gb_pre(None, (ideal,), {}) is True
