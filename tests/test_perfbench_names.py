"""The benchmark harness looks frobgrow functions up by name.

`perfbench/run.py` names the functions its per-layer metrics read (in
`layer_metrics`) and the ones it hooks (`HOOKS`) as "layer.function" or
"layer.Class.method" strings; a name that no longer resolves makes every
traced benchmark run fail.  This test reads run.py as text, so it needs
nothing else from perfbench/, and skips when perfbench/ is absent.
"""

import ast
import importlib
import inspect
import os

import pytest

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


def test_traced_function_names_resolve():
    if not os.path.exists(RUN_PY):
        pytest.skip("no perfbench/ in this checkout")
    with open(RUN_PY) as fh:
        names = _traced_names(ast.parse(fh.read()))
    # the parse found the lookups and the hooks
    assert {"ktmodule.SliceCache.member", "hq.minors_lcm"} <= names
    missing = sorted(n for n in names if not _resolves(n))
    assert not missing, f"perfbench/run.py names functions frobgrow lacks: {missing}"
