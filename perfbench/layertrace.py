"""Per-layer tracing by wrapping frobgrow's public functions from outside.

A layer is the frobgrow module that defines a function: cli, decomposer,
ktmodule, groebner, hq, fpoly, and kernels (the frobgrow._kernels
package).  `Tracer(entry)` wraps every public function, the public
methods and `__init__` of every public class (for fpoly classes, their
arithmetic), and each CLI command callback, and finds every frobgrow
module outside the kernels package that imported one of them (cli.compute_hq, the names decomposer imports from groebner and
ktmodule, the kernel names bound in fpoly).  `install` rebinds all of
those names to the wrappers and `uninstall` puts the originals back, so
untraced rounds run the program unmodified.

Each wrapped call pushes a frame; on return the call's duration minus
the time of its wrapped children is added to its layer's self time.
Calls into cli, decomposer, ktmodule, groebner and hq are kept as spans
(function, start, end, parent span) and written out at the end of the
run; calls into fpoly, kernels and the HELPERS are too many to keep one
by one and are only counted and timed.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "decomposer", "ktmodule", "groebner", "hq", "fpoly", "kernels")
SPAN_LAYERS = frozenset(("cli", "decomposer", "ktmodule", "groebner", "hq"))
# fpoly classes: only the arithmetic is wrapped, not the accessors
# (term_dict, weight1_indices, ...) that every layer calls in its loops
FPOLY_METHODS = frozenset((
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
    "__divmod__", "__floordiv__", "__mod__",
    "exact_div", "monic", "derivative", "pth_root", "powmod",
))
# called once per generator per slice: counted and timed, kept as no span
HELPERS = frozenset(("ktmodule.x_degree", "ktmodule.monomials_of_degree"))


def _layer_of(module_name: str) -> str | None:
    if module_name.startswith("frobgrow._kernels"):
        return "kernels"
    head, _, tail = module_name.partition(".")
    if head == "frobgrow" and tail in LAYERS:
        return tail
    return None


class Tracer:
    """Wrappers and counters for one imported copy of frobgrow.

    `entry` is the benchmark's callable that runs one CLI job; it is
    wrapped as the function `cli.main`, the root span of each job.
    `hooks` maps a function name to (pre, post): pre(tracer, args, kwargs)
    runs before each call and post(tracer, args, result, pre_state) after.
    """

    def __init__(self, entry, hooks=None):
        self.names = ["benchmark"]
        self.layer_of_fn = [None]
        self._hooks = hooks or {}
        self._patches = []  # (owner, attribute, original, wrapper)
        self._installed = False
        self.entry = self._wrap("cli.main", "cli", entry)
        self._collect()
        self.reset()

    # -- accounting

    def reset(self):
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n  # inclusive time of outermost activations
        self._depth = [0] * n
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.edges = Counter()  # (caller fn id, callee fn id) -> calls
        self.extra = Counter()  # counts taken from arguments and results
        self.spans = []  # (fn id, start, end, parent span index or -1)
        self._stack = [[0.0, 0, -1]]  # child time, function, span

    def fid(self, name: str) -> int:
        return self.names.index(name)

    def calls_of(self, name: str) -> int:
        return self.calls[self.fid(name)]

    def seconds_in(self, name: str) -> float:
        return self.incl[self.fid(name)]

    def edge(self, caller: str, callee: str) -> int:
        return self.edges[(self.fid(caller), self.fid(callee))]

    def span_dump(self) -> dict:
        return {
            "functions": self.names,
            "layers": self.layer_of_fn,
            "spans": [list(s) for s in self.spans],
        }

    # -- wrapping

    def _wrap(self, name: str, layer: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of_fn.append(layer)
        if layer in SPAN_LAYERS and name not in HELPERS:
            w = self._span_wrapper(fid, layer, fn, *self._hooks.get(name, (None, None)))
        else:
            w = self._count_wrapper(fid, layer, fn)
        w.__wrapped__ = fn
        w.__name__ = getattr(fn, "__name__", name)
        return w

    def _count_wrapper(self, fid, layer, fn):
        """Counts and times the call; keeps no span."""
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [0.0, fid, parent[2]]  # child time, function, span
            stack.append(frame)
            depth = tracer._depth
            depth[fid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                tracer.layer_self[layer] += dur - frame[0]
                parent[0] += dur
                tracer.calls[fid] += 1
                depth[fid] -= 1
                if not depth[fid]:
                    tracer.incl[fid] += dur

        return wrapper

    def _span_wrapper(self, fid, layer, fn, pre, post):
        """Also keeps a span and counts calls per calling function."""
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            tracer.edges[(parent[1], fid)] += 1
            state = pre(tracer, args, kwargs) if pre is not None else None
            spans = tracer.spans
            span = len(spans)
            spans.append(None)
            frame = [0.0, fid, span]
            stack.append(frame)
            depth = tracer._depth
            depth[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                tracer.layer_self[layer] += dur - frame[0]
                parent[0] += dur
                tracer.calls[fid] += 1
                depth[fid] -= 1
                if not depth[fid]:
                    tracer.incl[fid] += dur
                spans[span] = (fid, start, end, parent[2])
            if post is not None:
                post(tracer, args, result, state)
            return result

        return wrapper

    def _collect(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "frobgrow" or name.startswith("frobgrow.")
        }
        wrappers = {}  # id(original) -> (original, wrapper)

        def wrapped(qualname, layer, obj):
            got = wrappers.get(id(obj))
            if got is None:
                got = wrappers[id(obj)] = (obj, self._wrap(qualname, layer, obj))
            return got[1]

        kernels = modules["frobgrow._kernels"]
        for attr in sorted(vars(kernels)):
            obj = getattr(kernels, attr)
            if attr.startswith("uni_") and callable(obj):
                wrapped(f"kernels.{attr}", "kernels", obj)
        for modname in sorted(modules):
            layer = _layer_of(modname)
            if layer is None or layer == "kernels":
                continue
            for attr, obj in list(vars(modules[modname]).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if (
                            mname in FPOLY_METHODS
                            if layer == "fpoly"
                            else mname == "__init__" or not mname.startswith("_")
                        ):
                            w = wrapped(f"{layer}.{attr}.{mname}", layer, meth)
                            self._patches.append((obj, mname, meth, w))
        cli = modules["frobgrow.cli"]
        for cname, cmd in sorted(cli.main.commands.items()):
            w = wrapped(f"cli.{cname}", "cli", cmd.callback)
            self._patches.append((cmd, "callback", cmd.callback, w))
        for modname, mod in modules.items():
            if _layer_of(modname) == "kernels":
                continue  # the kernels' calls among themselves are their own work
            for attr, obj in list(vars(mod).items()):
                got = wrappers.get(id(obj))
                if got is not None and got[0] is obj:
                    self._patches.append((mod, attr, obj, got[1]))

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, w in self._patches:
            setattr(owner, attr, w)
        self._installed = True
        self.reset()

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False
