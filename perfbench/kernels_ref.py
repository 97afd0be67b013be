"""Reference figures for the kernels layer: pure against compiled kernels.

Times uni_mul, uni_divmod and uni_gcd of both implementations on pinned
random operands over F_3 (best of three passes).  The compiled figures
read as unavailable when frobgrow._kernels._speedups is not built.

Run from the root of a checkout: python3 perfbench/kernels_ref.py
"""

from __future__ import annotations

import os
import random
import sys
import time

OPS = ("uni_mul", "uni_divmod", "uni_gcd")
SIZES = ((8, 2000), (64, 300), (512, 12))  # (degree, operand pairs)
P = 3
SEED = 20240824


def _operands(ref):
    rng = random.Random(SEED)
    out = {}
    for degree, count in SIZES:
        pairs = []
        for _ in range(count):
            a = ref.uni_trim([rng.randrange(P) for _ in range(degree + 1)])
            b = ref.uni_trim([rng.randrange(P) for _ in range(max(degree // 2, 1) + 1)])
            if b:
                pairs.append((a, b))
        out[degree] = pairs
    return out


def _best(fn, pairs, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b, P)
        best = min(best, time.perf_counter() - t0)
    return best


def reference():
    """{"rows": [(op, degree, pure_s, compiled_s or None)], "pure_s": total,
    "compiled_s": total or None}."""
    from frobgrow._kernels import _ref

    try:
        from frobgrow._kernels import _speedups
    except ImportError:
        _speedups = None
    operands = _operands(_ref)
    rows = []
    for op in OPS:
        for degree, _ in SIZES:
            pairs = operands[degree]
            pure = _best(getattr(_ref, op), pairs)
            fast = None if _speedups is None else _best(getattr(_speedups, op), pairs)
            rows.append((op, degree, pure, fast))
    return {
        "rows": rows,
        "pure_s": sum(r[2] for r in rows),
        "compiled_s": None if _speedups is None else sum(r[3] for r in rows),
    }


def format_rows(ref) -> list:
    lines = [f"{'kernel':<12}{'degree':>7}{'pure s':>10}{'compiled s':>12}{'ratio':>8}"]
    for op, degree, pure, fast in ref["rows"]:
        if fast is None:
            lines.append(f"{op:<12}{degree:>7}{pure:>10.4f}{'unavailable':>12}{'-':>8}")
        else:
            lines.append(
                f"{op:<12}{degree:>7}{pure:>10.4f}{fast:>12.4f}{pure / fast:>7.1f}x"
            )
    return lines


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    print("\n".join(format_rows(reference())))
