"""Computation budgets.

Exceeding a budget raises BudgetExceeded (or flags PARTIAL where the spec
of the operation says so) and is always distinguishable from a wrong
answer.  FROBGROW_BUDGET_SCALE multiplies every limit.

wall_seconds is a deadline, started by `wall_clock` (each CLI command
runs inside one) and read by `check_deadline`.  The Groebner engine
checks it once per S-pair it reduces, the least-power search once per
product, the saturation exponent search once per exponent, the
degree-slice engine once per slice it builds and once per
degree whose invariants it computes, and the minors scan once per
minor size and once per row-set group of the size before.  Outside a
`wall_clock` block nothing checks it.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import time
from dataclasses import dataclass, fields, replace

from .errors import BudgetExceeded, InputError


@dataclass(frozen=True)
class Budgets:
    gb_pairs: int = 200_000  # S-pair reductions per basis computation
    gb_basis: int = 20_000  # intermediate basis size
    minor_subsets: int = 250_000  # square submatrices examined per M_d
    oracle_dim: int = 20_000  # max rows/columns of the membership system
    saturation_steps: int = 256  # a saturation's exponent search tries 0..steps-1
    power_products: int = 5_000_000  # products one least-exponent search examines
    wall_seconds: float = 600.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN too
                raise InputError(f"budget {f.name} must be positive")

    def scaled(self, factor: float) -> "Budgets":
        """Every limit times `factor`, a positive finite number; the
        integer limits round down but stay at least 1."""
        if not factor > 0:  # NaN too
            raise InputError("budget scale must be positive")
        if math.isinf(factor):
            raise InputError("budget scale must be finite")
        scaled = {}
        for f in fields(self):
            value = getattr(self, f.name) * factor
            if math.isinf(value):
                raise InputError(f"budget scale {factor:g} makes {f.name} infinite")
            scaled[f.name] = value if f.type == "float" else max(1, int(value))
        return replace(self, **scaled)

    def override(self, **kwargs) -> "Budgets":
        return replace(self, **kwargs)


def from_environment(base: Budgets | None = None) -> Budgets:
    """Apply the FROBGROW_BUDGET_SCALE multiplier, if set."""
    base = base or Budgets()
    raw = os.environ.get("FROBGROW_BUDGET_SCALE")
    if raw is None:
        return base
    try:
        factor = float(raw)
    except ValueError:
        raise InputError(f"FROBGROW_BUDGET_SCALE must be numeric, got {raw!r}") from None
    return base.scaled(factor)


DEFAULT = Budgets()


# (monotonic deadline, wall_seconds) of the enclosing wall_clock block
_deadline: contextvars.ContextVar = contextvars.ContextVar("deadline", default=None)


@contextlib.contextmanager
def wall_clock(budgets: Budgets):
    """Within the block, check_deadline raises once budgets.wall_seconds
    have passed."""
    token = _deadline.set((time.monotonic() + budgets.wall_seconds, budgets.wall_seconds))
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline() -> None:
    """Raise BudgetExceeded("wall_seconds") past the deadline of the
    enclosing wall_clock block; a no-op outside one."""
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() > deadline[0]:
        raise BudgetExceeded("wall_seconds", deadline[1])
