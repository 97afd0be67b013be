"""Computation budgets.

Exceeding a budget raises BudgetExceeded (or flags PARTIAL where the spec
of the operation says so) and is always distinguishable from a wrong
answer.  wall_seconds is the exception: it is parsed and scaled, but no
computation checks it yet.  FROBGROW_BUDGET_SCALE multiplies every limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import InputError


@dataclass(frozen=True)
class Budgets:
    gb_pairs: int = 200_000  # S-pair reductions per basis computation
    gb_basis: int = 20_000  # intermediate basis size
    minor_subsets: int = 250_000  # square submatrices examined per M_d
    oracle_dim: int = 20_000  # max rows/columns of the membership system
    saturation_steps: int = 256  # colon iterations in a saturation
    power_products: int = 5_000_000  # products a power-containment search examines
    wall_seconds: float = 600.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise InputError(f"budget {f.name} must be positive")

    def scaled(self, factor: float) -> "Budgets":
        """Every limit times `factor`; the integer limits round down but
        stay at least 1."""
        if factor <= 0:
            raise InputError("budget scale must be positive")
        scaled = {}
        for f in fields(self):
            value = getattr(self, f.name) * factor
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
