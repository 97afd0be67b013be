"""Monomial orders on exponent vectors.

Orders work on plain exponent tuples; a key function maps a monomial to a
tuple that compares the same way the order does (larger key = larger
monomial).  The default order everywhere is grevlex with the weight-0
block (the t-variables) smallest, so leading terms stay in the
weight-1 variables and k[t] behaves like a coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: grevlex or a two-block elimination order.

    `precedence` lists variable indices from most to least significant.
    For `block`, the first `front_size` entries of `precedence` form the
    eliminated front block; front and back blocks are internally grevlex.
    """

    kind: str
    precedence: tuple[int, ...]
    front_size: int = 0

    def __post_init__(self):
        if self.kind not in ("grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if sorted(self.precedence) != list(range(len(self.precedence))):
            raise ValueError("precedence must be a permutation of all variables")
        if self.kind == "block":
            if not (0 < self.front_size < len(self.precedence)):
                raise ValueError("block order needs a proper nonempty front block")
        elif self.front_size:
            raise ValueError("front_size only applies to block orders")

    def key(self, exps):
        """Sort key; max(key) picks the leading monomial."""
        if self.kind == "grevlex":
            return _grevlex_key(exps, self.precedence)
        front = self.precedence[: self.front_size]
        back = self.precedence[self.front_size :]
        return _grevlex_key(exps, front) + _grevlex_key(exps, back)


def _grevlex_key(exps, prec):
    total = 0
    for i in prec:
        total += exps[i]
    return (total,) + tuple(-exps[i] for i in reversed(prec))


def default_precedence(weights):
    """Weight-1 variables first (declaration order), weight-0 block last."""
    ones = [i for i, w in enumerate(weights) if w == 1]
    zeros = [i for i, w in enumerate(weights) if w == 0]
    return tuple(ones + zeros)


def grevlex(weights):
    return MonomialOrder("grevlex", default_precedence(weights))


def block(weights, front_indices):
    """Elimination order putting `front_indices` in the eliminated block."""
    front = tuple(front_indices)
    if len(set(front)) != len(front):
        raise ValueError("duplicate variables in front block")
    rest = [i for i in default_precedence(weights) if i not in set(front)]
    if not rest:
        raise ValueError("front block must not cover all variables")
    return MonomialOrder("block", front + tuple(rest), front_size=len(front))


def monomials_of_degree(nvars: int, total: int, cap: int | None = None):
    """Exponent tuples over nvars variables summing to total, each entry
    at most cap when one is given, in descending lex order."""
    if nvars == 0:
        return [()] if total == 0 else []
    top, low = total, 0
    if cap is not None:
        top, low = min(total, cap), max(0, total - cap * (nvars - 1))
    return [
        (e,) + rest
        for e in range(top, low - 1, -1)
        for rest in monomials_of_degree(nvars - 1, total - e, cap)
    ]
