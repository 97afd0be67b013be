"""Monomial orders on exponent vectors.

An order is its packed key: `key` maps an exponent tuple to an int that
compares the way the order does (larger key = larger monomial), and
`exps` maps the int back.  The key is a row of 24-bit fields, most
significant first: per block of variables (an elimination order's front
block first), the block's total degree, then 2^24 - 1 - e_i for its
variables from the least significant up.  That is linear in the exponents,
key(e) = one + sum of e_i * w_i, so monomial multiplication is key
addition less `one`, and each exponent is read back with one shift and
mask.  Keys are exact while every exponent and every block's total
degree stays below 2^24.

The exponent word of a key, `~key & cmask`, keeps only the component
fields, each holding its exponent e_i.  A monomial l divides m iff
`((word(m) | guard) - word(l)) & guard == guard`, where `guard` is the
top bit of each component field: one subtraction, in which no field
borrows from the next.  That test is exact while every exponent stays
below 2^23.  Two monomials are coprime iff the key of their lcm is the
key of their product, key(l) + key(m) - one.

The default order everywhere is grevlex with the weight-0 block (the
t-variables) smallest, so leading terms stay in the weight-1 variables
and k[t] behaves like a coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

_BITS = 24
_MASK = (1 << _BITS) - 1


@dataclass(frozen=True)
class MonomialOrder:
    """Grevlex on `precedence`, variable indices from most to least
    significant; with a `front_size` > 0, the elimination order whose
    front block is the first `front_size` of them, each block grevlex and
    the front block compared first."""

    precedence: tuple[int, ...]
    front_size: int = 0
    one: int = field(init=False, repr=False, compare=False)  # key of 1
    weights: tuple = field(init=False, repr=False, compare=False)
    shifts: tuple = field(init=False, repr=False, compare=False)
    cmask: int = field(init=False, repr=False, compare=False)  # component fields, = one
    guard: int = field(init=False, repr=False, compare=False)  # their top bits

    def __post_init__(self):
        n = len(self.precedence)
        if sorted(self.precedence) != list(range(n)):
            raise ValueError("precedence must be a permutation of all variables")
        if self.front_size and not 0 < self.front_size < n:
            raise ValueError("a front block must be a proper nonempty part of the variables")
        # fields from the least significant up: per block (the back one
        # first), the components from its most significant variable on,
        # then the block's degree
        weights, shifts = [0] * n, [0] * n
        one = bit = 0
        front, back = self.precedence[: self.front_size], self.precedence[self.front_size :]
        for blk in (back, front) if front else (back,):
            for i in blk:
                shifts[i] = bit
                one += _MASK << bit
                bit += _BITS
            for i in blk:
                weights[i] = (1 << bit) - (1 << shifts[i])
            bit += _BITS
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "cmask", one)
        object.__setattr__(self, "guard", sum(1 << (s + _BITS - 1) for s in shifts))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "shifts", tuple(shifts))

    def key(self, exps) -> int:
        """The packed key; max(key) picks the leading monomial."""
        return self.one + sum(map(mul, exps, self.weights))

    def exps(self, key: int) -> tuple:
        """The exponent tuple whose key is `key`."""
        flipped = ~key  # a component field holds 2^24 - 1 - e_i
        return tuple([flipped >> s & _MASK for s in self.shifts])


def default_precedence(weights):
    """Weight-1 variables first (declaration order), weight-0 block last."""
    ones = [i for i, w in enumerate(weights) if w == 1]
    zeros = [i for i, w in enumerate(weights) if w == 0]
    return tuple(ones + zeros)


def grevlex(weights):
    return MonomialOrder(default_precedence(weights))


def block(weights, front_indices):
    """Elimination order putting `front_indices` in the eliminated block."""
    front = tuple(front_indices)
    if len(set(front)) != len(front):
        raise ValueError("duplicate variables in front block")
    rest = [i for i in default_precedence(weights) if i not in set(front)]
    if not rest:
        raise ValueError("front block must not cover all variables")
    return MonomialOrder(front + tuple(rest), front_size=len(front))


def monomials_of_degree(nvars: int, total: int, cap: int | None = None):
    """Exponent tuples over nvars variables summing to total, each entry
    at most cap when one is given, in descending lex order.

    Built from the last variable up: each pass prepends one variable to
    the tuples of every smaller sum, so each tail is formed once and
    shared by all its prefixes."""
    if nvars == 0:
        return [()] if total == 0 else []
    top = total if cap is None else min(total, cap)
    # by_sum[s]: the tuples over the last k variables summing to s, in
    # descending lex order; k = 0 at first
    by_sum = [[()]] + [[] for _ in range(total)]
    for k in range(nvars - 1):
        by_sum = [
            [(e,) + rest for e in range(min(s, top), max(0, s - top * k) - 1, -1)
             for rest in by_sum[s - e]]
            for s in range(total + 1)
        ]
    return [
        (e,) + rest
        for e in range(top, max(0, total - top * (nvars - 1)) - 1, -1)
        for rest in by_sum[total - e]
    ]
