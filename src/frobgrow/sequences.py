"""The three-term polynomial sequence machinery.

P_0 = 1, P_1 = r1, P_{n+1} = r1*P_n - r0*r2*P_{n-1} for coefficient
polynomials r0, r1, r2 in k[t], together with the lcm polynomials L_n
and irreducible-factor censuses.  The tests keep the tridiagonal
determinant, which P_n equals, as the independent cross-check of the
recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import InputError, ModulusMismatch
from .fpoly import FactorList, PrimeModulus, UniPoly, uni_factor, uni_lcm


@dataclass(frozen=True)
class SequenceSpec:
    r0: UniPoly
    r1: UniPoly
    r2: UniPoly

    def __post_init__(self):
        if not (self.r0.p == self.r1.p == self.r2.p):
            raise ModulusMismatch("r0, r1, r2 must share a modulus")
        if self.r1.is_zero:
            raise InputError("r1 must be nonzero")

    @property
    def p(self) -> PrimeModulus:
        return self.r1.p

    @property
    def degree_condition(self) -> bool:
        """2 deg r1 > deg r0 + deg r2; guarantees every P_n is nonzero of
        degree n*deg r1."""
        if self.r0.is_zero or self.r2.is_zero:
            return False
        return 2 * self.r1.degree > self.r0.degree + self.r2.degree

    @classmethod
    def parse(cls, p: PrimeModulus, r0: str, r1: str, r2: str) -> "SequenceSpec":
        from .fpoly import parse_unipoly

        return cls(parse_unipoly(r0, p), parse_unipoly(r1, p), parse_unipoly(r2, p))


def _p_terms(spec: SequenceSpec):
    """P_0, P_1, P_2, ... by the recurrence, each computed when asked for."""
    prev, cur = UniPoly.one(spec.p), spec.r1
    yield prev
    r0r2 = spec.r0 * spec.r2
    while True:
        yield cur
        prev, cur = cur, spec.r1 * cur - r0r2 * prev


def p_seq(spec: SequenceSpec, n: int) -> UniPoly:
    """P_n by the recurrence."""
    if n < 0:
        raise InputError("sequence index must be non-negative")
    return next(islice(_p_terms(spec), n, None))


def big_L(spec: SequenceSpec, n: int) -> UniPoly:
    """Monic lcm of P_1 .. P_{n-1}; the empty lcm (n = 1) is 1."""
    if n < 1:
        raise InputError("index must be at least 1")
    acc = UniPoly.one(spec.p)
    for i, P in enumerate(islice(_p_terms(spec), 1, n), start=1):
        if P.is_zero:
            raise InputError(
                f"P_{i} vanishes; the degree condition 2 deg r1 > deg r0 + deg r2 fails"
            )
        acc = uni_lcm(acc, P)
    return acc.monic()


@dataclass(frozen=True)
class Census:
    """Factorizations of a family of labelled polynomials plus the union
    of their irreducible supports."""

    entries: tuple  # of (label, FactorList)
    distinct_irreducibles: tuple  # monic irreducible UniPoly, sorted
    max_multiplicity: int


def factor_census(polys, seed: int) -> Census:
    """Factor every (label, polynomial) pair and merge the supports."""
    entries = []
    support = set()
    max_mult = 0
    modulus = None
    for label, poly in polys:
        if poly.is_zero:
            raise InputError(f"cannot census the zero polynomial ({label})")
        if modulus is None:
            modulus = poly.p
        elif poly.p != modulus:
            raise ModulusMismatch("census polynomials must share a modulus")
        fl: FactorList = uni_factor(poly, seed)
        entries.append((str(label), fl))
        for irr, mult in fl:
            support.add(irr)
            max_mult = max(max_mult, mult)
    distinct = tuple(sorted(support, key=UniPoly.sort_key))
    return Census(tuple(entries), distinct, max_mult)
