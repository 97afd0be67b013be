"""Exact arithmetic over F_p.

Dense univariate polynomials (the k[t] world), sparse multivariate
polynomials under the 0/1 grading, expression parsing, univariate
factorization over F_p, and the least-power search that both
power-containment routes (Groebner and degree slices) run.  All
values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from . import orders
from ._kernels import (
    uni_add,
    uni_divmod,
    uni_gcd as _k_gcd,
    uni_mul,
    uni_powmod,
    uni_rem,
    uni_scale,
    uni_sub,
)
from .budgets import check_deadline
from .errors import BudgetExceeded, InputError, ModulusMismatch, ParseError, RingMismatch

EXPONENT_CAP = 1 << 16
_MAX_PRIME = 1 << 31
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# moduli


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p with 2 <= p <= 2^31, checked by trial division."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 2 or p > _MAX_PRIME:
            raise InputError(f"modulus must be an integer in [2, 2^31], got {p}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise InputError(f"{p} is not prime")
            d += 1


@dataclass(frozen=True)
class PrimePower:
    """q = p^e for a checked prime p and e >= 0."""

    p: PrimeModulus
    e: int

    def __post_init__(self):
        if self.e < 0:
            raise InputError("exponent of a prime power must be non-negative")
        if self.p.p ** self.e >= 1 << 63:
            raise InputError(f"{self.p.p}^{self.e} does not fit a machine word")

    @property
    def q(self) -> int:
        return self.p.p ** self.e

    @classmethod
    def from_value(cls, p: int, q: int) -> "PrimePower":
        pm = PrimeModulus(p)
        e = 0
        v = q
        while v > 1 and v % p == 0:
            v //= p
            e += 1
        if v != 1 or q < 1:
            raise InputError(f"{q} is not a power of {p}")
        return cls(pm, e)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Dense univariate polynomial over F_p; index = degree in t."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: PrimeModulus, coeffs):
        self.p = p
        cs = [c % p.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls, p: PrimeModulus) -> "UniPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: PrimeModulus) -> "UniPoly":
        return cls(p, (1,))

    @classmethod
    def const(cls, p: PrimeModulus, c: int) -> "UniPoly":
        return cls(p, (c,))

    @classmethod
    def t(cls, p: PrimeModulus) -> "UniPoly":
        return cls(p, (0, 1))

    @classmethod
    def monomial(cls, p: PrimeModulus, k: int, c: int = 1) -> "UniPoly":
        return cls(p, (0,) * k + (c,))

    # -- queries

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # -- arithmetic

    def _check(self, other: "UniPoly"):
        if self.p != other.p:
            raise ModulusMismatch(
                f"moduli differ: {self.p.p} vs {other.p.p}"
            )

    def _wrap(self, coeffs) -> "UniPoly":
        r = UniPoly.__new__(UniPoly)
        r.p = self.p
        r.coeffs = tuple(coeffs)
        return r

    def __add__(self, other):
        self._check(other)
        return self._wrap(uni_add(list(self.coeffs), list(other.coeffs), self.p.p))

    def __sub__(self, other):
        self._check(other)
        return self._wrap(uni_sub(list(self.coeffs), list(other.coeffs), self.p.p))

    def __neg__(self):
        return self._wrap(uni_scale(list(self.coeffs), self.p.p - 1, self.p.p))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(uni_scale(list(self.coeffs), other, self.p.p))
        self._check(other)
        return self._wrap(uni_mul(list(self.coeffs), list(other.coeffs), self.p.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative power of a polynomial")
        result = UniPoly.one(self.p)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        q, r = uni_divmod(list(self.coeffs), list(other.coeffs), self.p.p)
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        self._check(other)
        return self._wrap(uni_rem(list(self.coeffs), list(other.coeffs), self.p.p))

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InputError(f"inexact division: {self} by {other}")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        inv = pow(self.coeffs[-1], self.p.p - 2, self.p.p)
        return self._wrap(uni_scale(list(self.coeffs), inv, self.p.p))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.p, [(i * c) % self.p.p for i, c in enumerate(self.coeffs)][1:])

    def pth_root(self) -> "UniPoly":
        """Inverse of Frobenius: f(t) = g(t^p) -> g.  Requires that shape."""
        p = self.p.p
        for i, c in enumerate(self.coeffs):
            if c and i % p != 0:
                raise InputError("polynomial is not a p-th power")
        return self._wrap(self.coeffs[::p])

    def powmod(self, e: int, m: "UniPoly") -> "UniPoly":
        self._check(m)
        return self._wrap(uni_powmod(list(self.coeffs), e, list(m.coeffs), self.p.p))

    # -- identity

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p.p, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        return format_unipoly(self)

    def __repr__(self):
        return f"UniPoly(F{self.p.p}, {format_unipoly(self)})"


def format_unipoly(u: UniPoly, var: str = "t") -> str:
    if u.is_zero:
        return "0"
    parts = []
    for k in range(u.degree, -1, -1):
        c = u.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            v = var if k == 1 else f"{var}^{k}"
            parts.append(v if c == 1 else f"{c}*{v}")
    return " + ".join(parts)


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; gcd(0, 0) = 0."""
    a._check(b)
    return a._wrap(_k_gcd(list(a.coeffs), list(b.coeffs), a.p.p))


def uni_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic lcm of two nonzero polynomials."""
    a._check(b)
    if a.is_zero or b.is_zero:
        raise InputError("lcm of a zero polynomial is undefined")
    g = uni_gcd(a, b)
    return (a * b).exact_div(g).monic()


# ---------------------------------------------------------------------------
# univariate factorization


@dataclass(frozen=True)
class FactorList:
    """unit * product of factor^multiplicity, factors monic irreducible,
    pairwise distinct, sorted by (degree, coefficient tuple)."""

    unit: int
    factors: tuple  # of (UniPoly, int)

    @property
    def max_multiplicity(self) -> int:
        return max((m for _, m in self.factors), default=0)

    def __iter__(self):
        return iter(self.factors)


def uni_factor(a: UniPoly, seed: int) -> FactorList:
    """Complete irreducible factorization over F_p.

    Squarefree decomposition, then distinct-degree splitting, then
    seeded equal-degree (Cantor-Zassenhaus) splitting; deterministic for
    a fixed seed.
    """
    if a.is_zero:
        raise InputError("cannot factor the zero polynomial")
    unit = a.lc()
    f = a.monic()
    rng = random.Random(seed)
    counts: dict[UniPoly, int] = {}
    if f.degree > 0:
        for g, mult in _squarefree_decomposition(f):
            for h, d in _distinct_degree(g):
                for irr in _equal_degree(h, d, rng):
                    counts[irr] = counts.get(irr, 0) + mult
    factors = tuple(sorted(counts.items(), key=lambda fm: fm[0].sort_key()))
    return FactorList(unit=unit, factors=factors)


def _squarefree_decomposition(f: UniPoly):
    """Monic squarefree factors with multiplicities, characteristic p."""
    p = f.p.p
    out: dict[UniPoly, int] = {}

    def accumulate(g: UniPoly, scale: int):
        df = g.derivative()
        if df.is_zero:
            accumulate(g.pth_root(), scale * p)
            return
        c = uni_gcd(g, df)
        w = g.exact_div(c)
        i = 1
        while w.degree > 0:
            y = uni_gcd(w, c)
            z = w.exact_div(y)
            if z.degree > 0:
                out[z] = out.get(z, 0) + i * scale
            w = y
            c = c.exact_div(y)
            i += 1
        if c.degree > 0:
            accumulate(c.pth_root(), scale * p)

    accumulate(f, 1)
    return sorted(out.items(), key=lambda gm: gm[0].sort_key())


def _distinct_degree(g: UniPoly):
    """Split a monic squarefree g into products of irreducibles of equal
    degree; yields (product, degree) pairs."""
    p = g.p.p
    t = UniPoly.t(g.p)
    result = []
    h = t % g
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            result.append((g, g.degree))
            break
        h = h.powmod(p, g)
        gg = uni_gcd(h - t, g)
        if gg.degree > 0:
            result.append((gg, d))
            g = g.exact_div(gg)
            h = h % g
    return result


def _equal_degree(h: UniPoly, d: int, rng: random.Random):
    """Split a monic product of degree-d irreducibles into its factors."""
    if h.degree == d:
        return [h]
    p = h.p.p
    n = h.degree
    while True:
        r = UniPoly(h.p, [rng.randrange(p) for _ in range(n)])
        if r.degree < 1:
            continue
        if p == 2:
            # trace map over F_{2^d}
            s = r
            acc = r
            for _ in range(d - 1):
                s = s.powmod(2, h)
                acc = acc + s
            g = uni_gcd(acc, h)
        else:
            s = r.powmod((p**d - 1) // 2, h)
            g = uni_gcd(s - UniPoly.one(h.p), h)
        if 0 < g.degree < n:
            return sorted(
                _equal_degree(g, d, rng) + _equal_degree(h.exact_div(g), d, rng),
                key=UniPoly.sort_key,
            )


# ---------------------------------------------------------------------------
# rings and multivariate polynomials

Monomial = tuple  # exponent vector, one entry per ring variable


class RingSpec:
    """Ambient graded ring: prime p, ordered (name, weight) variables with
    weights in {0, 1}, and homogeneous quotient relations."""

    __slots__ = ("p", "variables", "relations", "_order", "_name_index")

    def __init__(self, p: PrimeModulus, variables, relations=()):
        self.p = p
        vs = tuple((str(n), int(w)) for n, w in variables)
        if not vs:
            raise InputError("a ring needs at least one variable")
        names = [n for n, _ in vs]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in {names}")
        for n, w in vs:
            if not _IDENT_RE.fullmatch(n):
                raise InputError(f"invalid variable name {n!r}")
            if w not in (0, 1):
                raise InputError(f"variable weight must be 0 or 1, got {w} for {n}")
        self.variables = vs
        self._name_index = {n: i for i, (n, _) in enumerate(vs)}
        self._order = orders.grevlex(self.weights)
        self.relations = ()
        rels = []
        for r in relations:
            f = parse_poly(r, self) if isinstance(r, str) else r
            if f.is_zero:
                raise InputError("zero relation")
            try:
                x_degree(f)
            except InputError:
                raise InputError(f"relation not homogeneous: {f}") from None
            rels.append(f)
        self.relations = tuple(rels)

    @property
    def names(self):
        return tuple(n for n, _ in self.variables)

    @property
    def weights(self):
        return tuple(w for _, w in self.variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def default_order(self) -> orders.MonomialOrder:
        return self._order

    def weight1_indices(self):
        return tuple(i for i, (_, w) in enumerate(self.variables) if w == 1)

    def weight0_indices(self):
        return tuple(i for i, (_, w) in enumerate(self.variables) if w == 0)

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def variable(self, name_or_index) -> "MultiPoly":
        i = (
            name_or_index
            if isinstance(name_or_index, int)
            else self.index_of(name_or_index)
        )
        exps = [0] * self.nvars
        exps[i] = 1
        return MultiPoly(self, {tuple(exps): 1})

    def same_ambient(self, other: "RingSpec") -> bool:
        return self.p == other.p and self.variables == other.variables

    def _key(self):
        return (
            self.p.p,
            self.variables,
            tuple(frozenset(r._terms.items()) for r in self.relations),
        )

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        vs = ", ".join(f"{n}:{w}" for n, w in self.variables)
        return f"RingSpec(F{self.p.p}; {vs}; {len(self.relations)} relations)"


class MultiPoly:
    """Sparse multivariate polynomial: monomial -> nonzero coefficient."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        clean = {}
        for exps, c in terms.items():
            c %= ring.p.p
            if c == 0:
                continue
            if len(exps) != ring.nvars:
                raise InputError(
                    f"monomial width {len(exps)} != variable count {ring.nvars}"
                )
            if any(e < 0 for e in exps):
                raise InputError("negative exponent in monomial")
            if any(e >= EXPONENT_CAP for e in exps):
                raise InputError("exponent exceeds the 2^16 cap")
            clean[tuple(exps)] = c
        self._terms = clean

    # -- constructors

    @classmethod
    def zero(cls, ring: RingSpec) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: RingSpec, c: int) -> "MultiPoly":
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def monomial(cls, ring: RingSpec, exps, c: int = 1) -> "MultiPoly":
        return cls(ring, {tuple(exps): c})

    @classmethod
    def from_unipoly(cls, ring: RingSpec, u: UniPoly, var) -> "MultiPoly":
        if ring.p != u.p:
            raise ModulusMismatch("modulus of polynomial differs from ring")
        i = var if isinstance(var, int) else ring.index_of(var)
        terms = {}
        for k, c in enumerate(u.coeffs):
            if c:
                exps = [0] * ring.nvars
                exps[i] = k
                terms[tuple(exps)] = c
        return cls(ring, terms)

    # -- queries

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Terms as (monomial, coefficient), descending in the ring's
        default order."""
        key = self.ring.default_order.key
        return tuple((m, self._terms[m]) for m in sorted(self._terms, key=key, reverse=True))

    def term_dict(self) -> dict:
        return dict(self._terms)

    def constant_value(self):
        """The coefficient if this is a constant, else None."""
        if self.is_zero:
            return 0
        if len(self._terms) == 1:
            (m, c), = self._terms.items()
            if not any(m):
                return c
        return None

    def to_unipoly(self, var) -> UniPoly:
        """View a polynomial supported on one variable as a UniPoly."""
        i = var if isinstance(var, int) else self.ring.index_of(var)
        coeffs = {}
        for m, c in self._terms.items():
            if any(e for j, e in enumerate(m) if j != i):
                raise InputError(f"{self} involves variables other than index {i}")
            coeffs[m[i]] = c
        top = max(coeffs, default=-1)
        return UniPoly(self.ring.p, [coeffs.get(k, 0) for k in range(top + 1)])

    # -- arithmetic

    def _check(self, other: "MultiPoly"):
        if not self.ring.same_ambient(other.ring):
            raise RingMismatch(f"rings differ: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly(self.ring, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) - c
        return MultiPoly(self.ring, terms)

    def __neg__(self):
        return MultiPoly(self.ring, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.ring, {m: c * other for m, c in self._terms.items()})
        self._check(other)
        p = self.ring.p.p
        out: dict[tuple, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = (out.get(m, 0) + c1 * c2) % p
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative power of a polynomial")
        result = MultiPoly.const(self.ring, 1)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- identity

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ring.same_ambient(other.ring)
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring.p.p, self.ring.variables, frozenset(self._terms.items())))

    def __str__(self):
        return format_multipoly(self)

    def __repr__(self):
        return f"MultiPoly({format_multipoly(self)})"


def format_multipoly(f: MultiPoly) -> str:
    """Canonical text form: terms descending in the default order,
    coefficient printed unless it is 1 on a non-constant monomial."""
    if f.is_zero:
        return "0"
    names = f.ring.names
    parts = []
    for m, c in f.terms():
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e >= 2:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# grading


def x_degree(f: MultiPoly) -> int:
    """Common weight of all terms of f, ignoring weight-zero variables;
    raises if f is zero or inhomogeneous."""
    if f.is_zero:
        raise InputError("the zero polynomial has no x-degree")
    w1 = f.ring.weight1_indices()
    degs = {sum(exps[i] for i in w1) for exps in f.term_dict()}
    if len(degs) != 1:
        raise InputError("polynomial is not homogeneous in the weighted variables")
    return degs.pop()


# ---------------------------------------------------------------------------
# least powers


def _least_power(one, gens, step, limit: int, tau=None) -> int:
    """Least k >= 1 with (gens)^k, or (gens, tau)^k with a tau, inside C.

    `step(f, g)` returns the residue of f*g, or None when f*g lies in C.
    Starting from `one`, each degree b multiplies every survivor of the
    one before by every generator and keeps the distinct residues: f in
    C implies g*f in C, so only products outside C need extending.
    Without a tau the first degree with no survivor is the answer.  With
    one, (gens, tau)^k lies in C iff tau^(k-b) * (gens)^b does for all
    b <= k: k = max(1, max_b (b + e_b)) before the first empty degree,
    e_b the longest chain r, tau*r, ... into C from a degree-b survivor.
    Each product checks the wall-clock deadline; more than `limit` of
    them raise BudgetExceeded("power_products"), a degree past 2^20
    InputError."""
    counts, k, frontier = itertools.count(1), 1, [one]

    def times(f, g):
        if next(counts) > limit:
            raise BudgetExceeded("power_products", limit)
        check_deadline()
        return step(f, g)

    for b in range(1 << 20):
        for r in frontier if tau is not None else ():
            e = 0
            while r is not None:
                r, e = times(r, tau), e + 1
            k = max(k, b + e)
        # distinct residues in first-seen order, so runs repeat
        frontier = list(dict.fromkeys(
            r for f in frontier for g in gens if (r := times(f, g)) is not None
        ))
        if not frontier:
            return b + 1 if tau is None else k
    raise InputError("growth exponent search exceeded 2^20")


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: RingSpec):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> MultiPoly:
        result = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                result = result + rhs if val == "+" else result - rhs
            else:
                return result

    def term(self) -> MultiPoly:
        result = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> MultiPoly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            if val >= EXPONENT_CAP:
                raise ParseError(f"exponent {val} exceeds the 2^16 cap", pos)
            return base**val
        return base

    def atom(self) -> MultiPoly:
        kind, val, pos = self.next()
        if kind == "int":
            return MultiPoly.const(self.ring, val)
        if kind == "ident":
            if val not in self.ring.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ring.variable(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val, pos = self.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, ring: RingSpec) -> MultiPoly:
    """Parse an expression (+, -, *, ^, parentheses, integers, variables)
    into a fully expanded canonical polynomial with coefficients mod p."""
    parser = _Parser(_tokenize(text), ring)
    result = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    return result


def parse_unipoly(text: str, p: PrimeModulus, var: str = "t") -> UniPoly:
    """Parse a univariate expression in `var` over F_p."""
    ring = RingSpec(p, ((var, 0),))
    return parse_poly(text, ring).to_unipoly(var)


# ---------------------------------------------------------------------------
# Frobenius powers


def frobenius_generators(ideal, q: PrimePower):
    """Ideal generated by g^q for the listed generators of `ideal`; the
    ambient relations ride along by the quotient-ring convention."""
    from .groebner import IdealHandle

    ring = ideal.ring
    if q.p != ring.p:
        raise InputError(
            f"characteristic mismatch: q is a power of {q.p.p}, ring has {ring.p.p}"
        )
    return IdealHandle(ring, tuple(g ** q.q for g in ideal.generators))
