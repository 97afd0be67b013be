"""Ideal arithmetic engine.

Reduced Groebner bases via Buchberger (sugar strategy, both classical
pair criteria), normal forms, membership, equality, elimination,
intersection, colon, saturation, and an independent bounded-degree
linear-algebra membership oracle.

A Buchberger run that extends a known reduced basis is seeded with it,
and forms no pair inside it.  Elimination is one computation
(`_eliminated`): a reduced basis in an elimination order, keeping the
elements whose lead is free of the eliminated block.  `eliminate` runs
it on the ring's variables.  With w one extra exponent slot past the
ring's variables, intersection runs it on w*A + (1-w)*B, colon on
w*rGB(I) + (1-w)*f, its result keeping its basis; the saturation
I : f^infinity on rGB(I) + (1 - w*f), and `saturation_exponent` finds
the chain's stabilization exponent from that by normal forms.
`saturate` keeps the colon chain itself as the tests' independent
reference.

Quotient rings never get a separate arithmetic layer: every IdealHandle
silently carries its ring's relations, so all computations happen in the
ambient polynomial ring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import budgets as budgets_mod
from . import orders
from .errors import BudgetExceeded, InputError, RingMismatch
from .fpoly import MultiPoly, RingSpec, _least_power
from .orders import monomials_of_degree

DEFAULT_BUDGETS = budgets_mod.DEFAULT


def _to_raw(f: MultiPoly, order: orders.MonomialOrder):
    """Term list of f as (key, coefficient), leading term first."""
    return sorted(((order.key(m), c) for m, c in f._terms.items()), reverse=True)


def _from_raw(ring: RingSpec, order: orders.MonomialOrder, raw) -> MultiPoly:
    return MultiPoly(ring, {order.exps(k): c for k, c in raw})


class _BasisElt:
    """A monic raw polynomial with its leading monomial as key, exponent
    word (see `orders`), exponent tuple and total degree."""

    __slots__ = ("lead_key", "lead_word", "lead_exps", "lead_deg", "terms", "sugar")

    def __init__(self, order: orders.MonomialOrder, raw, sugar=None):
        self.lead_key = raw[0][0]
        self.lead_word = ~self.lead_key & order.cmask
        self.lead_exps = order.exps(self.lead_key)
        self.lead_deg = sum(self.lead_exps)
        self.terms = raw
        self.sugar = self.lead_deg if sugar is None else sugar


def _make_monic(raw, p):
    lc = raw[0][1]
    if lc == 1:
        return raw
    inv = pow(lc, p - 2, p)
    return [(k, (c * inv) % p) for k, c in raw]


def _nf_raw(fraw, basis, order: orders.MonomialOrder, p: int, quotients=None):
    """Full normal form of a raw polynomial against monic basis elements.

    With a `quotients` dict, each reduction also records its quotient
    term, so that f = sum over g of quotients[g] * g + the normal form,
    each quotients[g] a raw {key: coefficient} dict.  A term is reduced
    by the first element of `basis` whose lead divides it."""
    cmask, guard = order.cmask, order.guard
    D: dict[int, int] = {}
    heap: list[int] = []
    for k, c in fraw:
        prev = D.get(k, 0)
        nc = (prev + c) % p
        if nc:
            if not prev:
                heapq.heappush(heap, -k)
            D[k] = nc
        else:
            D.pop(k, None)
    out = []
    last = None
    while heap:
        k = -heapq.heappop(heap)
        if k == last:
            continue
        last = k
        c = D.get(k)
        if not c:
            continue
        word = ~k & cmask | guard
        for g in basis:
            if (word - g.lead_word) & guard == guard:
                break
        else:
            out.append((k, c))
            del D[k]
            continue
        shift = k - g.lead_key
        if quotients is not None:
            quotients.setdefault(g, {})[shift + order.one] = c
        for k2, c2 in g.terms:
            kk = k2 + shift
            prev = D.get(kk, 0)
            nc = (prev - c * c2) % p
            if nc:
                if not prev:
                    heapq.heappush(heap, -kk)
                D[kk] = nc
            else:
                D.pop(kk, None)
    return out


def _spoly_raw(f: _BasisElt, g: _BasisElt, kl: int, p: int):
    """The S-polynomial of f and g, whose leads have lcm key kl."""
    D: dict[int, int] = {}
    shift_f = kl - f.lead_key
    for k, c in f.terms:
        kk = k + shift_f
        D[kk] = (D.get(kk, 0) + c) % p
    shift_g = kl - g.lead_key
    for k, c in g.terms:
        kk = k + shift_g
        D[kk] = (D.get(kk, 0) - c) % p
    raw = [(k, c) for k, c in D.items() if c]
    raw.sort(reverse=True)
    return raw


def _buchberger(
    gens_raw, order: orders.MonomialOrder, p: int, budgets, seed=()
) -> list[_BasisElt]:
    """Reduced Groebner basis from raw generators, deterministic.

    `seed` holds monic raw elements that already form a Groebner basis:
    they come first, and no pair inside them is formed (they reduce to
    zero, so the chain criterion counts them as treated).  Pairs are
    taken from a heap keyed by (sugar, lcm, (i, j)); a pair's key is fixed
    when the pair is made.  Each pair that survives the criteria counts
    against budgets.gb_pairs and checks the wall-clock deadline."""
    one, cmask, guard = order.one, order.cmask, order.guard
    G = [_BasisElt(order, raw) for raw in seed]
    for raw in sorted(gens_raw, reverse=True):
        if raw:
            G.append(_BasisElt(order, _make_monic(raw, p)))

    # pending holds the pairs not yet taken, for the chain criterion;
    # queue holds (sugar, lcm key, (i, j)) for selection
    pending = set()
    queue = []

    def add_pair(i, j):
        gi, gj = G[i], G[j]
        L = tuple(map(max, gi.lead_exps, gj.lead_exps))
        sugar = sum(L) + max(gi.sugar - gi.lead_deg, gj.sugar - gj.lead_deg)
        pending.add((i, j))
        heapq.heappush(queue, (sugar, order.key(L), (i, j)))

    for j in range(len(seed), len(G)):
        for i in range(j):
            add_pair(i, j)

    reductions = 0
    while queue:
        sugar, kl, (i, j) = heapq.heappop(queue)
        pending.discard((i, j))
        # product criterion: coprime leading monomials
        if kl == G[i].lead_key + G[j].lead_key - one:
            continue
        # chain criterion
        word = ~kl & cmask | guard
        skip = False
        for h, g in enumerate(G):
            if (word - g.lead_word) & guard == guard and h != i and h != j:
                pih = (min(i, h), max(i, h))
                pjh = (min(j, h), max(j, h))
                if pih not in pending and pjh not in pending:
                    skip = True
                    break
        if skip:
            continue
        reductions += 1
        if reductions > budgets.gb_pairs:
            raise BudgetExceeded("gb_pairs", budgets.gb_pairs)
        budgets_mod.check_deadline()
        s = _spoly_raw(G[i], G[j], kl, p)
        r = _nf_raw(s, G, order, p)
        if not r:
            continue
        elt = _BasisElt(order, _make_monic(r, p), sugar=sugar)
        new_index = len(G)
        G.append(elt)
        if len(G) > budgets.gb_basis:
            raise BudgetExceeded("gb_basis", budgets.gb_basis)
        for k in range(new_index):
            add_pair(k, new_index)

    # minimalize: drop elements whose lead is divisible by another lead
    # (by an equal one only when that comes first)
    keep = []
    for i, g in enumerate(G):
        word = g.lead_word | guard
        if any(
            (word - f.lead_word) & guard == guard and (f.lead_key != g.lead_key or j < i)
            for j, f in enumerate(G)
            if j != i
        ):
            continue
        keep.append(g)
    return _interreduce(keep, order, p)


def _interreduce(keep, order: orders.MonomialOrder, p: int) -> list[_BasisElt]:
    """The reduced basis of a minimal Groebner basis: each element's
    normal form modulo the others, monic, largest lead first."""
    reduced = []
    for idx, g in enumerate(keep):
        r = _nf_raw(g.terms, keep[:idx] + keep[idx + 1 :], order, p)
        if r:
            reduced.append(_BasisElt(order, _make_monic(r, p)))
    reduced.sort(key=lambda g: g.lead_key, reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# public handles and operations


class IdealHandle:
    """An ideal given by generators in a RingSpec, with its reduced
    Groebner basis in the ring's default order cached, both as
    MultiPolys and as the engine's basis elements.  The ring's quotient
    relations are appended to the generators in every computation."""

    __slots__ = ("ring", "generators", "_basis", "_base")

    def __init__(self, ring: RingSpec, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                from .fpoly import parse_poly

                g = parse_poly(g, ring)
            if not ring.same_ambient(g.ring):
                raise RingMismatch("generator lives in a different ring")
            gens.append(g)
        self.generators = tuple(gens)
        # (reduced basis as MultiPolys, the same as _BasisElts), once computed
        self._basis: tuple[tuple, list] | None = None
        self._base: IdealHandle | None = None

    @property
    def _cache(self):
        """The cached basis keyed by its order, the view that the trace
        hook of perfbench/run.py reads."""
        return {} if self._basis is None else {self.ring.default_order: self._basis}

    def effective_generators(self):
        return self.generators + self.ring.relations

    def extended(self, extra) -> IdealHandle:
        """This ideal plus the generators `extra`; its basis run is seeded
        with this ideal's reduced basis."""
        J = IdealHandle(self.ring, self.generators + tuple(extra))
        J._base = self
        return J

    def _set_basis(self, basis):
        order = self.ring.default_order
        self._basis = (tuple(_from_raw(self.ring, order, g.terms) for g in basis), basis)

    def groebner_basis(self, budgets=DEFAULT_BUDGETS):
        """The reduced basis in the ring's default order."""
        if self._basis is None:
            order, base = self.ring.default_order, self._base
            seed = [g.terms for g in _basis_for(base, budgets)[1]] if base else ()
            gens = self.generators[len(base.generators) :] if base else self.effective_generators()
            raws = [_to_raw(g, order) for g in gens if not g.is_zero]
            self._set_basis(_buchberger(raws, order, self.ring.p.p, budgets, seed))
        return self._basis[0]

    def contains(self, f: MultiPoly, budgets=DEFAULT_BUDGETS) -> bool:
        order, basis = _basis_for(self, budgets)
        return not _nf_raw(_to_raw(f, order), basis, order, self.ring.p.p)

    def is_unit_ideal(self, budgets=DEFAULT_BUDGETS) -> bool:
        gb = self.groebner_basis(budgets=budgets)
        return len(gb) == 1 and gb[0].constant_value() == 1

    def __repr__(self):
        return f"IdealHandle({len(self.generators)} generators in {self.ring!r})"


@dataclass(frozen=True)
class SaturationResult:
    ideal: IdealHandle
    stabilization_exponent: int


def _basis_for(I: IdealHandle, budgets):
    """The default order and I's cached reduced basis as _BasisElts,
    computed on first use."""
    if I._basis is None:
        I.groebner_basis(budgets=budgets)
    return I.ring.default_order, I._basis[1]


def normal_form(f: MultiPoly, I: IdealHandle, budgets=DEFAULT_BUDGETS):
    """Remainder of f under full division by the reduced basis; zero iff
    f is in the ideal."""
    order, basis = _basis_for(I, budgets)
    raw = _nf_raw(_to_raw(f, order), basis, order, I.ring.p.p)
    return _from_raw(I.ring, order, raw)


def ideal_equal(I: IdealHandle, J: IdealHandle, budgets=DEFAULT_BUDGETS) -> bool:
    if not I.ring.same_ambient(J.ring):
        raise RingMismatch("cannot compare ideals in different rings")
    return I.groebner_basis(budgets=budgets) == J.groebner_basis(budgets=budgets)


def _eliminated(
    raws, order: orders.MonomialOrder, p: int, front, budgets, seed=()
) -> list[_BasisElt]:
    """The reduced basis of `seed` and the raw generators in `order`, an
    elimination order whose front block, the variable indices `front`, is
    compared first, keeping the elements whose lead has no variable of
    `front`: any term in `front` would outrank such a lead."""
    basis = _buchberger(raws, order, p, budgets, seed)
    return [g for g in basis if not any(g.lead_exps[i] for i in front)]


def _w_order(ring: RingSpec) -> orders.MonomialOrder:
    """The ring's order with one more exponent slot, w, at index n past
    the ring's n variables, in an elimination block of its own."""
    return orders.block(ring.weights + (1,), (ring.nvars,))


def _w_times(order: orders.MonomialOrder, p: int, w_poly, g: MultiPoly):
    """Raw terms of w_poly * g in a `_w_order`, w_poly's coefficients
    from w^0 up."""
    return sorted(
        (
            (order.key(m + (e,)), c * s % p)
            for m, c in g._terms.items()
            for e, s in enumerate(w_poly)
            if s
        ),
        reverse=True,
    )


def _w_basis(I: IdealHandle, order: orders.MonomialOrder, e: int, budgets):
    """w^e times I's reduced basis, raw in the `_w_order` `order`: a Groebner
    basis there, as on one w-degree that order is the ring's default order."""
    dflt, basis = _basis_for(I, budgets)
    return [[(order.key(dflt.exps(k) + (e,)), c) for k, c in g.terms] for g in basis]


def _w_free(ring: RingSpec, order: orders.MonomialOrder, raws, budgets, seed=()):
    """Generators of the ideal of `seed` and `raws` (in a `_w_order`)
    intersected with the ring: eliminate w, then drop its slot."""
    n = ring.nvars
    return [
        MultiPoly(ring, {order.exps(k)[:n]: c for k, c in g.terms})
        for g in _eliminated(raws, order, ring.p.p, (n,), budgets, seed)
    ]


def _saturation_gens(I: IdealHandle, f: MultiPoly, budgets):
    """Generators of I : f^infinity in one elimination: eliminate w from
    I + (1 - w*f), seeded with I's reduced basis."""
    if f.is_zero:
        raise InputError("saturation by zero")
    order, p = _w_order(I.ring), I.ring.p.p
    # 1 is the least monomial, so appending it keeps the terms in order
    raw = _w_times(order, p, (0, -1), f) + [(order.one, 1)]
    return _w_free(I.ring, order, [raw], budgets, _w_basis(I, order, 0, budgets))


def intersect(I: IdealHandle, J: IdealHandle, budgets=DEFAULT_BUDGETS) -> IdealHandle:
    """I intersect J: eliminate w from w*I + (1-w)*J."""
    if not I.ring.same_ambient(J.ring):
        raise RingMismatch("cannot intersect ideals in different rings")
    order, p = _w_order(I.ring), I.ring.p.p
    raws = [_w_times(order, p, (0, 1), g) for g in I.effective_generators() if not g.is_zero]
    raws += [_w_times(order, p, (1, -1), g) for g in J.effective_generators() if not g.is_zero]
    return IdealHandle(I.ring, _w_free(I.ring, order, raws, budgets))


def _exact_div_multi(g: MultiPoly, f: MultiPoly) -> MultiPoly:
    """Exact division g / f in the ambient polynomial ring."""
    ring = g.ring
    order = ring.default_order
    p = ring.p.p
    fraw = _to_raw(f, order)
    basis = [_BasisElt(order, _make_monic(fraw, p))]
    quotients: dict = {}
    if _nf_raw(_to_raw(g, order), basis, order, p, quotients):
        raise InputError("inexact multivariate division")
    lc = fraw[0][1]
    q = _from_raw(ring, order, quotients.get(basis[0], {}).items())
    if lc != 1:
        q = q * pow(lc, p - 2, p)
    return q


def colon(I: IdealHandle, f: MultiPoly, budgets=DEFAULT_BUDGETS) -> IdealHandle:
    """I : f, the reduced basis of I intersect (f) (w eliminated from
    w*rGB(I) + (1-w)*f) divided exactly by f.  As LM(g/f) = LM(g)/LM(f),
    the quotients, monic and interreduced, are I : f's reduced basis.
    The principal side deliberately omits the quotient relations: for
    ideals containing them, the colon of the preimage is the preimage of
    the colon."""
    if f.is_zero:
        raise InputError("colon by zero")
    if f.constant_value() is not None:
        return I.extended(())
    ring, order, p = I.ring, _w_order(I.ring), I.ring.p.p
    raws = [_w_times(order, p, (1, -1), f)]
    gens = _w_free(ring, order, raws, budgets, _w_basis(I, order, 1, budgets))
    J = IdealHandle(ring, [_exact_div_multi(g, f) for g in gens])
    dflt = ring.default_order
    quotients = [_BasisElt(dflt, _make_monic(_to_raw(g, dflt), p)) for g in J.generators]
    J._set_basis(_interreduce(quotients, dflt, p))
    return J


def saturate(I: IdealHandle, f: MultiPoly, budgets=DEFAULT_BUDGETS) -> SaturationResult:
    """Iterated colon until stabilization; the exponent N satisfies
    I : f^N = I : f^(N+1) = I : f^infinity.  One colon and one reduced
    basis per step: no production caller, this chain is the tests'
    independent reference for `saturation_exponent`."""
    if f.is_zero:
        raise InputError("saturation by zero")
    current = I
    for n in range(budgets.saturation_steps):
        nxt = colon(current, f, budgets)
        if ideal_equal(nxt, current, budgets):
            return SaturationResult(current, n)
        current = nxt
    raise BudgetExceeded("saturation_steps", budgets.saturation_steps)


def saturation_exponent(I: IdealHandle, f: MultiPoly, budgets=DEFAULT_BUDGETS) -> int:
    """The stabilization exponent N of `saturate`, without the colon chain.

    The chain I : f^n ascends and is stable from its first repeat on, at
    J = I : f^infinity; and I : f^n = J exactly when f^n * J lies in I.
    So N is the least n with f^n * g in I for every generator g of J,
    which comes from one elimination (`_saturation_gens`).  The search
    keeps the nonzero normal forms of f^n * g modulo I's reduced basis,
    as raw terms, and multiplies them by f as key sums:
    NF(f * h) = NF(f * NF(h)).  Each step checks the wall-clock deadline;
    N >= budgets.saturation_steps raises BudgetExceeded, where the chain
    would."""
    gens = _saturation_gens(I, f, budgets)
    order, basis = _basis_for(I, budgets)
    p, one = I.ring.p.p, order.one
    fraw = _to_raw(f, order)

    def nf(raw):
        return _nf_raw(raw, basis, order, p)

    survivors = [r for g in gens if (r := nf(_to_raw(g, order)))]
    n = 0
    while survivors:
        n += 1
        if n >= budgets.saturation_steps:
            raise BudgetExceeded("saturation_steps", budgets.saturation_steps)
        budgets_mod.check_deadline()
        survivors = [
            r
            for h in survivors
            if (r := nf([(kh + kf - one, ch * cf) for kh, ch in h for kf, cf in fraw]))
        ]
    return n


def eliminate(I: IdealHandle, front, budgets=DEFAULT_BUDGETS) -> IdealHandle:
    """Generators of I intersected with the subring on the kept
    variables, via a block order eliminating `front`."""
    ring = I.ring
    front_idx = tuple(
        v if isinstance(v, int) else ring.index_of(v) for v in front
    )
    for i in front_idx:
        if not 0 <= i < ring.nvars:
            raise InputError(f"variable index {i} out of range")
    order = orders.block(ring.weights, front_idx)
    raws = [_to_raw(g, order) for g in I.effective_generators() if not g.is_zero]
    kept = _eliminated(raws, order, ring.p.p, front_idx, budgets)
    return IdealHandle(ring, [_from_raw(ring, order, g.terms) for g in kept])


def power_containment(P: IdealHandle, Q: IdealHandle, budgets=DEFAULT_BUDGETS, tau=None) -> int:
    """Least k >= 1 with P^k, or (P + (tau))^k with a tau, inside Q, by
    fpoly's ascending search over products of P's generators, split by
    x-degree with a tau.  Its survivors are normal forms modulo Q's
    reduced basis, raw term tuples: NF(g*f) = NF(g*NF(f)), and a product
    of terms is a key sum, so no MultiPoly is built per product."""
    order, basis = _basis_for(Q, budgets)
    p = P.ring.p.p
    one = order.one

    def step(f, g):
        r = _nf_raw([(kf + kg - one, cf * cg) for kf, cf in f for kg, cg in g], basis, order, p)
        return tuple(r) if r else None

    gens = [_to_raw(g, order) for g in P.generators if not g.is_zero]
    t = None if tau is None else _to_raw(tau, order)
    return _least_power(((one, 1),), gens, step, budgets.power_products, t)


def _in_span_mod_p(columns, target: dict, p: int) -> bool:
    """Whether `target` lies in the F_p-span of the sparse `columns`
    ({row: coefficient} dicts): each column, reduced by the pivots kept
    so far, becomes the pivot of its largest row left, if any; the
    target is in the span iff it reduces to zero."""
    pivots = {}  # pivot row -> column, 1 at that row, zero on rows above

    def reduce(v):  # in place; returns v's largest row left, None if v is 0
        while v:
            row = max(v)
            piv = pivots.get(row)
            if piv is None:
                return row
            c = v[row]
            for r, a in piv.items():
                w = (v.get(r, 0) - c * a) % p
                if w:
                    v[r] = w
                else:
                    del v[r]
        return None

    for col in columns:
        row = reduce(col)
        if row is not None:
            inv = pow(col[row], p - 2, p)
            pivots[row] = {r: a * inv % p for r, a in col.items()}
    return reduce(dict(target)) is None


def member_bounded_oracle(
    f: MultiPoly,
    I: IdealHandle,
    t_bound: int,
    x_bound: int,
    budgets=DEFAULT_BUDGETS,
) -> bool:
    """Decide whether f = sum c_i g_i with multipliers of t-degree at most
    t_bound and weighted x-degree at most x_bound, by solving one F_p
    linear system over the monomial basis.  Monotone in both bounds; a
    True is definitive, a False only means "not within bounds"."""
    if t_bound < 0 or x_bound < 0:
        raise InputError("oracle bounds must be non-negative")
    ring = I.ring
    p = ring.p.p
    w1 = ring.weight1_indices()
    w0 = ring.weight0_indices()

    def bounded_monomials():
        # the union over totals; neither the answer nor the oracle_dim
        # count depends on the order of the monomials
        xs = [e for d in range(x_bound + 1) for e in monomials_of_degree(len(w1), d)]
        ts = [e for d in range(t_bound + 1) for e in monomials_of_degree(len(w0), d)]
        for xe in xs:
            for te in ts:
                m = [0] * ring.nvars
                for i, e in zip(w1, xe):
                    m[i] = e
                for i, e in zip(w0, te):
                    m[i] = e
                yield tuple(m)

    support = list(bounded_monomials())
    columns = []  # {row: coefficient} of each multiple m * g
    row_index: dict[tuple, int] = {}
    for g in I.effective_generators():
        for m in support:
            col = {}
            columns.append(col)
            if len(columns) > budgets.oracle_dim:
                raise BudgetExceeded("oracle_dim", budgets.oracle_dim)
            for gm, gc in g._terms.items():
                prod = tuple(a + b for a, b in zip(m, gm))
                r = row_index.setdefault(prod, len(row_index))
                if len(row_index) > budgets.oracle_dim:
                    raise BudgetExceeded("oracle_dim", budgets.oracle_dim)
                col[r] = gc
    target = {row_index.setdefault(m, len(row_index)): c for m, c in f._terms.items()}
    return _in_span_mod_p(columns, target, p)

