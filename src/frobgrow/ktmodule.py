"""Degree-by-degree exact linear algebra over k[t].

A homogeneous ideal in k[t][x_1..x_n] (t of weight zero, the x_i of
weight one) meets the degree-d slice S_d in a k[t]-submodule of the free
module on the degree-d monomials.  Because k[t] is a principal ideal
domain, colon, membership, and contraction questions about such slices
reduce to column echelon forms of matrices of univariate polynomials,
which is far cheaper than an elimination-order Groebner basis when the
t-degrees are large.

The generators that are x-monomials up to a unit (the x_i^q of I^[q],
the m^K of a certified isolated component, a constant) are quotiented
out first: slices live on the standard monomials, those none of them
divides, with the other generators' multiples as columns.  For I^[q]
that is the paper's M_d, which `hq.build_Md` builds with `_columns_of`.

Generator columns only touch the monomials in their support, so every
computation is restricted to the support-connectivity component of the
target; for multigraded relations this recovers the grading decomposition
automatically.

SliceCache is the one store per ideal: it answers membership from the
slices it keeps, and reduces each degree further, to the Smith normal
form of S_d / I_d (free rank and invariant factors).  The growth
exponents of the components of a decomposition, and the isolated
component's colon panel, are read off those invariants, computed once
per degree and shared by every component.
"""

from __future__ import annotations

from typing import NamedTuple

from .budgets import DEFAULT as DEFAULT_BUDGETS, check_deadline
from .errors import InputError
from .fpoly import (
    MultiPoly,
    RingSpec,
    UniPoly,
    _least_power,
    uni_gcd,
    uni_lcm,
    x_degree,
)
from .orders import monomials_of_degree


def _single_t_index(ring: RingSpec) -> int:
    w0 = ring.weight0_indices()
    if len(w0) != 1:
        raise InputError(
            "degreewise linear algebra needs exactly one weight-zero variable"
        )
    return w0[0]


def _columns_of(f: MultiPoly, ti: int, w1, shift) -> dict:
    """f * x^shift as a vector {x-monomial exps: UniPoly} over k[t]."""
    out = {}
    for exps, c in f.term_dict().items():
        out.setdefault(tuple(exps[i] + s for i, s in zip(w1, shift)), {})[exps[ti]] = c
    p = f.ring.p
    return {row: UniPoly(p, [d.get(k, 0) for k in range(max(d) + 1)]) for row, d in out.items()}


def _supports(f: MultiPoly, w1):
    return sorted({tuple(exps[i] for i in w1) for exps in f.term_dict()})


def _generator_data(ideal):
    """(covers, columns) of an ideal, shared by all its slices: the
    x-exponents of the single-term generators free of t, and (generator,
    x-degree, x-supports) of every other nonzero generator."""
    ring = ideal.ring
    w0, w1 = ring.weight0_indices(), ring.weight1_indices()
    covers, columns = [], []
    for g in ideal.effective_generators():
        terms = g.term_dict()
        if len(terms) == 1:
            (exps,) = terms
            if not any(exps[i] for i in w0):
                covers.append(tuple(exps[i] for i in w1))
                continue
        if terms:
            columns.append((g, x_degree(g), _supports(g, w1)))
    return covers, columns


def _cover_test(covers, degree: int):
    """Whether a degree-`degree` x-monomial is divisible by a cover; only
    the covers of at most that degree are tried, each on the variables
    it involves."""
    low = [[(i, e) for i, e in enumerate(c) if e] for c in covers if sum(c) <= degree]
    return lambda row: any(all(row[i] >= e for i, e in c) for c in low)


class DegreeSlice:
    """The component of the degree-d slice of an ideal containing the
    given seed monomials, held in column echelon form over k[t].

    Its rows are the standard monomials: a row some cover divides is zero
    in S_d / I_d, so covered seeds and column entries are dropped.
    `generators` is the ideal's `_generator_data`, passed in by callers
    that build many slices of one ideal."""

    def __init__(self, ideal, degree: int, seeds, generators=None):
        check_deadline()
        ring = ideal.ring
        self._ti = _single_t_index(ring)
        self._w1 = ring.weight1_indices()
        self.p = ring.p
        self.degree = degree
        covers, gens = generators if generators is not None else _generator_data(ideal)
        self.covered = _cover_test(covers, degree)
        gen_data = [gd for gd in gens if gd[1] <= degree]
        rows, columns = self._collect(gen_data, seeds, degree)
        self.rows = rows
        self._echelon_pivots = _echelon(columns, sorted(rows, reverse=True))[0]

    def _collect(self, gen_data, seeds, degree):
        standard = {}  # row reached -> whether no cover divides it
        work = []

        def keep(row):  # whether row is standard; queued when first reached
            if row not in standard:
                standard[row] = not self.covered(row)
                if standard[row]:
                    work.append(row)
            return standard[row]

        for s in seeds:
            if sum(s) != degree:
                raise InputError("seed monomial has the wrong degree")
            keep(s)
        placed = set()
        columns = []
        while work:
            mono = work.pop()
            for gi, (g, gd, sup) in enumerate(gen_data):
                for s in sup:
                    shift = tuple(m - e for m, e in zip(mono, s))
                    if any(e < 0 for e in shift):
                        continue
                    if (gi, shift) in placed:
                        continue
                    placed.add((gi, shift))
                    col = _columns_of(g, self._ti, self._w1, shift)
                    columns.append({r: u for r, u in col.items() if keep(r)})
        return {r for r, std in standard.items() if std}, columns

    def contains(self, vec: dict) -> bool:
        """Membership of a vector {x-exps: UniPoly} by exact-division
        reduction against the echelon; covered entries are zero in S_d / I_d
        and are dropped first."""
        v = {r: u for r, u in vec.items() if not u.is_zero and not self.covered(r)}
        if any(row not in self.rows for row in v):
            return False
        for row, piv in self._echelon_pivots:
            u = v.get(row)
            if u is None or u.is_zero:
                continue
            q, rem = divmod(u, piv[row])
            if not rem.is_zero:
                return False
            _axpy(v, -q, piv)
        return all(u.is_zero for u in v.values())

    def contains_poly(self, f: MultiPoly) -> bool:
        if f.is_zero:
            return True
        if x_degree(f) != self.degree:
            raise InputError("degree of the polynomial differs from the slice")
        return self.contains(_columns_of(f, self._ti, self._w1, (0,) * len(self._w1)))

    def invariant_factors(self) -> list:
        """Monic invariant factors of this slice's module M, one per
        pivot: S/M is the free module of rank len(rows) - len(factors)
        plus the k[t]/(d) for the factors d."""
        return invariant_factors(piv for _, piv in self._echelon_pivots)

    def colon_is_trivial(self, g: UniPoly) -> bool:
        """Whether {v : g*v in M} == M for this slice's module M, decided
        by the kernel of [columns | g*identity]: each g-column tracks its
        row under a key (None, row), and the kernel's tracked parts are
        the v with g*v in M.

        No production caller: `univariate_colon_trivial_panel` reads the
        same answer off the invariant factors, and the test suite keeps
        this route as the independent cross-check."""
        if g.is_zero:
            raise InputError("colon by zero is undefined")
        order = sorted(self.rows, reverse=True)
        one = UniPoly.one(self.p)
        columns = [dict(piv) for _, piv in self._echelon_pivots]
        columns += [{row: g, (None, row): one} for row in order]
        _, kernel = _echelon(columns, order)
        return all(self.contains({key[1]: u for key, u in c.items()}) for c in kernel)


def _echelon(columns, row_order):
    """In-place column echelon over k[t]; returns (pivots, rest):
    [(pivot_row, column)] in processing order, and the other columns,
    zero on every row of row_order.  After processing a row every
    unprocessed column is zero there, so reduction by exact division
    decides membership.  Keys outside row_order ride along in every
    column operation, so with tracking entries appended (the augmented
    matrix [A; I]) the tracked parts of `rest` generate the kernel of A."""
    remaining = [c for c in columns if c]
    pivots = []
    for row in row_order:
        active = [c for c in remaining if row in c]
        if not active:
            continue
        while len(active) > 1:
            active.sort(key=lambda c: c[row].degree)
            piv = active[0]
            for c in active[1:]:
                _axpy(c, -(c[row] // piv[row]), piv)
            active = [c for c in active if row in c]
        piv = active[0]
        remaining = [c for c in remaining if c is not piv]
        pivots.append((row, piv))
    return pivots, remaining


def invariant_factors(columns) -> list:
    """Monic invariant factors d_1 | d_2 | ... of the k[t]-matrix with
    the given sparse columns {row: UniPoly}, one per unit of its rank
    (units included), as in its Smith normal form.

    The matrix is first brought to diagonal form: the entry of least
    degree becomes the pivot, column operations clear its row and row
    operations its column (with the row cleared, those touch the pivot
    column alone), and a nonzero remainder of smaller degree takes over
    as pivot.  The diagonal is then put in divisibility order by gcd/lcm
    exchanges, which keep the module k[t]^n / image unchanged."""
    cols = [dict(c) for c in columns if c]
    diagonal = []
    while cols:
        j, row = min(
            ((k, r) for k, c in enumerate(cols) for r in c),
            key=lambda kr: cols[kr[0]][kr[1]].degree,
        )
        while True:
            piv_col = cols[j]
            piv = piv_col[row]
            for k, c in enumerate(cols):
                if k != j and row in c:
                    _axpy(c, -(c[row] // piv), piv_col)
            left = [k for k, c in enumerate(cols) if k != j and row in c]
            if left:
                j = min(left, key=lambda k: cols[k][row].degree)
                continue
            for r in [r for r in piv_col if r != row]:
                w = piv_col[r] % piv
                if w.is_zero:
                    del piv_col[r]
                else:
                    piv_col[r] = w
            left = [r for r in piv_col if r != row]
            if left:
                row = min(left, key=lambda r: piv_col[r].degree)
                continue
            break
        diagonal.append(cols.pop(j)[row].monic())
        cols = [c for c in cols if c]
    units = [d for d in diagonal if d.degree == 0]
    chain = [d for d in diagonal if d.degree > 0]
    for i in range(len(chain)):
        for k in range(i + 1, len(chain)):
            g = uni_gcd(chain[i], chain[k])
            if g != chain[i]:
                chain[i], chain[k] = g, (chain[i] * chain[k]).exact_div(g)
    return units + chain


def _axpy(target: dict, a: UniPoly, source: dict):
    """target += a * source on sparse k[t]-vectors."""
    for row, entry in source.items():
        w = target.get(row)
        w = a * entry if w is None else w + a * entry
        if w.is_zero:
            target.pop(row, None)
        else:
            target[row] = w


class DegreeInvariants(NamedTuple):
    """S_b / I_b for one x-degree b: k[t]^free_rank plus torsion whose
    largest invariant factor (monic, 1 when there is none) is `largest`."""

    free_rank: int
    largest: UniPoly

    @property
    def full(self) -> bool:
        """I_b is all of S_b."""
        return self.free_rank == 0 and self.largest.degree == 0


class SliceCache:
    """The degree slices of one x-homogeneous ideal I, its generator data
    computed once.  `member` decides membership and keeps the slices it
    builds, indexed by row.  `at(b)` gives S_b / I_b (S_b free on the
    degree-b x-monomials) from the Smith form of each row component of
    the standard monomials, the covered ones being zero there; it
    reuses `member`'s slices but keeps only the invariants of its own,
    which would otherwise dominate memory.  A full degree stays full
    above (each monomial there is a multiple of one below), so `at`
    builds nothing past the least full degree seen."""

    def __init__(self, ideal):
        self.ideal = ideal
        self._w1 = ideal.ring.weight1_indices()
        self._generators = _generator_data(ideal)
        self._by_row: dict = {}  # x-monomial -> its component's slice
        self._one = UniPoly.one(ideal.ring.p)
        self._degrees: dict = {}  # x-degree -> DegreeInvariants
        self._full_from: int | None = None

    def member(self, f: MultiPoly) -> bool:
        if f.is_zero:
            return True
        degree = x_degree(f)
        covered = _cover_test(self._generators[0], degree)
        sup = [m for m in _supports(f, self._w1) if not covered(m)]
        if not sup:  # every term of f is zero in S / I
            return True
        sl = self._by_row.get(sup[0])
        if sl is None or not all(m in sl.rows for m in sup):
            sl = DegreeSlice(self.ideal, degree, sup, self._generators)
            for row in sl.rows:
                self._by_row[row] = sl
        return sl.contains_poly(f)

    def at(self, b: int) -> DegreeInvariants:
        if self._full_from is not None and b >= self._full_from:
            return DegreeInvariants(0, self._one)
        got = self._degrees.get(b)
        if got is None:
            check_deadline()
            free, largest = 0, self._one
            covered = _cover_test(self._generators[0], b)
            todo = {m for m in monomials_of_degree(len(self._w1), b) if not covered(m)}
            while todo:
                row = todo.pop()
                sl = self._by_row.get(row)
                if sl is None:
                    sl = DegreeSlice(self.ideal, b, [row], self._generators)
                todo -= sl.rows
                factors = sl.invariant_factors()
                free += len(sl.rows) - len(factors)
                if factors:
                    largest = uni_lcm(largest, factors[-1])
            got = self._degrees[b] = DegreeInvariants(free, largest)
            if got.full:
                self._full_from = b
        return got

    def torsion_exponent(self, below: int) -> UniPoly:
        """lcm of the largest invariant factors over the degrees < below:
        g(t) is a nonzerodivisor on every such S_b / I_b, that is
        (I : g) agrees with I there, iff g is coprime to it."""
        acc = self._one
        for b in range(below):
            inv = self.at(b)
            if inv.full:
                break
            acc = uni_lcm(acc, inv.largest)
        return acc


def slice_power_containment(radical_gens, cache: SliceCache) -> int:
    """Least k >= 1 with every degree-k product of the radical generators
    in the cache's ideal, by fpoly's ascending search with slice
    membership; its survivors are the products themselves.

    No production caller: growth exponents are read off SliceCache.at;
    the test suite keeps this search as the independent cross-check."""

    def step(f, g):
        fg = f * g
        return None if cache.member(fg) else fg

    one = MultiPoly.const(cache.ideal.ring, 1)
    gens = [g for g in radical_gens if not g.is_zero]
    return _least_power(one, gens, step, DEFAULT_BUDGETS.power_products)


def univariate_colon_trivial_panel(
    cache: SliceCache, gs, max_degree: int, multiplier=None
) -> list[bool]:
    """(I : c*g) == (I : c) in every x-degree below max_degree, for each g
    in the panel and the multiplier c (default 1, where this reads
    (I : g) == I), I the ideal of the slice store `cache`.  When the
    caller knows I contains every monomial of degree >= max_degree, this
    decides the equality outright.

    One pass of SliceCache.at answers the whole panel: with T the torsion
    exponent below max_degree, g passes iff gcd(g, T / gcd(T, c)) = 1.
    On a summand k[t]/(d) the kernels of c*g and of c agree iff g is
    coprime to d / gcd(d, c), whose exponent at each irreducible,
    max(0, v(d) - v(c)), grows with v(d), so T's exponents bound them
    all; c*g acts injectively on the free part.  For a unit c this is the
    verdict of the tracked-kernel route of DegreeSlice.colon_is_trivial."""
    if any(g.is_zero for g in gs):
        raise InputError("colon by zero is undefined")
    torsion = cache.torsion_exponent(max_degree)
    if multiplier is not None:
        torsion = torsion.exact_div(uni_gcd(torsion, multiplier))
    return [uni_gcd(g, torsion).degree == 0 for g in gs]


def contraction_colon(ideal, witness: MultiPoly) -> UniPoly:
    """Monic generator of {g in k[t] : g * witness in ideal}, for a
    witness that is a single x-monomial.

    Column-reduces [e_w | generator columns] while tracking each column's
    coefficient on e_w (under the key None); the columns that reduce to
    zero generate the kernel, and the gcd of their tracked coefficients
    generates the contraction ideal.
    """
    ring = ideal.ring
    ti = _single_t_index(ring)
    w1 = ring.weight1_indices()
    terms = witness.term_dict()
    if len(terms) != 1:
        raise InputError("contraction witness must be a single monomial")
    ((exps, c),) = terms.items()
    if exps[ti] != 0:
        raise InputError("contraction witness must not involve the t-variable")
    seed = tuple(exps[i] for i in w1)
    sl = DegreeSlice(ideal, sum(seed), [seed])
    p = ring.p
    if sl.covered(seed):  # the witness is zero in S / I
        return UniPoly.one(p)
    columns = [{seed: UniPoly.const(p, c), None: UniPoly.one(p)}]
    columns += [dict(piv) for _, piv in sl._echelon_pivots]
    gen = UniPoly.zero(p)
    for col in _echelon(columns, sorted(sl.rows, reverse=True))[1]:
        gen = uni_gcd(gen, col.get(None, UniPoly.zero(p)))
    return gen.monic() if not gen.is_zero else gen
