"""Degree-by-degree exact linear algebra over k[t].

A homogeneous ideal in k[t][x_1..x_n] (t of weight zero, the x_i of
weight one) meets the degree-d slice S_d in a k[t]-submodule of the free
module on the degree-d monomials.  Because k[t] is a principal ideal
domain, membership, colon and contraction questions about such slices
reduce to column echelon forms of matrices of univariate polynomials,
and S_d / I_d to a Smith normal form, far cheaper than an
elimination-order Groebner basis when the t-degrees are large.

The generators that are x-monomials up to a unit (the x_i^q of I^[q],
the m^K of a certified isolated component, a constant) are quotiented
out first: slices live on the standard monomials, those none of them
divides, with the other generators' multiples, each generator's column
translated, as columns.  For I^[q] that is the paper's M_d.  A column
only touches the monomials in its support, so every computation is
restricted to a row component (for multigraded relations, the grading
decomposition); `_row_components` walks them for both `SliceCache.at`
and the minors scan of `hq.h_q`.

SliceCache is the one store per ideal: it answers membership from the
echelon slices it keeps, and gives each degree's free rank and largest
invariant factor from the Smith form of each component's raw columns.
Everything the certified route derives from those invariants, computed
once per degree and shared by every component, is a method of it:
`first_killed(h, cap)` gives K and `first_killed(1, K)` the isolated
growth exponent, `tau_growth` an embedded one, and `torsion_exponent`
the T that decides the isolated component's colons.  For an ideal of
covers x_i^e and one relation (I^[q] of the paper's families) the upper
degrees are read off their duals: M_(D-b) is M_b transposed (`hq`'s
module docstring).
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple

from .budgets import check_deadline, current
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


def _generator_data(ideal):
    """(covers, columns) of an ideal, shared by all its slices: the
    x-exponents of the single-term generators free of t, and (x-degree,
    x-supports, column) of every other nonzero generator."""
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
            col = _columns_of(g, _single_t_index(ring), w1, (0,) * len(w1))
            columns.append((x_degree(g), sorted(col), col))
    return covers, columns


def _cover_test(covers, degree: int):
    """Whether a degree-`degree` x-monomial is divisible by a cover; only
    the covers of at most that degree are tried, each on the variables
    it involves.  The covers that are powers of one variable (the x_i^q
    of I^[q]) reduce to one threshold per variable."""
    bound, mixed = {}, []
    for c in covers:
        if sum(c) > degree:
            continue
        support = [(i, e) for i, e in enumerate(c) if e]
        if len(support) == 1:
            ((i, e),) = support
            bound[i] = min(bound.get(i, e), e)
        else:
            mixed.append(support)
    pure = list(bound.items())
    return lambda row: any(row[i] >= e for i, e in pure) or any(
        all(row[i] >= e for i, e in c) for c in mixed
    )


def _component(gens, seeds, covered):
    """The row component of one degree reached from the seeds: its
    standard rows, those `covered` rejects not, and the multiples by
    x-monomials of the generators (`_generator_data` columns, translated)
    that meet them, with their covered entries dropped, keyed by
    (generator index, shift) in the order they are met."""
    standard = {}  # row reached -> whether no cover divides it
    work = []

    def keep(row):  # whether row is standard; queued when first reached
        if row not in standard:
            standard[row] = not covered(row)
            if standard[row]:
                work.append(row)
        return standard[row]

    for s in seeds:
        keep(s)
    columns = {}
    while work:
        mono = work.pop()
        for gi, (_, sup, col) in enumerate(gens):
            for s in sup:
                shift = tuple(map(sub, mono, s))
                if min(shift, default=0) < 0 or (gi, shift) in columns:
                    continue
                columns[gi, shift] = {
                    r: u for v, u in col.items() if keep(r := tuple(map(add, v, shift)))
                }
    return {r for r, std in standard.items() if std}, columns


def _row_components(gens, n: int, degree: int, cap, covered):
    """Each row component of one degree once, seeded from the uncovered
    monomials with every exponent at most `cap` (None: no cap), as (key,
    rows, columns): its standard rows grevlex-descending, `_component`'s
    columns, and the key, the sorted columns with rows relabeled by rank
    in `rows`, which translates share."""
    seen = set()
    for row in monomials_of_degree(n, degree, cap):
        if row in seen or covered(row):
            continue
        check_deadline()
        rows, columns = _component(gens, [row], covered)
        seen |= rows
        if not columns:  # a row no column meets: nothing to sort
            yield (), [row], columns
            continue
        rows = sorted(rows, key=lambda r: r[::-1])
        rank = {r: i for i, r in enumerate(rows)}
        key = tuple(sorted(
            tuple(sorted((rank[r], u.coeffs) for r, u in c.items())) for c in columns.values()
        ))
        yield key, rows, columns


class DegreeSlice:
    """The component of the degree-d slice of an ideal containing the
    given seed monomials, held in column echelon form over k[t].

    Its rows are the standard monomials: a row some cover divides is zero
    in S_d / I_d, so covered seeds and column entries are dropped.
    `generators` is the ideal's `_generator_data` and `covered` the
    degree's `_cover_test`, passed in by callers that build many slices
    of one ideal."""

    def __init__(self, ideal, degree: int, seeds, generators=None, covered=None):
        check_deadline()
        ring = ideal.ring
        self._ti = _single_t_index(ring)
        self._w1 = ring.weight1_indices()
        self.p = ring.p
        self.degree = degree
        covers, gens = generators if generators is not None else _generator_data(ideal)
        self.covered = covered if covered is not None else _cover_test(covers, degree)
        if any(sum(s) != degree for s in seeds):
            raise InputError("seed monomial has the wrong degree")
        gens = [gd for gd in gens if gd[0] <= degree]
        self.rows, columns = _component(gens, seeds, self.covered)
        self._echelon_pivots = _echelon(columns.values(), sorted(self.rows, reverse=True))[0]

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

    def kills(self, g: UniPoly) -> bool:
        """g(t) annihilates S_b / I_b: free rank 0 and `largest` divides g."""
        return self.free_rank == 0 and (g % self.largest).is_zero


class SliceCache:
    """The degree slices of one x-homogeneous ideal I, its generator data
    and the cover test of each x-degree computed once.  `member` decides
    membership and keeps the echelon slices it builds, indexed by row.
    `at(b)` gives S_b / I_b (S_b free on the degree-b x-monomials) from
    the Smith form of the raw columns of each row component of the
    standard monomials, enumerated under the cover cap: the largest
    single-variable cover threshold less one, when every variable has
    one.  It builds no slice, and row components whose columns agree once
    their rows are relabeled by rank (translates, say) share one Smith
    form per cache.  A full degree stays full above (each monomial there
    is a multiple of one below), so `at` computes nothing past the least
    full degree seen.

    When I is generated by the x_i^e of every weighted variable and one
    relation f of x-degree delta >= 1, with D = n(e-1) + delta, the
    standard-row matrix of degree D - b is that of degree b transposed
    (`hq`'s module docstring): same rank, same invariant factors.  So for
    0 <= D - b < b, `at(b)` takes d_b = d_(D-b) and
    r_b = N_b - N_(D-b) + r_(D-b), N_x the number of standard monomials
    of degree x, from `at(D - b)`, and walks no row component."""

    def __init__(self, ideal):
        self.ideal = ideal
        self._w1 = ideal.ring.weight1_indices()
        self._generators = _generator_data(ideal)
        self._by_row: dict = {}  # x-monomial -> its component's slice
        self._one = UniPoly.one(ideal.ring.p)
        self._degrees: dict = {}  # x-degree -> DegreeInvariants
        # a row component's columns, rows relabeled by rank -> their
        # invariant factors
        self._factors: dict = {}
        self._full_from: int | None = None
        self._covered: dict = {}  # x-degree -> its _cover_test
        # the least e with x_i^e a cover, for each i that has one
        pure = [(c.index(sum(c)), sum(c)) for c in self._generators[0] if any(c) and sum(c) in c]
        least = {i: min(e for j, e in pure if j == i) for i, _ in pure}
        self._cap = max(least.values()) - 1 if least and len(least) == len(self._w1) else None
        # D of the duality, when the covers are the x_i^e and one relation is left
        covers, columns = self._generators
        n, e = len(self._w1), (self._cap or 0) + 1
        powers = {tuple(e * (i == j) for j in range(n)) for i in range(n)}
        single = len(columns) == 1 and columns[0][0] >= 1 and set(covers) == powers
        self._dual = n * (e - 1) + columns[0][0] if single else None

    def _cover_test(self, degree: int):
        test = self._covered.get(degree)
        if test is None:
            test = self._covered[degree] = _cover_test(self._generators[0], degree)
        return test

    def member(self, f: MultiPoly) -> bool:
        if f.is_zero:
            return True
        degree = x_degree(f)
        covered = self._cover_test(degree)
        sup = sorted({tuple(e[i] for i in self._w1) for e in f.term_dict()})
        sup = [m for m in sup if not covered(m)]
        if not sup:  # every term of f is zero in S / I
            return True
        sl = self._by_row.get(sup[0])
        if sl is None or not all(m in sl.rows for m in sup):
            sl = DegreeSlice(self.ideal, degree, sup, self._generators, covered)
            for row in sl.rows:
                self._by_row[row] = sl
        return sl.contains_poly(f)

    def at(self, b: int) -> DegreeInvariants:
        if self._full_from is not None and b >= self._full_from:
            return DegreeInvariants(0, self._one)
        got = self._degrees.get(b)
        if got is None:
            dual = -1 if self._dual is None else self._dual - b
            if 0 <= dual < b:  # M_b is M_dual transposed
                free, largest = self.at(dual)
                n, cap = len(self._w1), self._cap
                free += len(monomials_of_degree(n, b, cap)) - len(monomials_of_degree(n, dual, cap))
            else:
                check_deadline()
                free, largest = 0, self._one
                covered = self._cover_test(b)
                gens = [gd for gd in self._generators[1] if gd[0] <= b]
                merged = set()  # the largest factors lcm'd into `largest`
                walk = _row_components(gens, len(self._w1), b, self._cap, covered)
                for key, rows, columns in walk:
                    factors = self._factors.get(key)
                    if factors is None:
                        factors = self._factors[key] = invariant_factors(columns.values())
                    free += len(rows) - len(factors)
                    if factors and factors[-1] not in merged:
                        merged.add(factors[-1])
                        largest = uni_lcm(largest, factors[-1])
            got = self._degrees[b] = DegreeInvariants(free, largest)
            # at(dual) may have found a lower full degree
            if got.full and (self._full_from is None or b < self._full_from):
                self._full_from = b
        return got

    def first_killed(self, g: UniPoly, below: int) -> int:
        """The least b < below with g(t) killing S_b / I_b, else below.
        With g = 1 that is the first full degree below `below`."""
        return next((b for b in range(below) if self.at(b).kills(g)), below)

    def tau_growth(self, tau: UniPoly, s: int, below: int) -> int:
        """The least k >= 1 with (m, tau)^k in C = I + (tau^s), m the
        weighted variables, for an irreducible tau and I containing every
        x-monomial of degree `below`: (m, tau)^k lies in C iff tau^(k-b) kills
        S_b / C_b = (S_b / I_b) / tau^s for every b <= k.  The least such
        power of tau is tau^e_b, with e_b = s when r_b > 0 and
        min(s, v_tau(d_b)) otherwise; once e_b = 0 it stays 0 above.  So
        k is the largest b + e_b before the first e_b = 0, and at least 1.
        With tau irreducible, gcd(d_b, tau^s) = tau^min(s, v_tau(d_b))."""
        k, tau_s = 1, tau**s
        for b in range(below):
            inv = self.at(b)
            e = s if inv.free_rank else uni_gcd(inv.largest, tau_s).degree // tau.degree
            if e == 0:
                break
            k = max(k, b + e)
        return k

    def torsion_exponent(self, below: int) -> UniPoly:
        """lcm of the largest invariant factors over the degrees < below:
        g(t) is a nonzerodivisor on every such S_b / I_b, that is
        (I : g) agrees with I there, iff g is coprime to it."""
        acc = self._one
        for b in range(self.first_killed(self._one, below)):
            acc = uni_lcm(acc, self.at(b).largest)
        return acc


def degree_zero_membership(ideal):
    """Membership in I_0, the x-degree-0 part of an x-homogeneous ideal
    I, with no slice built: a generator of positive x-degree has no
    multiple of x-degree 0, so I_0 is the k[t]-ideal generated by c0,
    the gcd of I's generators of x-degree 0, and an f of x-degree 0 lies
    in I exactly when c0 divides it.  That gcd is what the echelon of a
    degree-0 DegreeSlice reduces to; it is read off the same generator
    data, so an inhomogeneous generator raises as SliceCache(I) does."""
    covers, columns = _generator_data(ideal)
    p, w1 = ideal.ring.p, ideal.ring.weight1_indices()
    c0 = UniPoly.one(p) if any(not any(c) for c in covers) else UniPoly.zero(p)
    for degree, _, col in columns:
        if degree == 0:
            (u,) = col.values()
            c0 = uni_gcd(c0, u)

    def member(f: MultiPoly) -> bool:
        if f.is_zero or c0.degree == 0:
            return True
        (u,) = _columns_of(f, _single_t_index(ideal.ring), w1, (0,) * len(w1)).values()
        return not c0.is_zero and (u % c0).is_zero

    return member


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
    return _least_power(one, gens, step, current().power_products)


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
