import pytest

from frobgrow import ktmodule
from frobgrow.decomposer import family
from frobgrow.errors import InputError
from frobgrow.fpoly import (
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    frobenius_generators,
    parse_poly,
    parse_unipoly,
    uni_factor,
    uni_lcm,
    x_degree,
)
from frobgrow.groebner import IdealHandle, colon, eliminate, ideal_equal, normal_form
from frobgrow.ktmodule import (
    DegreeSlice,
    SliceCache,
    contraction_colon,
    degree_zero_membership,
    invariant_factors,
    slice_power_containment,
    univariate_colon_trivial_panel,
)
from frobgrow.orders import monomials_of_degree
from test_hq import random_ring

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def ring_txy(p=P3, relations=()):
    return RingSpec(p, (("t", 0), ("x", 1), ("y", 1)), relations)


def rand_homog(rng, R, degree, tmax=3):
    """Random x-homogeneous MultiPoly of the given weighted degree."""
    p = R.p
    terms = {}
    for _ in range(rng.randint(1, 4)):
        xe = rng.randrange(degree + 1)
        terms[(rng.randrange(tmax), xe, degree - xe)] = rng.randrange(1, p.p)
    return MultiPoly(R, terms)


class TestXDegree:
    def test_values(self):
        R = ring_txy()
        assert x_degree(parse_poly("t^3*x*y^2", R)) == 3
        assert x_degree(parse_poly("x^2+t*x*y+y^2", R)) == 2
        assert x_degree(MultiPoly.const(R, 1)) == 0

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            x_degree(MultiPoly.const(ring_txy(), 0))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InputError):
            x_degree(parse_poly("x+y^2", ring_txy()))


def recursive_monomials_of_degree(nvars, total, cap=None):
    """The enumerator as a recursion on the first variable: the
    reference `monomials_of_degree` is compared with."""
    if nvars == 0:
        return [()] if total == 0 else []
    top, low = total, 0
    if cap is not None:
        top, low = min(total, cap), max(0, total - cap * (nvars - 1))
    return [
        (e,) + rest
        for e in range(top, low - 1, -1)
        for rest in recursive_monomials_of_degree(nvars - 1, total - e, cap)
    ]


class TestMonomialsOfDegree:
    def test_matches_the_recursive_reference(self):
        for n in range(6):
            for d in range(15):
                for cap in (None, *range(8)):
                    assert monomials_of_degree(n, d, cap) == recursive_monomials_of_degree(
                        n, d, cap
                    ), (n, d, cap)

    def test_counts(self):
        # n variables, total d: binomial(d + n - 1, n - 1) monomials
        assert len(monomials_of_degree(2, 5)) == 6
        assert len(monomials_of_degree(4, 3)) == 20

    def test_edge_cases(self):
        assert monomials_of_degree(0, 0) == [()]
        assert monomials_of_degree(0, 2) == []
        assert monomials_of_degree(3, 0) == [(0, 0, 0)]

    def test_all_sums_correct(self):
        for exps in monomials_of_degree(3, 7):
            assert sum(exps) == 7 and all(e >= 0 for e in exps)

    def test_descending_lex_order(self):
        assert monomials_of_degree(3, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
        ]
        got = monomials_of_degree(4, 5)
        assert got == sorted(got, reverse=True)

    def test_cap(self):
        assert monomials_of_degree(2, 3, cap=2) == [(2, 1), (1, 2)]
        assert monomials_of_degree(3, 7, cap=2) == []
        assert monomials_of_degree(3, 6, cap=2) == [(2, 2, 2)]
        assert monomials_of_degree(1, 3, cap=2) == []
        # the capped enumeration is the uncapped one filtered, same order
        for n, d, cap in ((3, 4, 2), (4, 6, 3), (2, 5, 0), (3, 0, 0)):
            assert monomials_of_degree(n, d, cap) == [
                e for e in monomials_of_degree(n, d) if max(e, default=0) <= cap
            ]


class TestDegreeSliceMembership:
    def test_quadric_slice(self):
        R = ring_txy(P2, ("x^2+t*x*y+y^2",))
        I = IdealHandle(R, ["x^2", "y^2"])
        sl = DegreeSlice(I, 2, [(1, 1)])
        # t*x*y = relation - x^2 - y^2
        assert sl.contains_poly(parse_poly("t*x*y", R))
        assert not sl.contains_poly(parse_poly("x*y", R))

    def test_wrong_degree_rejected(self):
        R = ring_txy()
        sl = DegreeSlice(IdealHandle(R, ["x^2"]), 2, [(2, 0)])
        with pytest.raises(InputError):
            sl.contains_poly(parse_poly("x^3", R))

    def test_bad_seed_rejected(self):
        R = ring_txy()
        with pytest.raises(InputError):
            DegreeSlice(IdealHandle(R, ["x^2"]), 2, [(3, 0)])

    def test_component_restriction(self):
        # no generator column touches two monomials, so the slice seeded at
        # x*y^2 must not even collect the y^3 row; the cover x^2 makes x^3
        # zero in the quotient, so seeded there the slice has no rows
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "t*y^2"])
        sl = DegreeSlice(I, 3, [(1, 2)])
        assert sl.rows == {(1, 2)}
        assert (0, 3) not in sl.rows
        assert not DegreeSlice(I, 3, [(3, 0)]).rows

    def test_agrees_with_normal_form_random(self, rng):
        # dual-route check: echelon membership vs Groebner reduction
        R = ring_txy(P3, ("x^3+t*x*y^2+y^3",))
        for _ in range(40):
            gens = [rand_homog(rng, R, rng.randint(1, 3)) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero] or [parse_poly("x", R)]
            I = IdealHandle(R, gens)
            d = rng.randint(1, 4)
            f = rand_homog(rng, R, d)
            if f.is_zero:
                continue
            assert SliceCache(I).member(f) == normal_form(f, I).is_zero


class TestSliceCache:
    def test_zero_is_member(self):
        R = ring_txy()
        assert SliceCache(IdealHandle(R, ["x"])).member(MultiPoly.const(R, 0))

    def test_reuses_slices_across_degrees(self):
        R = ring_txy(P2, ("x^2+t*x*y+y^2",))
        I = IdealHandle(R, ["x^4", "y^4"])
        cache = SliceCache(I)
        polys = [
            parse_poly("t^2*x^2*y^2", R),
            parse_poly("x^3*y", R),
            parse_poly("x^4", R),
            parse_poly("x*y", R),
        ]
        assert [cache.member(f) for f in polys] == [True, False, True, False]

    def test_free_rank_and_torsion(self):
        # degree 2 of (x^2, y^2, t^2*x*y): S_2 / I_2 = k[t]/(t^2);
        # degree 1 is free of rank 2; degree 3 is full
        R = ring_txy(P5)
        inv = SliceCache(IdealHandle(R, ["x^2", "y^2", "t^2*x*y"]))
        t = parse_unipoly("t", P5)
        assert inv.at(0) == (1, UniPoly.one(P5))
        assert inv.at(1) == (2, UniPoly.one(P5))
        assert inv.at(2) == (0, t**2) and not inv.at(2).full
        assert inv.at(3).full and inv.at(7).full
        assert inv.torsion_exponent(3) == t**2
        assert inv.torsion_exponent(2) == UniPoly.one(P5)

    def test_full_degree_stops_building(self):
        R = ring_txy(P3)
        inv = SliceCache(IdealHandle(R, ["x", "y"]))
        assert inv.at(1).full
        assert inv.at(9).full and 9 not in inv._degrees

    def test_relation_in_every_slice(self):
        # t*x*y lies in (x^2, y^2) modulo x^2 + t*x*y + y^2, so degree 2
        # of S / (x^2, y^2) is k[t]/(t)
        R = ring_txy(P2, ("x^2+t*x*y+y^2",))
        inv = SliceCache(IdealHandle(R, ["x^2", "y^2"]))
        assert inv.at(2) == (0, parse_unipoly("t", P2))

    def test_invariants_leave_member_slices_alone(self):
        # at() builds no slice and reads none of member()'s: the row index
        # member() keeps is the same after at() as before, whether member()
        # ran before it or after it, and at() agrees with a fresh store
        R = ring_txy(P2, ("x^2+t*x*y+y^2",))
        I = IdealHandle(R, ["x^3", "t*y^3"])
        used, fresh = SliceCache(I), SliceCache(I)
        assert not used.member(parse_poly("x*y", R))
        kept = dict(used._by_row)
        for b in range(3):
            assert used.at(b) == fresh.at(b)
        assert used._by_row == kept
        assert used.member(parse_poly("t*x*y^3", R))
        kept = dict(used._by_row)
        assert len(kept) > 1
        for b in range(6):
            assert used.at(b) == fresh.at(b)
        assert used._by_row == kept and not fresh._by_row

    def test_cover_cap(self):
        # the largest single-variable threshold less one, when every
        # variable has one; mixed covers and t-multiples give none
        R = ring_txy(P3)
        assert SliceCache(IdealHandle(R, ["x^2", "y^3", "x^4"]))._cap == 2
        assert SliceCache(IdealHandle(R, ["x^2", "x*y"]))._cap is None
        assert SliceCache(IdealHandle(R, ["x^2", "t*y^2"]))._cap is None


def ring_txyz(p=P3, relations=()):
    return RingSpec(p, (("t", 0), ("x", 1), ("y", 1), ("z", 1)), relations)


def poly_vector(f):
    """f as a vector {x-exponents: UniPoly in t}, built term by term."""
    R = f.ring
    ti, w1 = R.index_of("t"), R.weight1_indices()
    vec = {}
    for exps, c in f.term_dict().items():
        row = tuple(exps[i] for i in w1)
        vec[row] = vec.get(row, UniPoly.zero(R.p)) + UniPoly.monomial(R.p, exps[ti], c)
    return {r: u for r, u in vec.items() if not u.is_zero}


def full_row_presentation(I, b):
    """Degree b of I in the full-row layout: every degree-b monomial is a
    row, and every multiple of every generator, the single-term x-monomial
    generators included, is a column."""
    R = I.ring
    w1 = R.weight1_indices()
    columns = []
    for g in I.effective_generators():
        if g.is_zero or x_degree(g) > b:
            continue
        for shift in monomials_of_degree(len(w1), b - x_degree(g)):
            exps = [0] * R.nvars
            for i, e in zip(w1, shift):
                exps[i] = e
            columns.append(poly_vector(g * MultiPoly.monomial(R, tuple(exps))))
    return monomials_of_degree(len(w1), b), [c for c in columns if c]


def rand_mixed_ideal(rng, R):
    """Generators of every kind a slice sorts: x-monomials times a unit
    (covers), t-power times x-monomial, random x-homogeneous polynomials,
    and now and then a constant or a polynomial in t alone."""
    p, n = R.p.p, len(R.weight1_indices())

    def xmono(d, t=0):
        exps = [t] + [0] * n
        for _ in range(d):
            exps[1 + rng.randrange(n)] += 1
        return MultiPoly.monomial(R, tuple(exps), rng.randrange(1, p))

    gens = [xmono(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    gens += [xmono(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 3)
        gens.append(sum((xmono(d, rng.randrange(3)) for _ in range(3)), MultiPoly.const(R, 0)))
    extra = rng.random()
    if extra < 0.1:
        gens.append(MultiPoly.const(R, rng.randrange(1, p)))
    elif extra < 0.3:
        gens.append(parse_poly(rng.choice(("t+1", "t^2+2", "t^2+t+1")), R))
    return IdealHandle(R, [g for g in gens if not g.is_zero]), xmono


class TestStandardRowsAgainstFullRows:
    """Slices built on the standard monomials against the full-row
    layout they replace, on seeded random ideals that mix covers, t-power
    monomials, constants and relations."""

    @pytest.mark.parametrize("relations", [(), ("x^2+t*x*y+z^2",)])
    def test_invariants_and_membership(self, relations, rng):
        R = ring_txyz(P3, relations)
        one = UniPoly.one(P3)
        for _ in range(12):
            I, xmono = rand_mixed_ideal(rng, R)
            cache = SliceCache(I)
            for b in range(5):
                rows, columns = full_row_presentation(I, b)
                factors = invariant_factors(columns)
                largest = factors[-1] if factors else one
                assert cache.at(b) == (len(rows) - len(factors), largest)
                for _ in range(4):
                    f = sum((xmono(b, rng.randrange(3)) for _ in range(3)), MultiPoly.const(R, 0))
                    g = rng.choice(I.effective_generators())
                    if rng.random() < 0.5 and x_degree(g) <= b:
                        elt = g * xmono(b - x_degree(g))  # in I, alone or plus f
                        f = elt if rng.random() < 0.5 else elt + f
                    # f is in I_b iff its column leaves the module, so its
                    # Smith form (units included), unchanged
                    expected = f.is_zero or invariant_factors(
                        columns + [poly_vector(f)]
                    ) == factors
                    assert cache.member(f) == expected

    def test_rows_avoid_covers(self, rng):
        R = ring_txyz(P3, ("x^2+t*x*y+z^2",))
        for _ in range(12):
            I, _ = rand_mixed_ideal(rng, R)
            covers = [
                exps[1:] for g in I.effective_generators()
                for exps in g.term_dict() if len(g.term_dict()) == 1 and exps[0] == 0
            ]

            def covered(row):
                return any(all(a >= c for a, c in zip(row, cov)) for cov in covers)

            for b in range(5):
                for m in monomials_of_degree(3, b):
                    sl = DegreeSlice(I, b, [m])
                    assert not any(covered(r) for r in sl.rows)
                    assert (m in sl.rows) != covered(m)


def sympy_invariant_factors(columns, p):
    """Monic nonzero invariant factors of the same matrix by sympy's
    Smith normal form over GF(p)[t]."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as sympy_if

    t = sympy.Symbol("t")
    K = sympy.GF(p.p)[t]
    rows = sorted({r for c in columns for r in c})
    entries = [
        [K(sum(a * t**i for i, a in enumerate(c[r].coeffs)) if r in c else 0) for c in columns]
        for r in rows
    ]
    out = []
    for d in sympy_if(DomainMatrix(entries, (len(rows), len(columns)), K)):
        poly = sympy.Poly(K.to_sympy(d), t, modulus=p.p)
        if not poly.is_zero:
            out.append(UniPoly(p, [int(a) for a in reversed(poly.all_coeffs())]).monic())
    return out


def rand_columns(rng, p, nrows, ncols, tdeg=3):
    """Sparse random k[t]-columns, each entry present with chance 0.6."""
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            u = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, tdeg))])
            if rng.random() < 0.6 and not u.is_zero:
                col[r] = u
        cols.append(col)
    return cols


class TestInvariantFactors:
    def test_known_values(self):
        t = parse_unipoly("t", P3)
        one = UniPoly.one(P3)
        # diag(t^2, t + 1) ~ diag(1, t^2 (t + 1))
        cols = [{0: t**2}, {1: t + one}]
        assert invariant_factors(cols) == [one, (t**2 * (t + one)).monic()]
        # [[t^2, 0], [0, t], [t + 1, 2t]]: gcd of the 2-minors is t
        cols = [{0: t**2, 2: t + one}, {1: t, 2: 2 * t}]
        assert invariant_factors(cols) == [one, t]
        assert invariant_factors([{}, {}]) == []

    def test_rank_deficient(self):
        t = parse_unipoly("t", P2)
        cols = [{0: t, 1: t}, {0: t**2, 1: t**2}]
        assert invariant_factors(cols) == [t]

    @pytest.mark.parametrize("p", [P2, P3, P5])
    def test_agrees_with_sympy(self, p, rng):
        pytest.importorskip("sympy")
        for _ in range(20):
            cols = rand_columns(rng, p, rng.randint(1, 5), rng.randint(1, 5))
            assert invariant_factors(cols) == sympy_invariant_factors(
                [c for c in cols if c], p
            )

    def test_katzman_slices_agree_with_sympy(self):
        # every row component of every degree below the cap of I^[3]
        pytest.importorskip("sympy")
        fam = family("katzman", 3)
        Iq = frobenius_generators(fam.ideal, PrimePower(P3, 1))
        for d in range(2 * 2 + 1):
            todo = set(monomials_of_degree(2, d))
            while todo:
                sl = DegreeSlice(Iq, d, [todo.pop()])
                todo -= sl.rows
                pivots = [dict(c) for _, c in sl._echelon_pivots]
                assert invariant_factors(pivots) == sympy_invariant_factors(pivots, P3)

    def test_katzman_degrees_agree_with_sympy(self):
        # SliceCache.at(d) against sympy's Smith form of the whole degree-d
        # matrix of I^[3], every monomial a row and every multiple of every
        # generator, x^3 and y^3 included, a column
        pytest.importorskip("sympy")
        fam = family("katzman", 3)
        Iq = frobenius_generators(fam.ideal, PrimePower(P3, 1))
        cache = SliceCache(Iq)
        for d in range(2 * 2 + 2):
            rows, columns = full_row_presentation(Iq, d)
            factors = sympy_invariant_factors(columns, P3)
            largest = factors[-1] if factors else UniPoly.one(P3)
            assert cache.at(d) == (len(rows) - len(factors), largest)


def per_slice_at(cache, b):
    """S_b / I_b by the per-slice route: every degree-b monomial
    enumerated with no cap, one echelon DegreeSlice per row component of
    the standard ones, and the invariant factors of its pivots."""
    covered = cache._cover_test(b)
    todo = {m for m in monomials_of_degree(len(cache._w1), b) if not covered(m)}
    free, largest = 0, UniPoly.one(cache.ideal.ring.p)
    while todo:
        sl = DegreeSlice(cache.ideal, b, [todo.pop()], cache._generators, covered)
        todo -= sl.rows
        factors = invariant_factors(piv for _, piv in sl._echelon_pivots)
        free += len(sl.rows) - len(factors)
        if factors:
            largest = uni_lcm(largest, factors[-1])
    return free, largest


class TestInvariantsAgainstPerSlice:
    """SliceCache.at against the per-DegreeSlice reference above, on every
    degree up to n(q - 1) + 1 of the paper's families, and on random
    ideals whose covers give unequal thresholds or none."""

    @pytest.mark.parametrize(
        "name,p,q",
        [("katzman", 2, 4), ("katzman", 3, 9), ("ss5", 2, 4), ("ss5", 3, 3),
         ("brenner_monsky", 2, 4), ("ss7", 2, 2)],
    )
    def test_families(self, name, p, q):
        fam = family(name, p)
        e = {p**k: k for k in range(1, 4)}[q]
        Iq = frobenius_generators(fam.ideal, PrimePower(fam.ring.p, e))
        cache = SliceCache(Iq)
        n = len(fam.ring.weight1_indices())
        assert cache._cap == q - 1
        for b in range(n * (q - 1) + 2):
            assert cache.at(b) == per_slice_at(cache, b), b

    def test_equal_components_share_one_smith_form(self, monkeypatch):
        # the row components of ss5's slices of I^[4] recur up to
        # translation, and each distinct one takes one invariant_factors
        # call per cache; the invariants stay the per-slice route's
        fam = family("ss5", 2)
        cache = SliceCache(frobenius_generators(fam.ideal, PrimePower(fam.ring.p, 2)))
        calls, components = [], []
        real_factors, real_component = ktmodule.invariant_factors, ktmodule._component
        monkeypatch.setattr(
            ktmodule, "invariant_factors", lambda cols: calls.append(1) or real_factors(cols)
        )
        monkeypatch.setattr(
            ktmodule, "_component", lambda *a: components.append(1) or real_component(*a)
        )
        got = [cache.at(b) for b in range(14)]
        monkeypatch.undo()
        assert 0 < 4 * len(calls) < len(components)
        assert got == [per_slice_at(cache, b) for b in range(14)]

    @pytest.mark.parametrize("relations", [(), ("x^2+t*x*y+z^2",)])
    def test_unequal_and_missing_thresholds(self, relations, rng):
        R = ring_txyz(P3, relations)
        caps = set()
        for trial in range(16):
            I, _ = rand_mixed_ideal(rng, R)
            # x^a and y^b with a != b; z^c on odd trials, else z may go
            # without a threshold and the cap with it
            a, b = rng.sample(range(1, 5), 2)
            powers = [f"x^{a}", f"y^{b}"] + [f"z^{rng.randint(1, 4)}"] * (trial % 2)
            cache = SliceCache(IdealHandle(R, powers + list(I.generators)))
            if trial % 2:
                assert cache._cap is not None
            caps.add(cache._cap)
            for d in range(7):
                assert cache.at(d) == per_slice_at(cache, d), d
        assert None in caps and len(caps) > 2


class TestDualDegrees:
    """For I^[q] of a ring with one relation f, the degree-b matrix on the
    standard rows is the degree-(D - b) one transposed, D = n(q-1) + deg f,
    and SliceCache.at reads b > D/2 off D - b.  In ascending, descending
    and shuffled order, every answer is the full-layout Smith reference's
    (TestStandardRowsAgainstFullRows), and only the degrees b <= D/2 walk
    row components; ideals outside that setting walk every degree."""

    def walked(self, cache, order, monkeypatch):
        # {b: cache.at(b)} in the given order, and the degrees walked
        degrees, real = [], ktmodule._row_components

        def walk(gens, n, b, cap, covered):
            degrees.append(b)
            return real(gens, n, b, cap, covered)

        monkeypatch.setattr(ktmodule, "_row_components", walk)
        got = {b: cache.at(b) for b in order}
        monkeypatch.undo()
        return got, sorted(degrees)

    def check_orders(self, I, degrees, rng, monkeypatch):
        # the degrees walked in each order, ascending first
        one = UniPoly.one(I.ring.p)
        want = {}
        for b in degrees:
            rows, columns = full_row_presentation(I, b)
            factors = invariant_factors(columns)
            want[b] = (len(rows) - len(factors), factors[-1] if factors else one)
        shuffled = list(degrees)
        rng.shuffle(shuffled)
        walks = []
        for order in (list(degrees), list(reversed(degrees)), shuffled):
            got, walked = self.walked(SliceCache(I), order, monkeypatch)
            assert got == want, order
            walks.append(walked)
        return walks, [b for b in degrees if want[b] == (0, one)]

    def check_ring(self, ring, q, rng, monkeypatch):
        I = frobenius_generators(IdealHandle(ring, [v for v, w in ring.variables if w]), q)
        n = len(ring.weight1_indices())
        (f,) = ring.relations
        D = n * (q.q - 1) + x_degree(f)
        assert SliceCache(I)._dual == D
        walks, full = self.check_orders(I, range(D + 2), rng, monkeypatch)
        # ascending, the walk stops at the first full degree; in every
        # order a degree b with 0 <= D - b < b is read off D - b
        assert walks[0] == [b for b in range(full[0] + 1) if 2 * b <= D]
        assert all(2 * b <= D or b > D for walk in walks for b in walk)

    @pytest.mark.parametrize("name,p,e", [
        ("katzman", 2, 2), ("katzman", 3, 1), ("katzman", 5, 1), ("ss5", 2, 1),
        ("ss5", 3, 1), ("brenner_monsky", 2, 2),
    ])
    def test_families(self, name, p, e, rng, monkeypatch):
        ring = family(name, p).ring
        self.check_ring(ring, PrimePower(ring.p, e), rng, monkeypatch)

    def test_random_rings(self, rng, monkeypatch):
        checked = 0
        while checked < 12:
            ring = random_ring(rng)
            if len(ring.relations) == 1:
                self.check_ring(ring, PrimePower(ring.p, rng.choice((1, 2))), rng, monkeypatch)
                checked += 1

    def test_two_relations_and_mixed_covers_walk_every_degree(self, rng, monkeypatch):
        # I^[q] of a ring with two relations, and a certified isolated
        # component I^[q] + m^K, keep the walk of every degree below the
        # first full one
        kinds = set()
        while len(kinds) < 2:
            ring = random_ring(rng)
            q = PrimePower(ring.p, 1)
            n = len(ring.weight1_indices())
            Iq = frobenius_generators(IdealHandle(ring, [v for v, w in ring.variables if w]), q)
            ideals = [Iq] if len(ring.relations) == 2 else []
            K = rng.randint(1, n * (q.q - 1))
            ideals.append(Iq.extended(
                [MultiPoly.monomial(ring, (0,) + m) for m in monomials_of_degree(n, K)]
            ))
            for I in ideals:
                assert SliceCache(I)._dual is None
                walks, full = self.check_orders(I, range(n * (q.q - 1) + 3), rng, monkeypatch)
                assert walks[0] == list(range(full[0] + 1))
                kinds.add(len(I.generators) > len(Iq.generators))
        assert kinds == {False, True}


class TestDegreeZeroMembership:
    """degree_zero_membership, the gcd of the x-degree-0 generators,
    against slice membership, which builds the degree-0 echelon."""

    @pytest.mark.parametrize("p", [P2, P3, P5], ids=["p2", "p3", "p5"])
    def test_agrees_with_slice_membership_random(self, p, rng):
        R = ring_txy(p, (parse_poly("x^2+t*x*y+y^2", ring_txy(p)),))
        seen = set()
        for _ in range(12):
            gens = [rand_homog(rng, R, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if not g.is_zero] or ["x"]
            I = IdealHandle(R, gens + (["1"] if rng.random() < 0.1 else []))
            member, cache = degree_zero_membership(I), SliceCache(I)
            tests = [rand_homog(rng, R, 0, tmax=5) for _ in range(6)]
            tests += [MultiPoly.const(R, 1), MultiPoly.const(R, 0)]
            tests += [g * rand_homog(rng, R, 0) for g in I.generators if x_degree(g) == 0]
            for f in tests:
                assert member(f) == cache.member(f), (gens, f)
                seen.add(member(f))
        assert seen == {True, False}

    def test_no_degree_zero_generator_holds_only_zero(self):
        R = ring_txy()
        member = degree_zero_membership(IdealHandle(R, ["x^2", "t*y"]))
        assert member(MultiPoly.const(R, 0)) and not member(parse_poly("t^3", R))

    def test_inhomogeneous_generator_raises_as_the_slice_store(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "x+t*y^2", "t"])
        with pytest.raises(InputError) as by_store:
            SliceCache(I)
        with pytest.raises(InputError) as by_gcd:
            degree_zero_membership(I)
        assert str(by_gcd.value) == str(by_store.value)


class TestSlicePowerContainment:
    def test_frobenius_power_exponent(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "y^2"])
        gens = [parse_poly("x", R), parse_poly("y", R)]
        assert slice_power_containment(gens, SliceCache(I)) == 3

    def test_unit_ideal_takes_one(self):
        R = ring_txy()
        cache = SliceCache(IdealHandle(R, ["1"]))
        assert slice_power_containment([parse_poly("x", R)], cache) == 1


class TestUnivariateColonTrivial:
    def test_known_nontrivial(self):
        # (I : t) gains x*y, so colon by t changes the ideal
        R = ring_txy(P3)
        I = IdealHandle(R, ["x^2", "y^2", "t*x*y"])
        t = parse_unipoly("t", P3)
        assert not univariate_colon_trivial_panel(SliceCache(I), [t], 3)[0]
        assert univariate_colon_trivial_panel(SliceCache(I), [parse_unipoly("t+1", P3)], 3)[0]

    def test_colon_by_zero_rejected(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "y^2"])
        with pytest.raises(InputError):
            univariate_colon_trivial_panel(SliceCache(I), [UniPoly.zero(P3)], 2)[0]

    def test_panel_matches_single(self):
        R = ring_txy(P5)
        I = IdealHandle(R, ["x^2", "y^2", "t^2*x*y"])
        panel = [parse_unipoly(s, P5) for s in ("t", "t+1", "t^2+2", "t^3")]
        together = univariate_colon_trivial_panel(SliceCache(I), panel, 3)
        singly = [univariate_colon_trivial_panel(SliceCache(I), [g], 3)[0] for g in panel]
        assert together == singly == [False, True, True, False]

    def test_panel_agrees_with_tracked_echelon_random(self, rng):
        # the invariant-factor verdict against DegreeSlice.colon_is_trivial
        # on every slice, on ideals containing m^3, with and without a
        # t-power generator
        R = ring_txy(P3)
        cap = [parse_poly(m, R) for m in ("x^3", "x^2*y", "x*y^2", "y^3")]
        for i in range(16):
            gens = cap + [rand_homog(rng, R, rng.randint(1, 2)) for _ in range(2)]
            if i % 2:
                gens.append(parse_poly(rng.choice(("t", "t^2", "t^2+1", "t+2")), R))
            I = IdealHandle(R, [g for g in gens if not g.is_zero])
            panel = [
                g
                for g in (
                    UniPoly(P3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
                    for _ in range(6)
                )
                if not g.is_zero
            ]
            expected = [True] * len(panel)
            for d in range(3):
                todo = set(monomials_of_degree(2, d))
                while todo:
                    sl = DegreeSlice(I, d, [todo.pop()])
                    todo -= sl.rows
                    for k, g in enumerate(panel):
                        expected[k] = expected[k] and sl.colon_is_trivial(g)
            assert univariate_colon_trivial_panel(SliceCache(I), panel, 3) == expected

    def test_agrees_with_groebner_colon_random(self, rng):
        # the ideals below contain every monomial of degree >= 3, so the
        # bounded degreewise answer must equal the full Groebner verdict
        # (I : c*g) == (I : c), for c = 1 and for a non-unit c made of
        # torsion factors; the panel holds the torsion's own factors, so
        # both verdicts occur under both multipliers
        R = ring_txy(P3)
        cap = [parse_poly(m, R) for m in ("x^3", "x^2*y", "x*y^2", "y^3")]
        one = UniPoly.one(P3)
        seen = {None: set(), "c": set()}
        for _ in range(16):
            gens = cap + [rand_homog(rng, R, rng.randint(1, 2)) for _ in range(2)]
            I = IdealHandle(R, [g for g in gens if not g.is_zero])
            factors = list(uni_factor(SliceCache(I).torsion_exponent(3), 0))
            panel = [f for f, _ in factors] + [
                g
                for g in (
                    UniPoly(P3, [rng.randrange(3) for _ in range(rng.randint(1, 3))])
                    for _ in range(2)
                )
                if not g.is_zero
            ]
            c = parse_unipoly("t+1", P3)
            for f, m in factors:
                c = c * f ** rng.randint(0, m)
            for key, mult in ((None, None), ("c", c)):
                fast = univariate_colon_trivial_panel(SliceCache(I), panel, 3, mult)
                base = colon(I, MultiPoly.from_unipoly(R, mult or one, "t"))
                slow = [
                    ideal_equal(colon(I, MultiPoly.from_unipoly(R, (mult or one) * g, "t")), base)
                    for g in panel
                ]
                assert fast == slow
                seen[key].update(fast)
        assert seen == {None: {True, False}, "c": {True, False}}


class TestContractionColon:
    def test_quadric_contraction(self):
        # {g : g*x*y in (x^2, y^2)} = (t) in k[t,x,y]/(x^2+t*x*y+y^2)
        R = ring_txy(P2, ("x^2+t*x*y+y^2",))
        I = IdealHandle(R, ["x^2", "y^2"])
        gen = contraction_colon(I, parse_poly("x*y", R))
        assert gen == parse_unipoly("t", P2)

    def test_member_witness_gives_unit(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2"])
        assert contraction_colon(I, parse_poly("x^2", R)) == UniPoly.one(P3)

    def test_never_member_gives_zero(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2"])
        gen = contraction_colon(I, parse_poly("y", R))
        assert gen.is_zero

    def test_rejects_non_monomial(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2"])
        with pytest.raises(InputError):
            contraction_colon(I, parse_poly("x+y", R))
        with pytest.raises(InputError):
            contraction_colon(I, parse_poly("t*x", R))

    def test_agrees_with_groebner_route_random(self, rng):
        # independent route: colon, eliminate the weighted variables, gcd
        R = ring_txy(P3, ("x^3+t*x*y^2+y^3",))
        from frobgrow.fpoly import uni_gcd

        for _ in range(10):
            gens = [rand_homog(rng, R, rng.randint(1, 3)) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero] or [parse_poly("x^2", R)]
            I = IdealHandle(R, gens)
            xe = rng.randrange(3)
            wit = parse_poly("x", R) ** xe * parse_poly("y", R) ** (2 - xe)
            fast = contraction_colon(I, wit)
            J = eliminate(colon(I, wit), ["x", "y"])
            slow = UniPoly.zero(P3)
            ti = R.index_of("t")
            for g in J.generators:
                slow = uni_gcd(slow, g.to_unipoly(ti))
            if not slow.is_zero:
                slow = slow.monic()
            assert fast == slow
