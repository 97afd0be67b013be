import itertools
from fractions import Fraction
from math import comb

import pytest

from frobgrow import hq
from frobgrow.budgets import Budgets, limits
from frobgrow.decomposer import family
from frobgrow.errors import InputError
from frobgrow.fpoly import (
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    format_unipoly,
    frobenius_generators,
    parse_unipoly,
    uni_lcm,
    x_degree,
)
from frobgrow.hq import MinorMatrix, MinorScan, bareiss_det, build_Md, h_q, minors_lcm
from frobgrow.ktmodule import invariant_factors
from frobgrow.orders import monomials_of_degree
from test_sequences import cofactor_det

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def rand_matrix(rng, p, n, deg=2):
    return [
        [
            UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, deg + 1))])
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def rand_sparse_matrix(rng, p, nr, nc, density, deg=2):
    """Entries zero with probability 1 - density, else a random poly."""
    return [
        [
            UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, deg + 1))])
            if rng.random() < density
            else UniPoly.zero(p)
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def as_minor_matrix(A, p):
    return MinorMatrix(
        p=p,
        d=0,
        rows=tuple(range(len(A))),
        cols=tuple(range(len(A[0]))),
        entries={
            (r, c): a for r, row in enumerate(A) for c, a in enumerate(row) if not a.is_zero
        },
    )


def reference_minors_lcm(M, budget):
    """The lcm of `reference_minors`, as a MinorScan."""
    dets, examined, partial = reference_minors(M, budget)
    acc = UniPoly.one(M.p)
    for det in dets:
        det = det.monic()
        if not (acc % det).is_zero:
            acc = uni_lcm(acc, det)
    return MinorScan(lcm=acc, examined=examined, partial=partial)


def reference_minors(M, budget):
    """The plain scan: walk every column set of every row set without a
    zero row, counting each one, and evaluate every candidate minor.
    Returns (the nonzero minors, positions examined, partial)."""
    nr, nc = M.shape
    dets = []
    examined = 0
    partial = False
    row_mask = [0] * nr
    col_mask = [0] * nc
    for (r, c) in M.entries:
        row_mask[r] |= 1 << c
        col_mask[c] |= 1 << r
    zero = UniPoly.zero(M.p)
    done = False
    for size in range(1, min(nr, nc) + 1):
        if done:
            break
        for rows in itertools.combinations(range(nr), size):
            if done:
                break
            rbits = 0
            for r in rows:
                rbits |= 1 << r
            if any(not (row_mask[r]) for r in rows):
                continue
            for cols in itertools.combinations(range(nc), size):
                examined += 1
                if examined > budget:
                    partial = True
                    done = True
                    break
                cbits = 0
                for c in cols:
                    cbits |= 1 << c
                if any(not (row_mask[r] & cbits) for r in rows):
                    continue
                if any(not (col_mask[c] & rbits) for c in cols):
                    continue
                sub = [[M.entries.get((r, c), zero) for c in cols] for r in rows]
                det = bareiss_det(sub)
                if not det.is_zero:
                    dets.append(det)
    return dets, examined, partial


def full_positions(M):
    """Positions the unbudgeted scan reaches: C(ncols, k) per k-row set
    without a zero row of M."""
    nr, nc = M.shape
    live = len({r for (r, _) in M.entries})
    return sum(comb(live, k) * comb(nc, k) for k in range(1, min(nr, nc) + 1))


def connected_blocks(M):
    """The row sets of M's blocks: rows sharing a column with a nonzero
    entry in both are in one block."""
    blocks = []
    for r, c in M.entries:
        touching = [b for b in blocks if any((s, c) in M.entries for s in b)]
        merged = {r}.union(*touching)
        blocks = [b for b in blocks if b not in touching] + [merged]
    return blocks


def expansion_products(M, budget):
    """Products the first-row expansions need at the first `budget`
    positions of the scan's order, each distinct one once: the pairs
    (signed entry, minor) over (position, c) with M[r0][c] nonzero, the
    minor on the other rows and columns nonzero (the empty minor is 1),
    and the signed entry (-1)^j * M[r0][c] not 1, where j is the number
    of the position's columns below c."""
    nr, nc = M.shape
    zero = UniPoly.zero(M.p)
    one = UniPoly.one(M.p)
    live = sorted({r for (r, _) in M.entries})
    positions = (
        (rows, cols)
        for size in range(1, min(len(live), nc) + 1)
        for rows in itertools.combinations(live, size)
        for cols in itertools.combinations(range(nc), size)
    )
    products = set()
    for rows, cols in itertools.islice(positions, budget):
        r0, rest = rows[0], rows[1:]
        for j, c in enumerate(cols):
            if (r0, c) not in M.entries:
                continue
            signed = M.entries[(r0, c)] * (-1) ** j
            if signed == one:
                continue
            others = [x for x in cols if x != c]
            sub = [[M.entries.get((r, x), zero) for x in others] for r in rest]
            minor = bareiss_det(sub) if rest else one
            if not minor.is_zero:
                products.add((signed.coeffs, minor.coeffs))
    return len(products)


class TestBareissDet:
    def test_small_sizes(self):
        t = parse_unipoly("t", P5)
        one = UniPoly.one(P5)
        assert bareiss_det([[t]]) == t
        assert bareiss_det([[t, one], [one, t]]) == parse_unipoly("t^2-1", P5)

    def test_singular(self):
        t = parse_unipoly("t", P3)
        assert bareiss_det([[t, t], [t, t]]).is_zero

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            bareiss_det([])

    def test_agrees_with_cofactor_expansion(self, rng):
        # fraction-free elimination vs the memoized cofactor expansion
        for _ in range(25):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            n = rng.randint(1, 5)
            A = rand_matrix(rng, p, n)
            assert bareiss_det(A) == cofactor_det(A)

    def test_sparse_agrees_with_cofactor_expansion(self, rng):
        # mostly-zero entries: zero pivots force row swaps, and many of
        # these matrices are singular
        singular = zero_lead = 0
        for _ in range(120):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            n = rng.randint(4, 7)
            A = rand_sparse_matrix(rng, p, n, n, density=rng.choice((0.3, 0.45, 0.6)))
            det = bareiss_det(A)
            assert det == cofactor_det(A)
            singular += det.is_zero
            zero_lead += A[0][0].is_zero
        assert singular >= 10 and zero_lead >= 30


class TestBuildMd:
    def test_degree_range_enforced(self):
        fam = family("katzman", 2)
        q = PrimePower(P2, 2)
        with pytest.raises(InputError):
            build_Md(fam.ring, q, 0)
        with pytest.raises(InputError):
            build_Md(fam.ring, q, 2 * (q.q - 1) + 1)

    def test_rows_capped_below_q(self):
        fam = family("katzman", 2)
        q = PrimePower(P2, 2)
        M = build_Md(fam.ring, q, 4)
        # exponents 4 and 0 are excluded by the cap q - 1 = 3
        assert M.rows == ((3, 1), (2, 2), (1, 3))

    def test_relation_below_degree_has_no_columns(self):
        fam = family("katzman", 2)  # relation of weighted degree 4
        M = build_Md(fam.ring, PrimePower(P2, 2), 3)
        assert M.shape == (4, 0)

    def test_entries_are_relation_coefficients(self):
        # x*y(x - y)(x - t*y) = x^3*y + (t+1)*x^2*y^2 + t*x*y^3 over F_2
        fam = family("katzman", 2)
        M = build_Md(fam.ring, PrimePower(P2, 2), 4)
        assert M.shape == (3, 1)
        col = [format_unipoly(M.entries[r, 0]) for r in range(3)]
        assert col == ["1", "t + 1", "t"]


def dense_Md_entries(ring, M):
    """M's entries by definition: for every row u and column (i, w), the
    k[t] coefficient of x^(u - w) in relation i, read off its terms."""
    w1 = ring.weight1_indices()
    (ti,) = ring.weight0_indices()
    entries = {}
    for ri, u in enumerate(M.rows):
        for ci, (i, w) in enumerate(M.cols):
            v = tuple(a - b for a, b in zip(u, w))
            coeffs = {}
            for exps, c in ring.relations[i].term_dict().items():
                if tuple(exps[k] for k in w1) == v:
                    coeffs[exps[ti]] = c
            a = UniPoly(M.p, [coeffs.get(k, 0) for k in range(max(coeffs, default=0) + 1)])
            if not a.is_zero:
                entries[(ri, ci)] = a
    return entries


class TestMdByDefinition:
    @pytest.mark.parametrize(
        "name,p,e",
        [("katzman", 3, 2), ("ss5", 3, 1), ("ss5", 2, 2), ("brenner_monsky", 2, 2),
         ("ss7", 2, 1)],
    )
    def test_matches_dense_builder(self, name, p, e):
        # rows: every degree-d monomial with exponents < q; columns: every
        # relation multiple, zero columns included; entries: the definition
        fam = family(name, p)
        q = PrimePower(PrimeModulus(p), e)
        n = len(fam.ring.weight1_indices())
        degs = [x_degree(rel) for rel in fam.ring.relations]
        for d in range(1, n * (q.q - 1) + 1):
            M = build_Md(fam.ring, q, d)
            assert sorted(M.rows) == sorted(monomials_of_degree(n, d, cap=q.q - 1))
            assert sorted(M.cols) == sorted(
                (i, w) for i, dd in enumerate(degs) if dd <= d
                for w in monomials_of_degree(n, d - dd)
            )
            assert M.entries == dense_Md_entries(fam.ring, M)


class TestMinorsLcm:
    def test_empty_matrix_gives_one(self):
        fam = family("katzman", 2)
        M = build_Md(fam.ring, PrimePower(P2, 2), 3)
        scan = minors_lcm(M)
        assert scan.lcm == UniPoly.one(P2) and not scan.partial

    def test_katzman_column(self):
        # lcm of 1, t+1, t is t^2 + t
        fam = family("katzman", 2)
        M = build_Md(fam.ring, PrimePower(P2, 2), 4)
        scan = minors_lcm(M)
        assert format_unipoly(scan.lcm) == "t^2 + t"
        assert scan.examined == 3

    def test_budget_flags_partial(self):
        fam = family("brenner_monsky", 2)
        M = build_Md(fam.ring, PrimePower(P2, 2), 6)
        scan = minors_lcm(M, budget=5)
        assert scan.partial and scan.examined == 6

    @pytest.mark.parametrize(
        "name,p,e", [("katzman", 2, 2), ("brenner_monsky", 2, 2), ("ss5", 2, 1), ("ss5", 3, 1)]
    )
    def test_matches_reference_scan_on_families(self, name, p, e):
        fam = family(name, p)
        q = PrimePower(PrimeModulus(p), e)
        n = len(fam.ring.weight1_indices())
        for d in range(1, n * (q.q - 1) + 1):
            M = build_Md(fam.ring, q, d)
            assert minors_lcm(M) == reference_minors_lcm(M, hq.DEFAULT_BUDGETS.minor_subsets)

    def test_matches_reference_scan_on_random_budgets(self, rng):
        # budgets that cut inside a row set, at the first position of a
        # row set (after the first row set, before the last one), at the
        # last position, and not at all
        cuts = 0
        for _ in range(60):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_sparse_matrix(rng, p, nr, nc, rng.choice((0.3, 0.5, 0.8)), deg=1)
            M = as_minor_matrix(A, p)
            full = full_positions(M)
            live = len({r for (r, _) in M.entries})
            last_row_set = comb(nc, min(live, nc))
            budgets = {1, nc, full - last_row_set, full - 1, full, full + 1, rng.randint(1, full + 1)}
            for budget in sorted(b for b in budgets if b >= 1):
                got = minors_lcm(M, budget)
                assert got == reference_minors_lcm(M, budget), (A, budget)
                assert got.partial == (budget < full)
                cuts += got.partial
        assert cuts >= 60
        # larger inputs with degree-2 entries and zero leading entries, so
        # the reference's Bareiss pivots: one complete scan and one cut each
        # (sparse and over F_2 or F_3, which keeps the lcm, and so the
        # reference's time, small)
        for n in (7, 8):
            p = PrimeModulus((2, 3)[rng.randrange(2)])
            A = rand_sparse_matrix(rng, p, n, n, density=0.5, deg=2)
            A[0][0] = A[1][1] = UniPoly.zero(p)
            M = as_minor_matrix(A, p)
            full = full_positions(M)
            for budget in (rng.randint(1, full - 1), full):
                got = minors_lcm(M, budget)
                assert got == reference_minors_lcm(M, budget), (A, budget)
                assert got.partial == (budget < full)

    def test_multiplies_only_the_terms_of_admitted_positions(self, rng, monkeypatch):
        # one uni_mul per distinct (signed entry, minor) product among the
        # nonzero expansion terms at positions the budget admits: no
        # product for a term that is zero, none for a column set past the
        # cut inside the cut row set, none by a signed entry 1, whose term
        # is the smaller minor itself, and none formed twice in one scan
        calls = []
        real = hq.uni_mul

        def counting(a, b, p):
            calls.append(1)
            return real(a, b, p)

        cuts = 0
        for _ in range(40):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_sparse_matrix(rng, p, nr, nc, rng.choice((0.3, 0.5, 0.8)), deg=1)
            M = as_minor_matrix(A, p)
            full = full_positions(M)
            for budget in sorted(b for b in {rng.randint(1, full + 1), full} if b >= 1):
                expected = expansion_products(M, budget)
                calls.clear()
                monkeypatch.setattr(hq, "uni_mul", counting)
                scan = minors_lcm(M, budget)
                monkeypatch.setattr(hq, "uni_mul", real)
                assert len(calls) == expected, (A, budget)
                cuts += scan.partial
        assert cuts >= 20

    def test_every_budget_on_small_matrices(self, rng):
        # each cut position of a few small matrices, so a cut that admits
        # one column set too many or too few changes some lcm
        for _ in range(12):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            A = rand_sparse_matrix(rng, p, 4, 4, density=0.6)
            M = as_minor_matrix(A, p)
            for budget in range(1, full_positions(M) + 2):
                assert minors_lcm(M, budget) == reference_minors_lcm(M, budget), (A, budget)


def banded_toeplitz(rng, p, nr, nc):
    """An nr x nc matrix whose (i, j) entry depends only on j - i, zero
    outside a random band of diagonals: its minors repeat often."""
    lo = rng.randint(-nr + 1, 0)
    hi = rng.randint(min(lo + 2, nc - 1), nc - 1)
    diag = {
        k: UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 2))])
        for k in range(lo, hi + 1)
    }
    zero = UniPoly.zero(p)
    return [[diag.get(j - i, zero) for j in range(nc)] for i in range(nr)]


class TestValueTable:
    @pytest.mark.parametrize("rows,p", [
        ((((1,), (1,)), ((1,), (1,))), P2),
        ((((1,), (1,)), ((1,), (1,))), P3),
        # the three terms of the 3-minor along the first row are each
        # (t + 1)^2, so over F_2 any two of them cancel and the third is
        # added to that zero
        ((((1,), (1, 1), (1, 1)), ((1,), (1,), (0, 1)), ((1,), (0, 1), (1,))), P2),
    ])
    def test_a_sum_that_cancels_is_neither_kept_nor_folded(self, rows, p, monkeypatch):
        sums, factors = [], []
        real_add, real_mul = hq.uni_add, hq.uni_mul

        def adding(a, b, q):
            sums.append(real_add(a, b, q))
            return sums[-1]

        def multiplying(a, b, q):
            factors.extend((a, b))
            return real_mul(a, b, q)

        A = [[UniPoly(p, c) for c in row] for row in rows]
        M = as_minor_matrix(A, p)
        fold = hq._LcmFold(p)
        monkeypatch.setattr(hq, "uni_add", adding)
        monkeypatch.setattr(hq, "uni_mul", multiplying)
        scan = minors_lcm(M, fold=fold)
        monkeypatch.undo()
        assert [] in sums  # a sum cancelled
        assert all(factors)  # and no product was formed by it
        assert 0 not in fold.folded
        dets = reference_minors(M, full_positions(M))[0]
        assert {fold.table.values[i] for i in fold.folded} == {det.coeffs for det in dets}
        assert scan == reference_minors_lcm(M, full_positions(M))
        # the 2x2 determinant is 0, the 3x3 one (t + 1)^2
        assert bareiss_det(A).is_zero == (len(A) == 2)

    def test_banded_toeplitz_matrices_at_every_budget(self, rng):
        # the memo answers most products and sums of these, and every
        # cut must still give the reference's lcm
        distinct = minors = 0
        for _ in range(10):
            p = PrimeModulus((2, 3, 5)[rng.randrange(3)])
            nr, nc = rng.choice(((4, 4), (3, 5), (5, 3)))
            M = as_minor_matrix(banded_toeplitz(rng, p, nr, nc), p)
            full = full_positions(M)
            for budget in range(1, full + 2):
                fold = hq._LcmFold(p)
                got = minors_lcm(M, budget, fold)
                assert got == reference_minors_lcm(M, budget), (M.entries, budget)
            minors += len(reference_minors(M, full)[0])
            distinct += len(fold.folded)
        assert 2 * distinct < minors


def window_of(ring, q):
    """The degrees [q-1, hi] by their definition: hi = (n-1)(q-1) + S,
    S the least over the weight-1 variables of that variable's largest
    exponent in a relation term, raised to q-1 and capped at n(q-1)."""
    w1 = ring.weight1_indices()
    n = len(w1)
    terms = [exps for rel in ring.relations for exps in rel.term_dict()]
    S = min(max(exps[i] for exps in terms) for i in w1)
    return range(q.q - 1, min(max((n - 1) * (q.q - 1) + S, q.q - 1), n * (q.q - 1)) + 1)


def all_degree_scan(ring, q, budget):
    """(h, examined, partial) of the reference's positional scan of every
    M_d, each under its own budget."""
    n = len(ring.weight1_indices())
    h, examined, partial = UniPoly.one(ring.p), 0, False
    for d in range(1, n * (q.q - 1) + 1):
        scan = reference_minors_lcm(build_Md(ring, q, d), budget)
        h = uni_lcm(h, scan.lcm)
        examined += scan.examined
        partial = partial or scan.partial
    return h, examined, partial


def random_ring(rng):
    """t and 2-3 weight-1 variables over F_2 or F_3, with 1-2 relations,
    each homogeneous of x-degree 1-3 with coefficients of degree <= 2 in t."""
    p = PrimeModulus(rng.choice((2, 3)))
    xs = "xyz"[:rng.choice((2, 3))]
    ring = RingSpec(p, (("t", 0),) + tuple((x, 1) for x in xs))
    relations = []
    for _ in range(rng.choice((1, 2))):
        degree = rng.randint(1, 3)
        monomials = monomials_of_degree(len(xs), degree)
        chosen = [m for m in monomials if rng.random() < 0.4] or [rng.choice(monomials)]
        terms = [
            (rng.randint(0, 2),) + m for m in chosen for _ in range(rng.randint(1, 2))
        ]
        relations.append(MultiPoly(ring, {e: rng.randint(1, p.p - 1) for e in terms}))
    return RingSpec(p, ring.variables, tuple(relations))


# the families at p <= 5, q <= 9 whose reference scans stay small under
# some budget, with the kinds of budget `matches_all_degree_scan` checks
FAMILY_CASES = [
    ("katzman", 2, 1, {"none"}), ("katzman", 2, 2, {"none", "window"}),
    ("katzman", 2, 3, {"none", "window"}), ("katzman", 3, 1, {"none"}),
    ("katzman", 3, 2, {"none", "window"}), ("katzman", 5, 1, {"none", "window"}),
    ("ss5", 2, 1, {"none"}), ("ss5", 2, 2, {"window"}), ("ss5", 3, 1, {"window"}),
    ("ss5", 5, 1, {"window"}), ("ss7", 2, 1, {"none", "window"}), ("ss7", 3, 1, {"window"}),
    ("brenner_monsky", 2, 1, {"none"}), ("brenner_monsky", 2, 2, {"none", "window"}),
]


class TestDegreeWindow:
    """Only the degrees [q-1, hi] can change h_q: below them each minor
    of M_d is one of M_(d+1), above them one of M_(d-1)."""

    def outer_minors_recur(self, ring, q, cap):
        # every nonzero minor of an outer degree is a minor, with the same
        # determinant, of the neighbour towards the window; the number of
        # degrees checked (those whose reference scans stay under `cap`)
        n = len(ring.weight1_indices())
        window = window_of(ring, q)
        checked = 0
        for d in range(1, n * (q.q - 1) + 1):
            if d in window:
                continue
            M = build_Md(ring, q, d)
            N = build_Md(ring, q, d + 1 if d < window.start else d - 1)
            if max(full_positions(M), full_positions(N)) > cap:
                continue
            dets = {det.coeffs for det in reference_minors(M, full_positions(M))[0]}
            assert dets <= {det.coeffs for det in reference_minors(N, full_positions(N))[0]}
            checked += bool(dets)
        return checked

    def matches_all_degree_scan(self, ring, q, cap):
        # h, minors_examined and partial equal the reference's scan of
        # every degree, under budgets that cut no degree, a window degree,
        # and only outer degrees, where each exists and the reference's
        # positions stay under `cap`; the kinds of budget checked
        n = len(ring.weight1_indices())
        degrees = range(1, n * (q.q - 1) + 1)
        positions = {d: full_positions(build_Md(ring, q, d)) for d in degrees}
        window = window_of(ring, q)
        inside = [positions[d] for d in window]
        outside = [positions[d] for d in degrees if d not in window]
        budgets = {"none": max(positions.values()) or 1}
        least = min((x for x in inside if x > 1), default=0)
        if least:
            budgets["window"] = least - 1
        if max(outside, default=0) > max(inside):
            budgets["outer"] = max(inside)
        checked = set()
        for kind, budget in budgets.items():
            if sum(min(x, budget) for x in positions.values()) > cap:
                continue
            with limits(Budgets(minor_subsets=budget)):
                cert = h_q(ring, q)
            want = all_degree_scan(ring, q, budget)
            assert (cert.h, cert.minors_examined, cert.partial) == want, (kind, budget)
            assert cert.partial == (kind != "none")
            checked.add(kind)
        return checked

    @pytest.mark.parametrize("name,p,e,kinds", FAMILY_CASES)
    def test_families(self, name, p, e, kinds):
        fam = family(name, p)
        q = PrimePower(PrimeModulus(p), e)
        self.outer_minors_recur(fam.ring, q, cap=4000)
        assert self.matches_all_degree_scan(fam.ring, q, cap=40_000) == kinds

    def test_outer_minors_recur_on_katzman(self):
        fam = family("katzman", 3)
        assert self.outer_minors_recur(fam.ring, PrimePower(P3, 2), cap=4000) == 9

    def test_random_rings(self, rng):
        kinds = {}
        recurring = 0
        for _ in range(40):
            ring = random_ring(rng)
            for e in (1, 2):
                q = PrimePower(ring.p, e)
                recurring += self.outer_minors_recur(ring, q, cap=2000)
                for kind in self.matches_all_degree_scan(ring, q, cap=20_000):
                    kinds[kind] = kinds.get(kind, 0) + 1
        assert recurring >= 20
        assert set(kinds) == {"none", "window", "outer"}, kinds


class TestTransposeDuality:
    """With one relation f, M_(D-d), D = n(q-1) + deg f, is M_d transposed
    once its zero columns (multipliers with an exponent >= q) are dropped:
    row u of M_(D-d) is column c - u of M_d, and column w' is row c - w',
    c = (q-1, ..., q-1).  So both have the same minors lcm and the same
    invariant factors."""

    def dual_pairs(self, ring, q, cap):
        # the number of degrees checked, and of those whose minors lcms
        # were compared (reference positions under `cap`)
        n = len(ring.weight1_indices())
        top = n * (q.q - 1)
        (f,) = ring.relations
        D = top + x_degree(f)
        c = (q.q - 1,) * n

        def minus(a, b):
            return tuple(x - y for x, y in zip(a, b))

        def columns(M):
            cols = {}
            for (i, j), a in M.entries.items():
                cols.setdefault(j, {})[i] = a
            return list(cols.values())

        checked = compared = 0
        for d in range(1, top + 1):
            if not 1 <= D - d <= top:
                continue
            M, N = build_Md(ring, q, d), build_Md(ring, q, D - d)
            live = [w for _, w in N.cols if max(w) < q.q]
            assert sorted(minus(c, u) for u in N.rows) == sorted(
                w for _, w in M.cols if max(w) < q.q
            )
            assert sorted(minus(c, w) for w in live) == sorted(M.rows)
            transposed = {
                (minus(c, N.cols[j][1]), minus(c, N.rows[i])): a.coeffs
                for (i, j), a in N.entries.items()
            }
            assert transposed == {
                (M.rows[i], M.cols[j][1]): a.coeffs for (i, j), a in M.entries.items()
            }
            assert invariant_factors(columns(M)) == invariant_factors(columns(N))
            if max(full_positions(M), full_positions(N)) <= cap:
                assert minors_lcm(M, cap).lcm == minors_lcm(N, cap).lcm
                compared += 1
            checked += 1
        return checked, compared

    @pytest.mark.parametrize("name,p,e", [case[:3] for case in FAMILY_CASES])
    def test_families(self, name, p, e):
        fam = family(name, p)
        checked, compared = self.dual_pairs(fam.ring, PrimePower(PrimeModulus(p), e), 4000)
        assert compared or not checked  # q = 2 leaves katzman and brenner_monsky no pair

    def test_random_rings(self, rng):
        checked = compared = 0
        for _ in range(40):
            ring = random_ring(rng)
            if len(ring.relations) == 1:
                for e in (1, 2):
                    got = self.dual_pairs(ring, PrimePower(ring.p, e), 2000)
                    checked, compared = checked + got[0], compared + got[1]
        assert checked >= 40 and compared >= 30, (checked, compared)


def submatrix(M, rows):
    """M's block on the rows `rows` (indices into M.rows) and the columns
    with an entry there, both in M's order, as comparable tuples."""
    cols = sorted({c for r, c in M.entries if r in rows})
    rows = sorted(rows)
    return (
        tuple(M.rows[r] for r in rows),
        tuple(M.cols[c] for c in cols),
        tuple((i, j, M.entries[r, c].coeffs) for i, r in enumerate(rows)
              for j, c in enumerate(cols) if (r, c) in M.entries),
    )


def as_tuples(B):
    return B.rows, B.cols, tuple(sorted((i, j, a.coeffs) for (i, j), a in B.entries.items()))


def scanned_by_lemmas(ring, q):
    """The window degrees h_q scans when the budget cuts none of them, from
    the three facts that place the nonzero minors of M_d among those of
    another degree: A, d + 1 for d <= q-2; B, d - 1 above the window; and,
    with a single relation f, C, D - d with D = n(q-1) + deg f, both ways.
    Closed transitively; a window degree is scanned unless it reaches a
    window degree that does not reach it back, or a smaller one that does."""
    n = len(ring.weight1_indices())
    top = n * (q.q - 1)
    window = window_of(ring, q)
    degrees = range(1, top + 1)
    covers = {(d, d) for d in degrees}
    for d in degrees:
        if d <= q.q - 2:
            covers.add((d, d + 1))
        if d > window.stop - 1:
            covers.add((d, d - 1))
        if len(ring.relations) == 1 and 1 <= top + x_degree(ring.relations[0]) - d <= top:
            covers.add((d, top + x_degree(ring.relations[0]) - d))
    for k in degrees:
        for i in degrees:
            if (i, k) in covers:
                covers |= {(i, j) for j in degrees if (k, j) in covers}
    return [
        d for d in window
        if not any((d, e) in covers and ((e, d) not in covers or e < d) for e in window if e != d)
    ]


def block_shapes(M, rows):
    """M's block on the rows `rows`, rows relabeled by their order in M and
    columns taken as a set: blocks equal up to the order of their columns
    have one shape."""
    rank = {r: i for i, r in enumerate(sorted(rows))}
    columns = {}
    for (r, c), a in M.entries.items():
        if r in rank:
            columns.setdefault(c, []).append((rank[r], a.coeffs))
    return tuple(sorted(tuple(sorted(col)) for col in columns.values()))


class TestBlocksFromComponents:
    """The blocks `h_q` scans on uncut degrees are ktmodule's row
    components, laid out as the reference's blocks of the whole M_d, on
    the degrees the window and the transpose duality leave."""

    def walked_blocks(self, ring, q, monkeypatch, budget=hq.DEFAULT_BUDGETS.minor_subsets):
        # degree -> the blocks of the components h_q walks there, and the
        # number of blocks it scans into an lcm of their own
        walked, scans = {}, []
        real_walk, real_init = hq._row_components, hq._LcmFold.__init__

        def walk(gens, n, d, cap, covered):
            components = list(real_walk(gens, n, d, cap, covered))
            walked[d] = [hq._block(ring.p, d, rows, columns)
                         for _, rows, columns in components if columns]
            return iter(components)

        def init(fold, p_mod, table=None):
            if table is not None:  # a block's own lcm shares h's table
                scans.append(fold)
            real_init(fold, p_mod, table)

        monkeypatch.setattr(hq, "_row_components", walk)
        monkeypatch.setattr(hq._LcmFold, "__init__", init)
        with limits(Budgets(minor_subsets=budget)):
            h_q(ring, q)
        monkeypatch.undo()
        return walked, len(scans)

    # every family at p <= 5, q <= 9 (brenner_monsky needs p = 2) but
    # ss7 at q = 8 and 9, whose cut degrees take tens of seconds to build
    # and scan positionally
    @pytest.mark.parametrize("name,p,e", [
        (name, p, e) for name in ("katzman", "ss5", "ss7", "brenner_monsky")
        for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
        if (name != "ss7" or p ** e < 8) and (name != "brenner_monsky" or p == 2)
    ])
    def test_families(self, name, p, e, monkeypatch):
        # the degrees walked are the scanned ones with a position, within
        # the budget, and each one's blocks are the reference's blocks of
        # its M_d, rows and columns in M_d's order
        ring = family(name, p).ring
        q = PrimePower(PrimeModulus(p), e)
        budget = hq.DEFAULT_BUDGETS.minor_subsets
        n = len(ring.weight1_indices())
        degrees = range(1, n * (q.q - 1) + 1)
        walked, _ = self.walked_blocks(ring, q, monkeypatch)
        matrices = {d: build_Md(ring, q, d) for d in degrees}
        fits = {d: full_positions(M) <= budget for d, M in matrices.items()}
        window = window_of(ring, q)
        scanned = scanned_by_lemmas(ring, q) if all(fits[d] for d in window) else degrees
        assert sorted(walked) == [d for d in scanned if fits[d] and matrices[d].entries]
        for d, blocks in walked.items():
            M = matrices[d]
            want = sorted(submatrix(M, rows) for rows in connected_blocks(M))
            assert sorted(as_tuples(B) for B in blocks) == want, d

    def test_random_rings(self, rng, monkeypatch):
        # on rings with one relation and with two, the degrees walked are
        # the ones the lemmas leave, when the budget cuts no window degree
        kinds = set()
        for _ in range(16):
            ring = random_ring(rng)
            for e in (1, 2):
                q = PrimePower(ring.p, e)
                n = len(ring.weight1_indices())
                matrices = {d: build_Md(ring, q, d) for d in range(1, n * (q.q - 1) + 1)}
                fits = {d: full_positions(M) <= 20_000 for d, M in matrices.items()}
                if not all(fits[d] for d in window_of(ring, q)):
                    continue
                walked, _ = self.walked_blocks(ring, q, monkeypatch, 20_000)
                scanned = scanned_by_lemmas(ring, q)
                assert sorted(walked) == [d for d in scanned if fits[d] and matrices[d].entries]
                kinds.add((len(ring.relations), len(scanned) < len(window_of(ring, q))))
        assert kinds == {(1, False), (1, True), (2, False)}

    @pytest.mark.parametrize("name,p,e,budget,inert", [
        ("brenner_monsky", 2, 2, hq.DEFAULT_BUDGETS.minor_subsets, False),
        ("ss5", 3, 1, hq.DEFAULT_BUDGETS.minor_subsets, False),
        ("ss5", 2, 2, 10**30, False),
        ("ss5", 2, 2, 10**30, True),
    ])
    def test_distinct_block_scans(self, name, p, e, budget, inert, monkeypatch):
        # each distinct block of the scanned degrees that split is scanned
        # once per call, and blocks equal up to the order of their columns
        # share the scan.  `inert` adds the relation u^13: above n(q-1) = 12
        # it has no column and leaves the window alone, but with two
        # relations there is no duality, every window degree is scanned,
        # and keyed by their entries in M_d's layout more blocks would
        # count as distinct
        ring = family(name, p).ring
        if inert:
            u13 = MultiPoly.monomial(ring, (0, 13, 0, 0, 0))
            ring = RingSpec(ring.p, ring.variables, ring.relations + (u13,))
        q = PrimePower(PrimeModulus(p), e)
        shapes, layouts = set(), set()
        for d in scanned_by_lemmas(ring, q):
            M = build_Md(ring, q, d)
            blocks = connected_blocks(M)
            if len(blocks) > 1:
                shapes |= {block_shapes(M, rows) for rows in blocks}
                layouts |= {submatrix(M, rows)[2] for rows in blocks}
        assert self.walked_blocks(ring, q, monkeypatch, budget)[1] == len(shapes)
        assert (len(shapes) < len(layouts)) == inert


class TestHq:
    def test_katzman_values(self):
        fam = family("katzman", 2)
        cert = h_q(fam.ring, PrimePower(P2, 1))
        assert cert.h == UniPoly.one(P2) and cert.s_max == 0
        cert = h_q(fam.ring, PrimePower(P2, 2))
        assert format_unipoly(cert.h) == "t^4 + t"
        assert cert.s_max == 1 and not cert.partial
        assert cert.bound_constant == Fraction(1, 4)

    def test_katzman_p3(self):
        fam = family("katzman", 3)
        cert = h_q(fam.ring, PrimePower(P3, 1))
        assert format_unipoly(cert.h) == "t + 1"

    def test_brenner_monsky_q4(self):
        fam = family("brenner_monsky", 2)
        cert = h_q(fam.ring, PrimePower(P2, 2))
        assert format_unipoly(cert.h) == "t^6 + t^4"
        assert [(format_unipoly(f), m) for f, m in cert.factorization] == [
            ("t", 4),
            ("t + 1", 2),
        ]
        assert cert.s_max == 4 and not cert.partial

    def test_scan_state_lives_for_one_call(self, monkeypatch):
        # a value table that outlived one h_q call, or one minors_lcm call
        # run alone, would make the second call do less arithmetic than
        # the first
        calls = []
        real = hq.uni_mul

        def counting(a, b, p):
            calls.append(1)
            return real(a, b, p)

        monkeypatch.setattr(hq, "uni_mul", counting)
        fam = family("katzman", 3)
        q = PrimePower(P3, 1)
        first = h_q(fam.ring, q)
        n_first = len(calls)
        second = h_q(fam.ring, q)
        assert n_first > 0 and len(calls) == 2 * n_first
        assert first.h == second.h
        calls.clear()
        M = build_Md(fam.ring, PrimePower(P3, 2), 8)
        first = minors_lcm(M)
        n_first = len(calls)
        second = minors_lcm(M)
        assert n_first > 0 and len(calls) == 2 * n_first
        assert first == second

    @pytest.mark.parametrize("name,p,e,budget", [
        ("katzman", 2, 2, 4), ("katzman", 3, 2, 60), ("katzman", 5, 1, 15),
        ("ss5", 2, 2, 300), ("ss5", 3, 1, 600), ("ss5", 5, 1, 40),
        ("brenner_monsky", 2, 2, 300),
    ])
    def test_one_fold_is_the_lcm_of_the_degree_scans(self, name, p, e, budget):
        # one lcm over all degrees equals the lcm of each degree's own
        # reference scan, with budgets that let the first degree with a
        # minor finish and cut a later one
        fam = family(name, p)
        q = PrimePower(PrimeModulus(p), e)
        n = len(fam.ring.weight1_indices())
        scans = [reference_minors_lcm(build_Md(fam.ring, q, d), budget)
                 for d in range(1, n * (q.q - 1) + 1)]
        first = next(s for s in scans if s.examined)
        assert not first.partial and any(s.partial for s in scans)
        h = UniPoly.one(fam.ring.p)
        for scan in scans:
            h = uni_lcm(h, scan.lcm)
        with limits(Budgets(minor_subsets=budget)):
            cert = h_q(fam.ring, q)
        assert cert.h == h and cert.h.degree > 0
        assert cert.minors_examined == sum(s.examined for s in scans)
        assert cert.partial

    @pytest.mark.parametrize("name,p,e,budget,merged", [
        ("katzman", 3, 2, hq.DEFAULT_BUDGETS.minor_subsets, False), ("katzman", 5, 1, 15, False),
        ("ss5", 3, 1, 600, True), ("ss5", 5, 1, 40, False), ("brenner_monsky", 2, 2, 300, False),
    ])
    def test_each_monic_minor_is_divided_into_the_lcm_once(
        self, name, p, e, budget, merged, monkeypatch
    ):
        # every lcm of one call, h's and one per distinct block, has its
        # divisibility tests on the distinct non-constant monic forms of
        # the minors scanned into it and of the block products merged
        # into it, each tested once; each distinct block is scanned once;
        # `merged`: some distinct minors share a monic form
        folds, scans, products, divisions = [], [], [], []
        inside = []  # the fold of the scan or merge running
        real_init, real_merge = hq._LcmFold.__init__, hq._LcmFold.merge
        real_scan, real_rem = hq.minors_lcm, hq.uni_rem

        def creating(fold, *args):
            folds.append(fold)
            real_init(fold, *args)

        def scanning(M, budget, fold):
            scans.append((M, fold))
            inside.append(fold)
            try:
                return real_scan(M, budget, fold)
            finally:
                inside.pop()

        def merging(fold, D):
            if not inside:
                products.append((fold, D.monic().coeffs))
            inside.append(fold)
            try:
                return real_merge(fold, D)
            finally:
                inside.pop()

        def recording(a, b, p):
            divisions.append((inside[-1], tuple(b)))
            return real_rem(a, b, p)

        fam = family(name, p)
        q = PrimePower(PrimeModulus(p), e)
        n = len(fam.ring.weight1_indices())
        monkeypatch.setattr(hq._LcmFold, "__init__", creating)
        monkeypatch.setattr(hq._LcmFold, "merge", merging)
        monkeypatch.setattr(hq, "minors_lcm", scanning)
        monkeypatch.setattr(hq, "uni_rem", recording)
        with limits(Budgets(minor_subsets=budget)):
            cert = h_q(fam.ring, q)
        monkeypatch.undo()
        for fold in folds:
            expected = {c for f, c in products if f is fold} | {
                det.monic().coeffs
                for M, f in scans if f is fold
                for det in reference_minors(M, budget)[0] if det.degree > 0
            }
            divisors = [b for f, b in divisions if f is fold]
            assert len(divisors) == len(set(divisors)) and set(divisors) == expected
        h_fold, block_folds = folds[0], folds[1:]
        block_scans = [M for M, f in scans if f is not h_fold]
        assert [f for _, f in scans if f is not h_fold] == block_folds
        keys = [frozenset(M.entries.items()) for M in block_scans]
        assert len(keys) == len(set(keys))
        occurrences = 0
        for d in range(1, n * (q.q - 1) + 1):
            M = build_Md(fam.ring, q, d)
            blocks = connected_blocks(M)
            if len(blocks) > 1 and full_positions(M) <= budget:
                occurrences += len(blocks)
        # some block recurs wherever there are blocks to scan
        assert (len(block_scans) < occurrences) == (occurrences > 0) == bool(block_scans)
        dets = [
            det
            for d in range(1, n * (q.q - 1) + 1)
            for det in reference_minors(build_Md(fam.ring, q, d), budget)[0]
            if det.degree > 0
        ]
        minors = {det.monic().coeffs for det in dets}
        assert (len(minors) < len({det.coeffs for det in dets})) == merged
        h = UniPoly.one(fam.ring.p)
        for d in range(1, n * (q.q - 1) + 1):
            h = uni_lcm(h, reference_minors_lcm(build_Md(fam.ring, q, d), budget).lcm)
        assert cert.h == h

    def test_q_must_be_a_power_of_the_characteristic(self):
        # the refusal frobenius_generators gives for the same mismatch
        fam = family("katzman", 2)
        q = PrimePower(P3, 1)
        with pytest.raises(InputError) as hq_error:
            h_q(fam.ring, q)
        with pytest.raises(InputError) as frobenius_error:
            frobenius_generators(fam.ideal, q)
        assert str(hq_error.value) == str(frobenius_error.value) == (
            "characteristic mismatch: q is a power of 3, ring has 2"
        )

    def test_json_round_trip_fields(self):
        fam = family("katzman", 2)
        cert = h_q(fam.ring, PrimePower(P2, 2))
        d = cert.to_json_dict()
        assert d["q"] == 4 and d["h_text"] == "t^4 + t"
        assert d["h_coefficients"] == list(cert.h.coeffs)
        assert not d["partial"]
