"""Separating polynomials h_q(t) from minors of coefficient matrices.

For a ring k[t, x_1..x_n]/(f_1..f_r) with homogeneous relations, the
matrix M_d presents degree d of S/I^[q] as ktmodule's slices do: rows
the standard monomials (every exponent < q), columns the relation
multiples.  The lcm of all nonzero minors of all M_d (1 <= d <= n(q-1))
separates the isolated component of (x_1^q..x_n^q, f_1..f_r).

The minors scan counts positions in a fixed (size, row set, column set)
order, and the `minor_subsets` budget bounds that count, not the number
of determinants computed; the count and the budget's cut are arithmetic
on binomial coefficients.  The scan's work is in proportion to the
nonzero minors: each k-minor is built from the nonzero (k-1)-minors of
its rows below the first, one term per nonzero entry of the first row,
so row sets and column sets without a nonzero minor are never visited.
`bareiss_det`, an elimination determinant the scan does not call, is
the tests' independent reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ._kernels import uni_add, uni_divmod, uni_mul, uni_sub
from .budgets import DEFAULT as DEFAULT_BUDGETS, check_deadline
from .errors import InputError
from .fpoly import (
    FactorList,
    PrimePower,
    RingSpec,
    UniPoly,
    format_unipoly,
    uni_factor,
    uni_lcm,
    x_degree,
)
from .ktmodule import _columns_of, _single_t_index
from .orders import monomials_of_degree


# ---------------------------------------------------------------------------
# determinants over k[t]


def bareiss_det(matrix) -> UniPoly:
    """Fraction-free (Bareiss) determinant of a square UniPoly matrix.

    The entries are converted to coefficient lists once and eliminated
    with the list kernels; only the result is wrapped as a UniPoly.
    The minors scan does not call it (it builds each minor from its own
    smaller minors), so it serves as the scan's independent reference in
    the tests."""
    n = len(matrix)
    if n == 0:
        raise InputError("determinant of an empty matrix")
    P = matrix[0][0].p
    p = P.p
    A = [[list(e.coeffs) for e in row] for row in matrix]
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if not A[k][k]:
            pivot = next((i for i in range(k + 1, n) if A[i][k]), None)
            if pivot is None:
                return UniPoly.zero(P)
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        row_k = A[k]
        a_kk = row_k[k]
        for i in range(k + 1, n):
            row_i = A[i]
            a_ik = row_i[k]
            for j in range(k + 1, n):
                num = uni_sub(uni_mul(a_kk, row_i[j], p), uni_mul(a_ik, row_k[j], p), p)
                if k:  # prev is 1 at the first step
                    quo, rem = uni_divmod(num, prev, p)
                    if rem:
                        raise InputError(
                            f"inexact division: {UniPoly(P, num)} by {UniPoly(P, prev)}"
                        )
                    num = quo
                row_i[j] = num
            row_i[k] = []
        prev = a_kk
    det = A[n - 1][n - 1]
    return UniPoly(P, det if sign == 1 else uni_sub([], det, p))


# ---------------------------------------------------------------------------
# the matrices M_d


@dataclass(frozen=True)
class MinorMatrix:
    """Coefficient matrix of the degree-d graded piece.

    Rows are exponent vectors u over the weight-1 variables with |u| = d
    and every entry < q; columns are (relation index, multiplier
    exponent vector w) with |w| = d - deg(f_i); the (u, (i, w)) entry is
    the k[t] coefficient of x^(u-w) in f_i when u - w is componentwise
    non-negative, else zero.
    """

    p: "PrimeModulus"
    d: int
    rows: tuple  # exponent vectors over the weight-1 variables
    cols: tuple  # (relation index, exponent vector)
    entries: dict  # (row index, col index) -> nonzero UniPoly

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def entry(self, r: int, c: int) -> UniPoly | None:
        return self.entries.get((r, c))


def build_Md(ring: RingSpec, q: PrimePower, d: int) -> MinorMatrix:
    """The matrix M_d, rows and columns in a fixed grevlex order: each
    column is a relation multiple from ktmodule's `_columns_of` on the
    standard rows, kept when that leaves it zero.  A multiplier with an
    exponent >= q reaches no standard row, so its column is zero unread."""
    w1 = ring.weight1_indices()
    n = len(w1)
    if n == 0:
        raise InputError("no weight-1 variables")
    ti = _single_t_index(ring)
    if not 1 <= d <= n * (q.q - 1):
        raise InputError(f"degree {d} outside 1..{n * (q.q - 1)}")
    degs = [x_degree(rel) for rel in ring.relations]
    for rel, dd in zip(ring.relations, degs):
        if dd <= 0:
            raise InputError(f"relation not homogeneous of positive degree: {rel}")

    def grevlex_desc(total, cap=None):
        # at a fixed degree, descending grevlex is ascending lex on the
        # reversed vectors: the enumerator's order, backwards
        return [e[::-1] for e in reversed(monomials_of_degree(n, total, cap))]

    rows = tuple(grevlex_desc(d, q.q - 1))
    row_index = {u: ri for ri, u in enumerate(rows)}
    cols = []
    entries = {}
    for i, rel in enumerate(ring.relations):
        if d - degs[i] < 0:
            continue
        for w in grevlex_desc(d - degs[i]):
            ci = len(cols)
            cols.append((i, w))
            if max(w) >= q.q:
                continue  # every row it reaches has that exponent
            for u, a in _columns_of(rel, ti, w1, w).items():
                ri = row_index.get(u)
                if ri is not None:
                    entries[(ri, ci)] = a
    return MinorMatrix(p=ring.p, d=d, rows=rows, cols=tuple(cols), entries=entries)


# ---------------------------------------------------------------------------
# minor enumeration


@dataclass(frozen=True)
class MinorScan:
    """Result of enumerating the nonzero minors of one matrix."""

    lcm: UniPoly
    examined: int
    partial: bool


def _unrank(rank: int, items, size: int) -> int:
    """Bits of the size-subset of `items` (ascending) at lexicographic
    `rank` among all of them."""
    bits = 0
    j = 0
    for left in range(size, 0, -1):
        while rank >= (below := comb(len(items) - j - 1, left - 1)):
            rank -= below
            j += 1
        bits |= 1 << items[j]
        j += 1
    return bits


def _lex_below(a: int, b: int) -> bool:
    """Whether the set with bits `a` comes before the equally large set
    with bits `b` in lexicographic order of their ascending elements: the
    least element they do not share is in `a`."""
    x = a ^ b
    return bool(a & x & -x)


def minors_lcm(M: MinorMatrix, budget: int = DEFAULT_BUDGETS.minor_subsets) -> MinorScan:
    """Monic lcm of all nonzero minors of all sizes, with incremental
    gcd-dedup.  The empty matrix contributes 1.

    Minors are positioned by increasing size, then row set, then column
    set, each in lexicographic order, skipping row sets with a zero row
    of M.  `examined` counts positions in that order, not determinants
    computed: a size adds C(live rows, size) * C(ncols, size) at once.
    Exhausting the budget flags the scan PARTIAL instead of failing,
    after exactly the first `budget` positions, with
    `examined = budget + 1`.  Positions are counted through every size up
    to min(live rows, ncols), even once the nonzero minors have run out,
    so a budget can cut inside an all-zero size.

    The work follows the nonzero minors.  Those of the previous size are
    kept grouped by row set.  A k-row set is formed as a first row r0
    placed before a row set of that size with nonzero minors, its rest;
    each nonzero (k-1)-minor of the rest at column set C contributes
    (-1)^j * M[r0][c] * minor to the k-minor at C + {c}, for every
    nonzero entry M[r0][c] with c not in C (j is the number of columns
    of C below c).  That is the expansion of the k-minor along its first
    row with its zero terms left out, so a row set or column set that
    carries no nonzero minor is never visited.  In a size the budget
    cuts, row sets after the cut one are never formed, and in the cut
    row set only the terms of admitted column sets are computed.  Each
    distinct determinant is folded into the lcm once.
    """
    nr, nc = M.shape
    p_mod = M.p
    p = p_mod.p
    # per row, its nonzero entries as (column bit, bits of the columns
    # below it, entry, -entry)
    first_terms = [[] for _ in range(nr)]
    for (r, c), a in M.entries.items():
        first_terms[r].append((1 << c, (1 << c) - 1, a.coeffs, uni_sub([], a.coeffs, p)))
    live = [r for r in range(nr) if first_terms[r]]
    acc = UniPoly.one(p_mod)
    examined = 0
    folded = set()  # determinants already folded into acc
    # nonzero minors of the previous size: row set bits -> column set
    # bits -> coefficient list
    prev = {0: {0: [1]}}
    for size in range(1, min(len(live), nc) + 1):
        check_deadline()
        n_cols = comb(nc, size)
        positions = comb(len(live), size) * n_cols
        left = budget - examined
        # when the budget ends inside this size: the row set it cuts and
        # the first column set of that row set it does not admit
        cut_rows = cut_cols = None
        if positions <= left:
            examined += positions
        else:
            cut, left = divmod(left, n_cols)
            cut_rows = _unrank(cut, live, size)
            cut_cols = _unrank(left, range(nc), size)
        cur = {}
        for rest, cofactors in prev.items():
            check_deadline()
            below_rest = rest & -rest or 1 << nr
            for r0 in live:
                rows = rest | 1 << r0
                if 1 << r0 >= below_rest or (
                    cut_rows is not None and rows != cut_rows
                    and not _lex_below(rows, cut_rows)
                ):
                    break  # so is every later r0
                only_before = rows == cut_rows
                dets = cur.setdefault(rows, {})
                for cbits, cof in cofactors.items():
                    for bit, below, a, neg_a in first_terms[r0]:
                        if cbits & bit:
                            continue
                        key = cbits | bit
                        if only_before and not _lex_below(key, cut_cols):
                            continue
                        term = uni_mul(neg_a if (cbits & below).bit_count() & 1 else a, cof, p)
                        det = dets.get(key)
                        dets[key] = term if det is None else uni_add(det, term, p)
        prev = {}
        for rows, dets in cur.items():
            for cbits, det in dets.items():
                if not det:
                    continue
                prev.setdefault(rows, {})[cbits] = det
                key = tuple(det)
                if key in folded:
                    continue
                folded.add(key)
                det = UniPoly(p_mod, det).monic()
                if not (acc % det).is_zero:
                    acc = uni_lcm(acc, det)
        if cut_rows is not None:
            return MinorScan(lcm=acc, examined=budget + 1, partial=True)
    return MinorScan(lcm=acc, examined=examined, partial=False)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class HqCertificate:
    """The separating polynomial for one prime power, with provenance."""

    q: PrimePower
    h: UniPoly
    factorization: FactorList
    s_max: int
    bound_constant: Fraction
    minors_examined: int
    partial: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.q.p.p,
            "e": self.q.e,
            "q": self.q.q,
            "h_coefficients": list(self.h.coeffs),
            "h_text": format_unipoly(self.h),
            "factors": [
                {"poly": format_unipoly(f), "coefficients": list(f.coeffs), "multiplicity": m}
                for f, m in self.factorization
            ],
            "s_max": self.s_max,
            "bound_constant": str(self.bound_constant),
            "minors_examined": self.minors_examined,
            "partial": self.partial,
        }


def h_q(
    ring: RingSpec,
    q: PrimePower,
    budget: int = DEFAULT_BUDGETS.minor_subsets,
    seed: int = 0,
) -> HqCertificate:
    """lcm of the minor-lcms of every M_d, factored and bounded."""
    n = len(ring.weight1_indices())
    acc = UniPoly.one(ring.p)
    examined = 0
    partial = False
    for d in range(1, n * (q.q - 1) + 1):
        M = build_Md(ring, q, d)
        scan = minors_lcm(M, budget)
        examined += scan.examined
        partial = partial or scan.partial
        if scan.lcm.degree > 0:
            acc = uni_lcm(acc, scan.lcm)
    acc = acc.monic()
    factorization = uni_factor(acc, seed)
    s_max = factorization.max_multiplicity
    return HqCertificate(
        q=q,
        h=acc,
        factorization=factorization,
        s_max=s_max,
        bound_constant=Fraction(s_max, q.q ** (n - 1)),
        minors_examined=examined,
        partial=partial,
    )
