"""Separating polynomials h_q(t) from minors of coefficient matrices.

For a ring k[t, x_1..x_n]/(f_1..f_r) with homogeneous relations, the
matrix M_d presents degree d of S/I^[q] as ktmodule's slices do: rows
the standard monomials (every exponent < q), columns the relation
multiples.  The lcm of all nonzero minors of all M_d (1 <= d <= n(q-1))
separates the isolated component of (x_1^q..x_n^q, f_1..f_r).  The
Cramer-lift solver rewrites fraction-field solutions with base-ring
ones and serves as the internal verification oracle for that
construction.

The minors scan counts positions in a fixed (size, row set, column set)
order, and the `minor_subsets` budget bounds that count, not the number
of determinants computed.  Only minors that can be nonzero are computed
(no zero row or column), each by one Laplace expansion over the scan's
own minors of the size below.  `bareiss_det` is the determinant for
`minor_lift` and the tests' independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import orders
from ._kernels import uni_add, uni_divmod, uni_mul, uni_sub
from .budgets import DEFAULT as DEFAULT_BUDGETS
from .errors import InputError, VerificationError
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


# ---------------------------------------------------------------------------
# determinants over k[t]


def bareiss_det(matrix) -> UniPoly:
    """Fraction-free determinant of a square UniPoly matrix; cofactor
    expansion for dimension <= 3.

    The entries are converted to coefficient lists once and eliminated
    with the list kernels; only the result is wrapped as a UniPoly.
    `minor_lift` solves with it; the minors scan does not call it (it
    expands along rows over its own smaller minors), so it also serves
    as the scan's independent reference in the tests."""
    n = len(matrix)
    if n == 0:
        raise InputError("determinant of an empty matrix")
    P = matrix[0][0].p
    if n == 1:
        return matrix[0][0]
    p = P.p
    A = [[list(e.coeffs) for e in row] for row in matrix]
    if n == 2:
        (a, b), (c, d) = A
        return UniPoly(P, uni_sub(uni_mul(a, d, p), uni_mul(b, c, p), p))
    if n == 3:
        a, b, c = A[0]
        d, e, f = A[1]
        g, h, i = A[2]
        ei_fh = uni_sub(uni_mul(e, i, p), uni_mul(f, h, p), p)
        di_fg = uni_sub(uni_mul(d, i, p), uni_mul(f, g, p), p)
        dh_eg = uni_sub(uni_mul(d, h, p), uni_mul(e, g, p), p)
        det = uni_sub(uni_mul(a, ei_fh, p), uni_mul(b, di_fg, p), p)
        return UniPoly(P, uni_add(det, uni_mul(c, dh_eg, p), p))
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
    standard rows, kept when that leaves it zero."""
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
    prec = tuple(range(n))

    def grevlex_desc(exps):
        return sorted(exps, key=lambda e: orders._grevlex_key(e, prec), reverse=True)

    rows = tuple(grevlex_desc(orders.monomials_of_degree(n, d, cap=q.q - 1)))
    row_index = {u: ri for ri, u in enumerate(rows)}
    cols = []
    entries = {}
    for i, rel in enumerate(ring.relations):
        if d - degs[i] < 0:
            continue
        for w in grevlex_desc(orders.monomials_of_degree(n, d - degs[i])):
            ci = len(cols)
            cols.append((i, w))
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


def minors_lcm(M: MinorMatrix, budget: int = DEFAULT_BUDGETS.minor_subsets) -> MinorScan:
    """Monic lcm of all nonzero minors of all sizes, with incremental
    gcd-dedup.  The empty matrix contributes 1.

    Minors are positioned by increasing size, then row set, then column
    set, each in lexicographic order, skipping row sets with a zero row
    of M.  `examined` counts positions reached in that order, not
    determinants computed: a row set advances it by C(ncols, size) at
    once, and only column sets inside the row set's nonzero columns are
    visited, since any other has a zero column.  Exhausting the budget
    flags the scan PARTIAL instead of failing, after exactly the first
    `budget` positions, with `examined = budget + 1`.

    Each k x k minor is expanded along its first row; its cofactors are
    the (k-1)-minors of the scan's previous size, kept by position.  Every
    nonzero (k-1)-minor is at a position that size visited (rows in
    `live`, columns among their nonzero ones, no zero row), and a budget
    cut ends the scan inside its size, so a position not kept is a zero
    minor.  Only the minors of the previous and the current size are
    kept, and each distinct determinant is folded into the lcm once.
    """
    nr, nc = M.shape
    p_mod = M.p
    p = p_mod.p
    row_coeffs = [{} for _ in range(nr)]  # col -> nonzero coefficient list
    for (r, c), a in M.entries.items():
        row_coeffs[r][c] = a.coeffs
    row_mask = [sum(1 << c for c in row) for row in row_coeffs]
    live = [r for r in range(nr) if row_mask[r]]
    acc = UniPoly.one(p_mod)
    examined = 0
    folded = set()  # determinants already folded into acc
    # nonzero minors of the previous size, keyed by position as
    # (row set bits << nc) | column set bits
    prev = {0: (1,)}
    for size in range(1, min(nr, nc) + 1):
        n_cols = comb(nc, size)
        cur = {}
        for rows in itertools.combinations(live, size):
            left = budget - examined
            cut = n_cols > left
            if not cut:
                examined += n_cols
            rkey = sum(1 << r for r in rows) << nc
            rest = rkey ^ 1 << (rows[0] + nc)  # rows[1:]
            first = row_coeffs[rows[0]]
            active = sorted(set().union(*(row_coeffs[r] for r in rows)))
            for cols in itertools.combinations(active, size):
                # past the budget: the lexicographic rank of cols among all
                # size-subsets of range(nc) is its position in this row set
                if cut and n_cols - 1 - sum(
                    comb(nc - 1 - c, size - i) for i, c in enumerate(cols)
                ) >= left:
                    break
                # a fully zero row inside the submatrix: det 0
                cbits = 0
                for c in cols:
                    cbits |= 1 << c
                if any(not (row_mask[r] & cbits) for r in rows):
                    continue
                det = []
                for j, c in enumerate(cols):
                    a = first.get(c)
                    if a is None:
                        continue
                    cof = prev.get(rest | cbits ^ 1 << c)
                    if cof is None:
                        continue
                    term = uni_mul(a, cof, p)
                    det = uni_sub(det, term, p) if j & 1 else uni_add(det, term, p)
                if not det:
                    continue
                cur[rkey | cbits] = det
                key = tuple(det)
                if key in folded:
                    continue
                folded.add(key)
                det = UniPoly(p_mod, det).monic()
                if not (acc % det).is_zero:
                    acc = uni_lcm(acc, det)
            if cut:
                return MinorScan(lcm=acc, examined=budget + 1, partial=True)
        prev = cur
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
    budget_exhausted: bool

    @property
    def partial(self) -> bool:
        return self.budget_exhausted

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
            "partial": self.budget_exhausted,
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
        budget_exhausted=partial,
    )


# ---------------------------------------------------------------------------
# the Cramer lift


def minor_lift(A, sums):
    """Given a k x l matrix over k[t] and right-hand sides divisible by
    every nonzero minor, produce base-ring multipliers b' with A b' = sums.

    Selects a maximal nonsingular square submatrix, appends identity rows
    for the free columns with zero right-hand side, and solves by
    Cramer's rule with exact division.
    """
    if not A or not A[0]:
        raise InputError("matrix must be nonempty")
    k, l = len(A), len(A[0])
    if any(len(row) != l for row in A):
        raise InputError("ragged matrix")
    if len(sums) != k:
        raise InputError("right-hand side length must match the row count")
    p = A[0][0].p
    zero = UniPoly.zero(p)
    one = UniPoly.one(p)

    # greedy maximal nonsingular submatrix
    sel_rows: list[int] = []
    sel_cols: list[int] = []
    for c in range(l):
        for r in range(k):
            if r in sel_rows:
                continue
            trial_rows = sel_rows + [r]
            trial_cols = sel_cols + [c]
            sub = [[A[i][j] for j in trial_cols] for i in trial_rows]
            if not bareiss_det(sub).is_zero:
                sel_rows, sel_cols = trial_rows, trial_cols
                break

    free_cols = [c for c in range(l) if c not in sel_cols]
    # bordered l x l system: selected rows of A, then identity rows
    rows = [[A[r][c] for c in range(l)] for r in sel_rows]
    rhs = [sums[r] for r in sel_rows]
    for c in free_cols:
        rows.append([one if j == c else zero for j in range(l)])
        rhs.append(zero)
    det = bareiss_det(rows) if rows else one
    if det.is_zero:
        raise VerificationError("bordered system is singular")
    solution = []
    for j in range(l):
        numer_rows = [
            [rhs[i] if jj == j else rows[i][jj] for jj in range(l)]
            for i in range(l)
        ]
        numer = bareiss_det(numer_rows)
        quot, rem = divmod(numer, det)
        if not rem.is_zero:
            raise VerificationError(
                "right-hand side not divisible by the selected minor",
                witness=format_unipoly(det),
            )
        solution.append(quot)
    # the lift must reproduce every equation, including unselected rows
    for r in range(k):
        acc = zero
        for j in range(l):
            acc = acc + A[r][j] * solution[j]
        if acc != sums[r]:
            raise VerificationError(
                f"inconsistent system at row {r}",
                witness=format_unipoly(sums[r] - acc),
            )
    return solution
