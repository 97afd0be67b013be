"""Separating polynomials h_q(t) from minors of coefficient matrices.

For a ring k[t, x_1..x_n]/(f_1..f_r) with homogeneous relations, the
matrix M_d presents degree d of S/I^[q] as ktmodule's slices do: rows
the standard monomials (every exponent < q), columns the relation
multiples.  The lcm of all nonzero minors of all M_d (1 <= d <= n(q-1))
separates the isolated component of (x_1^q..x_n^q, f_1..f_r).

The minors scan counts positions in a fixed (size, row set, column set)
order, and the `minor_subsets` budget bounds that count, not the number
of determinants computed; the count and the budget's cut are arithmetic
on binomial coefficients.  The scan's work follows the nonzero
minors: each k-minor is built from the nonzero (k-1)-minors of its rows
below the first, one term per nonzero entry of the first row, so row
sets and column sets without a nonzero minor are never visited.  The
scan works on interned k[t] values.  The entry of M_d at (u, (i, w))
depends only on u - w, so the same determinants recur many times, and
one `h_q` call forms each distinct product (signed entry, smaller minor)
and each distinct sum once; a term whose signed entry is 1 takes no
product.

The same translation lets `h_q` scan only the window of degrees that
can change h, and a split M_d block by block (ktmodule's row components),
each distinct block once (its lcm is the product of the block lcms); only
a cut degree is built whole.  `minors_examined`, the PARTIAL flag and h
stay those of a positional scan of every M_d.

Transpose duality.  Let the only relation be f, of x-degree delta >= 1,
the covers x_i^e of every weighted variable (e = q for I^[q]),
c = (e-1, ..., e-1) and D = n(e-1) + delta.  Row u of M_(D-d) is matched
with column w = c - u of M_d, and column w' of M_(D-d), when w' <= c,
with row c - w' of M_d; both maps keep the degrees (|c - u| = d - delta,
|c - w'| = d) and are bijections.  The entry at (u, w') is the
coefficient of x^(u-w') in f, and at (c - w', c - u) that of
x^((c-w') - (c-u)) = x^(u-w'): the same.  The other columns of M_(D-d),
multipliers with an exponent >= e, are zero.  So M_(D-d) with its zero
columns dropped is M_d transposed, with the same nonzero minors (the same
lcm), rank and invariant factors.  `h_q` scans one degree of each such
pair, and `ktmodule.SliceCache.at` reads the upper degree off the lower.
`bareiss_det`, an elimination determinant the scan does not call, is
the tests' independent reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, ge

from ._kernels import uni_add, uni_divmod, uni_mul, uni_rem, uni_sub
from .budgets import DEFAULT as DEFAULT_BUDGETS, check_deadline
from .errors import InputError
from .fpoly import (
    FactorList,
    PrimePower,
    RingSpec,
    UniPoly,
    format_unipoly,
    uni_factor,
    uni_gcd,
    x_degree,
)
from .ktmodule import _columns_of, _row_components, _single_t_index
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


def _relation_columns(ring: RingSpec) -> list:
    """(x-degree, supports, column) of each relation, as ktmodule's
    `_generator_data` gives them: the column is `_columns_of` at
    multiplier 1, {x-exponent: k[t] coefficient}, and the supports are
    its sorted keys."""
    w1 = ring.weight1_indices()
    ti = _single_t_index(ring)
    out = []
    for rel in ring.relations:
        dd = x_degree(rel)
        if dd <= 0:
            raise InputError(f"relation not homogeneous of positive degree: {rel}")
        column = _columns_of(rel, ti, w1, (0,) * len(w1))
        out.append((dd, sorted(column), column))
    return out


def build_Md(ring: RingSpec, q: PrimePower, d: int) -> MinorMatrix:
    """The matrix M_d, rows and columns in a fixed grevlex order: each
    column is a relation multiple on the standard rows, kept when that
    leaves it zero.  Each relation's column is computed once per call,
    at multiplier 1, and translated by every multiplier w.  A multiplier
    with an exponent >= q reaches no standard row, so its column is zero
    unread."""
    n = len(ring.weight1_indices())
    if n == 0:
        raise InputError("no weight-1 variables")
    if not 1 <= d <= n * (q.q - 1):
        raise InputError(f"degree {d} outside 1..{n * (q.q - 1)}")
    relations = _relation_columns(ring)

    def grevlex_desc(total, cap=None):
        # at a fixed degree, descending grevlex is ascending lex on the
        # reversed vectors: the enumerator's order, backwards
        return [e[::-1] for e in reversed(monomials_of_degree(n, total, cap))]

    rows = tuple(grevlex_desc(d, q.q - 1))
    row_index = {u: ri for ri, u in enumerate(rows)}
    cols = []
    entries = {}
    for i, (dd, _, column) in enumerate(relations):
        if d - dd < 0:
            continue
        column = column.items()
        for w in grevlex_desc(d - dd):
            ci = len(cols)
            cols.append((i, w))
            if max(w) >= q.q:
                continue  # every row it reaches has that exponent
            for u, a in column:
                ri = row_index.get(tuple(map(add, u, w)))
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


class _Values:
    """The k[t] values of one scan, or of one `h_q` call, interned.

    Each distinct coefficient tuple has an int id, its index in `values`:
    0 is the zero polynomial and 1 the constant 1.  `products` and `sums`
    memoize the id of a product (signed entry, cofactor) and of a sum of
    two ids, so each distinct one is formed once while the table lives."""

    def __init__(self, p_mod):
        self.p = p_mod.p
        self.values = [(), (1,)]
        self.ids = {(): 0, (1,): 1}
        self.products = {}  # (signed entry id, cofactor id) -> id
        self.sums = {}  # (id, id) -> id

    def intern(self, coeffs) -> int:
        key = tuple(coeffs)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.values)
            self.values.append(key)
        return i

    def product(self, e: int, c: int) -> int:
        i = self.products[e, c] = self.intern(uni_mul(self.values[e], self.values[c], self.p))
        return i

    def sum(self, a: int, b: int) -> int:
        i = self.sums[a, b] = self.intern(uni_add(self.values[a], self.values[b], self.p))
        return i


class _LcmFold:
    """A running monic lcm of the determinants given to `add` as ids of
    `table` (a fresh `_Values` unless one is shared).

    `add` folds an id not folded yet, keyed by its monic form: constants
    are skipped, and each distinct non-constant monic D is divided into
    the lcm once (`merge`).  When D does not divide it, the lcm becomes
    lcm * D / gcd(D, r), with r the remainder that test left."""

    def __init__(self, p_mod, table: _Values | None = None):
        self.table = table or _Values(p_mod)
        self.lcm = UniPoly.one(p_mod)
        self.folded = set()  # ids given to `add`, each once
        self.monic = set()  # monic forms divided into the lcm

    def add(self, i: int) -> None:
        """Fold the value with id i, which `folded` does not hold yet."""
        self.folded.add(i)
        key = self.table.values[i]
        if len(key) > 1:
            self.merge(UniPoly(self.lcm.p, key))

    def merge(self, D: UniPoly) -> None:
        """Make the lcm lcm(lcm, D), for a non-constant D."""
        D = D.monic()
        if D.coeffs in self.monic:
            return  # folded as another multiple
        self.monic.add(D.coeffs)
        rem = uni_rem(self.lcm.coeffs, D.coeffs, D.p.p)
        if rem:
            self.lcm *= D.exact_div(uni_gcd(D, UniPoly(D.p, rem)))


def minors_lcm(
    M: MinorMatrix, budget: int = DEFAULT_BUDGETS.minor_subsets, fold: _LcmFold | None = None
) -> MinorScan:
    """Monic lcm of all nonzero minors of all sizes.  The empty matrix
    contributes 1.

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
    row set only the terms of admitted column sets are computed.  A term
    whose signed entry (-1)^j * M[r0][c] is 1 is the (k-1)-minor itself,
    so it takes no product.

    The scan works on the ids of `fold`'s interned values (`_LcmFold`):
    the minors kept per row set are ids, each entry and its negative are
    interned once per matrix, and `uni_mul` or `uni_add` forms a product
    (signed entry, cofactor) or a sum of two ids only the first time the
    table meets it.  A sum that cancels to 0 is neither kept nor folded.
    Each nonzero minor goes into `fold`, which folds each distinct id
    once and divides each distinct monic form into the lcm once.  Called
    alone, the scan has a fresh table and lcm of its own; `h_q` passes
    one for all its degrees, and the scan's `lcm` is then that running
    lcm.
    """
    nr, nc = M.shape
    p = M.p.p
    if fold is None:
        fold = _LcmFold(M.p)
    table, folded = fold.table, fold.folded
    intern, products, sums = table.intern, table.products, table.sums
    # per row, its nonzero entries as (column bit, bits of the columns
    # below it, id of the entry, id of -entry)
    first_terms = [[] for _ in range(nr)]
    for (r, c), a in M.entries.items():
        first_terms[r].append(
            (1 << c, (1 << c) - 1, intern(a.coeffs), intern(uni_sub([], a.coeffs, p)))
        )
    live = [r for r in range(nr) if first_terms[r]]
    examined = 0
    # nonzero minors of the previous size: row set bits -> column set
    # bits -> id
    prev = {0: {0: 1}}
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
                        e = neg_a if (cbits & below).bit_count() & 1 else a
                        # a product is never 0, so `or` falls back only on a miss
                        term = cof if e == 1 else products.get((e, cof)) or table.product(e, cof)
                        det = dets.get(key)  # None, or 0 once terms cancelled
                        if det:
                            total = sums.get((det, term))
                            dets[key] = table.sum(det, term) if total is None else total
                        else:
                            dets[key] = term
        prev = {}
        for rows, dets in cur.items():
            nonzero = {cbits: det for cbits, det in dets.items() if det}
            if nonzero:
                prev[rows] = nonzero
                for det in nonzero.values():
                    if det not in folded:
                        fold.add(det)
        if cut_rows is not None:
            return MinorScan(lcm=fold.lcm, examined=budget + 1, partial=True)
    return MinorScan(lcm=fold.lcm, examined=examined, partial=False)


# ---------------------------------------------------------------------------
# what h_q scans


def _window(relations, n: int, q: int) -> range:
    """The degrees [q-1, hi] whose minors hold those of every M_d:
    hi = (n-1)(q-1) + S, S = min_j max s_j over the relations' support
    exponents s, kept within the degrees 1..n(q-1) (none when q = 1)."""
    supports = [s for _, sup, _ in relations for s in sup]
    S = min(max((s[j] for s in supports), default=0) for j in range(n))
    return range(max(q - 1, 1), min(max((n - 1) * (q - 1) + S, q - 1), n * (q - 1)) + 1)


def _undualled(window: range, top: int, q: int, D: int) -> set:
    """The window degrees to scan for a single relation: minors(M_d) lie
    among those of M_(d+1) for d <= q-2 (Lemma A), of M_(d-1) above the
    window (Lemma B), and equal those of M_(D-d) (Lemma C, the duality of
    the module docstring).  A window degree is scanned when every window
    degree these moves reach from it reaches it back, and it is the least
    of them; every window degree reaches a scanned one."""

    def moves(d):
        if d <= q - 2:
            yield d + 1
        if d >= window.stop:
            yield d - 1
        if 1 <= D - d <= top:
            yield D - d

    reach = {}
    for d in window:
        seen, todo = {d}, [d]
        while todo:
            for e in moves(todo.pop()):
                if e not in seen:
                    seen.add(e)
                    todo.append(e)
        reach[d] = seen.intersection(window)
    return {d for d in window if all(d <= e and d in reach[e] for e in reach[d])}


def _positions(relations, n: int, q: int, d: int) -> int:
    """The positions an unbudgeted `minors_lcm` counts on M_d, without
    building it.  Its live rows are the standard monomials of degree d
    that dominate a support exponent, a of them, and its c columns number
    sum_i C(d - deg f_i + n - 1, n - 1); the positions are
    sum_k>=1 C(a, k) C(c, k) = C(a + c, c) - 1."""
    check_deadline()
    supports = [s for dd, sup, _ in relations if dd <= d for s in sup]
    live = sum(
        any(all(map(ge, u, s)) for s in supports) for u in monomials_of_degree(n, d, q - 1)
    )
    cols = sum(comb(d - dd + n - 1, n - 1) for dd, _, _ in relations if dd <= d)
    return comb(live + cols, cols) - 1


def _block(p_mod, d: int, rows, columns) -> MinorMatrix:
    """A row component of M_d (`_row_components`) as a MinorMatrix in M_d's
    order: rows as given, columns by relation, then multiplier grevlex-descending."""
    cols = sorted(columns, key=lambda col: (col[0], col[1][::-1]))
    ri = {u: i for i, u in enumerate(rows)}
    entries = {(ri[u], ci): a for ci, col in enumerate(cols) for u, a in columns[col].items()}
    return MinorMatrix(p_mod, d, tuple(rows), tuple(cols), entries)


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
    """The monic lcm of the nonzero minors of every M_d, factored and
    bounded.  Each M_d has its own `budget` of positions; all scans of
    one call share one table of values.

    Only the window [q-1, hi] (`_window`) can change h.  The entry at
    (u, (i, w)) depends only on u - w and grevlex order is translation
    invariant, so shifting rows and multipliers by e_j makes each minor
    of M_d, d <= q-2, one of M_(d+1); shifting by -e_j, for a j whose
    exponent in every support term is at most S, makes each nonzero
    minor of M_d, d > hi, one of M_(d-1).  So when the budget cuts no
    window degree only the window is scanned, and every degree counts its
    positions in closed form (`_positions`), or budget + 1 and PARTIAL
    where the budget cuts it.  With a single relation M_(D-d) is M_d
    transposed (the module docstring), so a window degree whose minors
    these three facts place among another scanned degree's is skipped
    (`_undualled`).  When the budget cuts a window degree, every degree
    is scanned, each cut one positionally on its whole M_d, so a PARTIAL
    h is the lcm of the same minors as ever: the positional order is not
    transpose-invariant.

    An uncut degree is not built whole: its blocks are the row components
    (`_row_components`) of the relation columns, all kept as columns, over
    the monomials with every exponent < q, in M_d's order (`_block`).
    Several blocks add the product of their lcms: each nonzero minor is a
    product of square block minors, so valuations add.  Each distinct
    block (by its key) is scanned once per call, into its own lcm; a
    single block folds into h, each distinct monic minor divided in once."""
    if q.p != ring.p:
        raise InputError(
            f"characteristic mismatch: q is a power of {q.p.p}, ring has {ring.p.p}"
        )
    n = len(ring.weight1_indices())
    fold = _LcmFold(ring.p)
    examined = 0
    partial = False
    degrees = range(1, n * (q.q - 1) + 1)
    relations = _relation_columns(ring) if degrees else []
    positions = {d: _positions(relations, n, q.q, d) for d in degrees}
    window = _window(relations, n, q.q)
    if any(positions[d] > budget for d in window):
        window = degrees
    elif len(relations) == 1:
        top = degrees.stop - 1
        window = _undualled(window, top, q.q, top + relations[0][0])
    block_lcms = {}  # a component's key -> the lcm of its minors
    for d in degrees:
        cut = positions[d] > budget
        examined += budget + 1 if cut else positions[d]
        partial = partial or cut
        if d not in window or not positions[d]:  # no minor there can change h
            continue
        if cut:
            minors_lcm(build_Md(ring, q, d), budget, fold)
            continue
        walk = _row_components(relations, n, d, q.q - 1, lambda u: max(u) >= q.q)
        blocks = [component for component in walk if component[2]]
        if len(blocks) == 1:
            minors_lcm(_block(ring.p, d, *blocks[0][1:]), budget, fold)
            continue
        product = UniPoly.one(ring.p)
        for key, rows, columns in blocks:
            if key not in block_lcms:
                block = _block(ring.p, d, rows, columns)
                block_lcms[key] = minors_lcm(block, budget, _LcmFold(ring.p, fold.table)).lcm
            product *= block_lcms[key]
        if product.degree > 0:
            fold.merge(product)
    acc = fold.lcm
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
