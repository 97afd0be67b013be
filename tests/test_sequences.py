import pytest

from frobgrow.errors import InputError, ModulusMismatch
from frobgrow.fpoly import PrimeModulus, UniPoly, parse_unipoly
from frobgrow.sequences import Census, SequenceSpec, big_L, factor_census, p_seq

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
PRIMES = (2, 3, 5, 7)


# the tridiagonal determinant: P_n by cofactor expansion, independent of
# the recurrence; test_hq and test_acceptance use it too


def tridiag_matrix(spec: SequenceSpec, n: int):
    """The n x n tridiagonal matrix with diagonal r1, superdiagonal r0,
    subdiagonal r2."""
    zero = UniPoly.zero(spec.p)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(spec.r1)
            elif j == i + 1:
                row.append(spec.r0)
            elif j == i - 1:
                row.append(spec.r2)
            else:
                row.append(zero)
        rows.append(row)
    return rows


def cofactor_det(matrix) -> UniPoly:
    """Determinant by cofactor expansion along the first row, memoized on
    the surviving column set.  Zero entries prune the recursion, so
    banded matrices stay cheap; kept independent of the scalar
    recurrence on purpose."""
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise InputError("determinant needs a nonempty square matrix")
    p = matrix[0][0].p
    one = UniPoly.one(p)
    zero = UniPoly.zero(p)
    memo: dict[tuple, UniPoly] = {}

    def expand(cols: tuple) -> UniPoly:
        if not cols:
            return one
        got = memo.get(cols)
        if got is not None:
            return got
        row = len(matrix) - len(cols)
        acc = zero
        for pos, j in enumerate(cols):
            entry = matrix[row][j]
            if entry.is_zero:
                continue
            minor = expand(cols[:pos] + cols[pos + 1 :])
            term = entry * minor
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return expand(tuple(range(len(matrix))))


def tridiag_det(spec: SequenceSpec, n: int) -> UniPoly:
    """Determinant of the n x n tridiagonal matrix; equals p_seq(spec, n)."""
    if n < 1:
        raise InputError("matrix size must be at least 1")
    return cofactor_det(tridiag_matrix(spec, n))


def spec(p, r0="1", r1="t", r2="1"):
    return SequenceSpec.parse(p, r0, r1, r2)


def rand_spec(rng, p):
    def poly():
        return UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 4))])

    while True:
        r1 = poly()
        if not r1.is_zero:
            return SequenceSpec(poly(), r1, poly())


class TestPSeq:
    def test_small_values(self):
        p5 = PrimeModulus(5)
        s = spec(p5)
        assert p_seq(s, 0) == parse_unipoly("1", p5)
        assert p_seq(s, 1) == parse_unipoly("t", p5)
        assert p_seq(s, 2) == parse_unipoly("t^2-1", p5)
        assert p_seq(s, 3) == parse_unipoly("t^3-2*t", p5)

    def test_f2_sixth(self):
        assert p_seq(spec(P2), 6) == parse_unipoly("t^6+t^4+1", P2)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            p_seq(spec(P2), -1)

    def test_degree_growth_under_condition(self, rng):
        for p in map(PrimeModulus, PRIMES):
            for _ in range(10):
                s = rand_spec(rng, p)
                if not s.degree_condition:
                    continue
                for n in range(26):
                    assert p_seq(s, n).degree == n * s.r1.degree


class TestSpecValidation:
    def test_r1_nonzero(self):
        with pytest.raises(InputError):
            SequenceSpec(UniPoly.one(P2), UniPoly.zero(P2), UniPoly.one(P2))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            SequenceSpec(UniPoly.one(P2), UniPoly.one(P3), UniPoly.one(P2))

    def test_degree_condition(self):
        assert spec(P2).degree_condition
        assert not spec(P2, "t^2", "t", "1").degree_condition
        assert not SequenceSpec(
            UniPoly.zero(P2), UniPoly.t(P2), UniPoly.one(P2)
        ).degree_condition


class TestTridiagDet:
    def test_small(self):
        s = spec(P3)
        assert tridiag_det(s, 1) == parse_unipoly("t", P3)
        assert tridiag_det(s, 2) == parse_unipoly("t^2-1", P3)
        assert tridiag_det(s, 5) == p_seq(s, 5)

    def test_matches_recurrence_random(self, rng):
        # acceptance criterion 1 exercises 200 specs; this is the unit-sized copy
        for _ in range(30):
            p = PrimeModulus(PRIMES[rng.randrange(4)])
            s = rand_spec(rng, p)
            n = rng.randint(1, 12)
            assert tridiag_det(s, n) == p_seq(s, n)

    def test_size_must_be_positive(self):
        with pytest.raises(InputError):
            tridiag_det(spec(P2), 0)

    def test_matrix_shape(self):
        m = tridiag_matrix(spec(P3), 4)
        assert len(m) == 4 and all(len(row) == 4 for row in m)
        assert m[2][2] == spec(P3).r1
        assert m[1][2] == spec(P3).r0
        assert m[2][1] == spec(P3).r2


class TestCofactorDet:
    def test_rejects_ragged(self):
        one = UniPoly.one(P2)
        with pytest.raises(InputError):
            cofactor_det([[one, one], [one]])


class TestBigL:
    def test_empty_lcm(self):
        assert big_L(spec(P2), 1) == UniPoly.one(P2)

    def test_l2(self):
        assert big_L(spec(P2), 2) == parse_unipoly("t", P2)

    def test_l4_over_f2(self):
        assert big_L(spec(P2), 4) == parse_unipoly("t^5+t^3", P2)

    def test_each_p_divides(self, rng):
        for _ in range(10):
            p = PrimeModulus(PRIMES[rng.randrange(4)])
            s = rand_spec(rng, p)
            if not s.degree_condition:
                continue
            n = rng.randint(2, 10)
            L = big_L(s, n)
            for i in range(1, n):
                assert (L % p_seq(s, i)).is_zero

    def test_zero_p_reports_degree_condition(self):
        # P_2 = t^2 - 1*t^2 = 0 for this spec
        s = SequenceSpec.parse(P2, "1", "t", "t^2")
        with pytest.raises(InputError) as exc:
            big_L(s, 4)
        assert str(exc.value) == (
            "P_2 vanishes; the degree condition 2 deg r1 > deg r0 + deg r2 fails"
        )


class TestCensus:
    def test_empty(self):
        c = factor_census([], 0)
        assert c.distinct_irreducibles == ()

    def test_p0_p2(self):
        s = spec(P2)
        c = factor_census([("P_0", p_seq(s, 0)), ("P_2", p_seq(s, 2))], 0)
        assert [str(f) for f in c.distinct_irreducibles] == ["t + 1"]
        assert c.max_multiplicity == 2

    def test_adding_p6(self):
        s = spec(P2)
        c = factor_census(
            [("P_0", p_seq(s, 0)), ("P_2", p_seq(s, 2)), ("P_6", p_seq(s, 6))], 0
        )
        assert len(c.distinct_irreducibles) == 2
        assert str(c.distinct_irreducibles[-1]) == "t^3 + t^2 + 1"

    def test_permutation_invariant(self, rng):
        s = spec(P3)
        polys = [(f"P_{n}", p_seq(s, n)) for n in range(1, 8)]
        base = factor_census(polys, 3).distinct_irreducibles
        shuffled = polys[:]
        rng.shuffle(shuffled)
        assert factor_census(shuffled, 3).distinct_irreducibles == base

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            factor_census([("z", UniPoly.zero(P2))], 0)
