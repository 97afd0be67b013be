import pytest

from frobgrow.errors import InputError, ModulusMismatch, ParseError
from frobgrow.fpoly import (
    FactorList,
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    format_multipoly,
    format_unipoly,
    frobenius_generators,
    parse_poly,
    parse_unipoly,
    uni_factor,
    uni_gcd,
    uni_lcm,
    x_degree,
)

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def u(text, p):
    return parse_unipoly(text, p)


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 2147483647):
            assert PrimeModulus(p).p == p

    def test_rejects_composites_and_small(self):
        for bad in (0, 1, 4, 9, 100):
            with pytest.raises(InputError):
                PrimeModulus(bad)

    def test_rejects_too_large(self):
        with pytest.raises(InputError):
            PrimeModulus((1 << 31) + 11)


class TestPrimePower:
    def test_value(self):
        q = PrimePower(P3, 4)
        assert q.q == 81

    def test_from_value(self):
        assert PrimePower.from_value(2, 8).e == 3
        with pytest.raises(InputError):
            PrimePower.from_value(2, 12)
        with pytest.raises(InputError):
            PrimePower.from_value(4, 4)

    def test_negative_exponent(self):
        with pytest.raises(InputError):
            PrimePower(P2, -1)


class TestUniGcd:
    def test_char2_square(self):
        assert uni_gcd(u("t^2+1", P2), u("t+1", P2)) == u("t+1", P2)

    def test_unit_argument(self):
        assert uni_gcd(u("t", P2), u("1", P2)) == u("1", P2)

    def test_coprime_sequence_values(self):
        # P_2 = (t+1)^2 and P_4 = (t^2+t+1)^2 over F_2 share no factor
        p2 = u("t^2+1", P2)
        p4 = u("t^4+t^2+1", P2)
        assert uni_gcd(p2, p4) == u("1", P2)

    def test_gcd_of_zeros(self):
        z = UniPoly.zero(P2)
        assert uni_gcd(z, z).is_zero

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            uni_gcd(u("t", P2), u("t", P3))

    def test_divides_both_and_lcm_product(self, rng):
        for p in (P2, P3, P5, P7):
            for _ in range(50):
                a = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 9))])
                b = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 9))])
                g = uni_gcd(a, b)
                if g.is_zero:
                    continue
                assert (a % g).is_zero and (b % g).is_zero
                if not a.is_zero and not b.is_zero:
                    assert uni_lcm(a, b) * g == (a * b).monic()


class TestUniLcm:
    def test_simple(self):
        assert uni_lcm(u("t", P2), u("t+1", P2)) == u("t^2+t", P2)
        assert uni_lcm(u("t^2", P2), u("t", P2)) == u("t^2", P2)

    def test_sequence_values_f3(self):
        assert uni_lcm(u("t", P3), u("t^2-1", P3)) == u("t^3+2*t", P3)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            uni_lcm(UniPoly.zero(P2), u("t", P2))


class TestUniFactor:
    def test_frobenius_square(self):
        fl = uni_factor(u("t^2+1", P2))
        assert list(fl) == [(u("t+1", P2), 2)]

    def test_split_over_f5(self):
        fl = uni_factor(u("t^2+1", P5))
        assert list(fl) == [(u("t+2", P5), 1), (u("t+3", P5), 1)]

    def test_p6_over_f2(self):
        fl = uni_factor(u("t^6+t^4+1", P2))
        assert list(fl) == [(u("t^3+t^2+1", P2), 1 + 1)]

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            uni_factor(UniPoly.zero(P2))

    def test_round_trip_random(self, rng):
        for p in (P2, P3, P5, P7):
            for _ in range(125):
                coeffs = [rng.randrange(p.p) for _ in range(rng.randint(1, 41))]
                a = UniPoly(p, coeffs)
                if a.is_zero:
                    continue
                fl = uni_factor(a)
                prod = UniPoly.const(p, fl.unit)
                for f, m in fl:
                    prod = prod * f**m
                assert prod == a

    def test_factors_irreducible(self, rng):
        # gcd(tau, t^(p^d) - t mod tau) must be trivial for d < deg tau
        for p in (P2, P3, P5):
            for _ in range(20):
                a = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(2, 13))])
                if a.is_zero or a.degree < 1:
                    continue
                for tau, _m in uni_factor(a):
                    t = UniPoly.t(p)
                    for d in range(1, tau.degree):
                        frob = t.powmod(p.p**d, tau) - (t % tau)
                        g = uni_gcd(frob, tau)
                        assert g.degree in (0, tau.degree)

    def test_agrees_with_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for p in (P2, P3, P5, P7):
            for _ in range(40):
                a = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 25))])
                if a.is_zero:
                    continue
                poly = sympy.Poly(list(reversed(a.coeffs)), t, modulus=p.p)
                unit, sym_factors = poly.factor_list()
                # sympy prints GF(p) coefficients as symmetric residues
                want = [
                    (UniPoly(p, [int(c) for c in reversed(f.monic().all_coeffs())]), m)
                    for f, m in sym_factors
                ]
                fl = uni_factor(a)
                assert fl.unit == int(unit) % p.p
                assert list(fl) == sorted(want, key=lambda fm: fm[0].sort_key())


class TestParsePoly:
    def ring(self, p=P2):
        return RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))

    def test_three_terms(self):
        f = parse_poly("x^2 + t*x*y + y^2", self.ring())
        assert len(f._terms) == 3
        assert x_degree(f) == 2

    def test_katzman_expansion(self):
        for p in (P2, P3, P5):
            ring = self.ring(p)
            f = parse_poly("x*y*(x-y)*(x-t*y)", ring)
            x, y, t = ring.variable("x"), ring.variable("y"), ring.variable("t")
            pm1 = MultiPoly.const(ring, p.p - 1)
            expected = x**3 * y + pm1 * (MultiPoly.const(ring, 1) + t) * x**2 * y**2 + t * x * y**3
            assert f == expected

    def test_double_star_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x**2", self.ring())
        assert exc.value.position == 2

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x + z", self.ring())

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse_poly("x^70000", self.ring())

    def test_print_parse_round_trip(self, rng):
        ring = self.ring(P5)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                m = tuple(rng.randrange(4) for _ in range(3))
                terms[m] = rng.randrange(5)
            f = MultiPoly(ring, terms)
            assert parse_poly(format_multipoly(f), ring) == f


class TestWeightedDegree:
    def test_t_only(self):
        ring = RingSpec(P2, (("t", 0), ("x", 1)))
        assert x_degree(parse_poly("t^5", ring)) == 0

    def test_non_homogeneous(self):
        ring = RingSpec(P2, (("t", 0), ("x", 1)))
        with pytest.raises(InputError, match="not homogeneous"):
            x_degree(parse_poly("x + t", ring))


class TestMultiArith:
    def test_freshman_dream(self):
        ring = RingSpec(P2, (("x", 1), ("y", 1)))
        f = parse_poly("x+y", ring)
        assert f * f == parse_poly("x^2+y^2", ring)

    def test_expansion(self):
        ring = RingSpec(P5, (("t", 0), ("x", 1), ("y", 1)))
        f = parse_poly("(x-y)*(x-t*y)", ring)
        assert f == parse_poly("x^2 - (1+t)*x*y + t*y^2", ring)

    def test_mul_zero(self):
        ring = RingSpec(P3, (("x", 1),))
        f = parse_poly("x^2+1", ring)
        assert (f * MultiPoly.const(ring, 0)).is_zero

    def test_algebraic_laws_random(self, rng):
        ring = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))

        def rand():
            return MultiPoly(
                ring,
                {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(3)
                    for _ in range(rng.randint(0, 4))
                },
            )

        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestFrobeniusGenerators:
    def test_monomial_ideal(self):
        from frobgrow.groebner import IdealHandle

        ring = RingSpec(P2, (("x", 1), ("y", 1)))
        I = IdealHandle(ring, ["x", "y"])
        J = frobenius_generators(I, PrimePower(P2, 2))
        assert [format_multipoly(g) for g in J.generators] == ["x^4", "y^4"]

    def test_four_generators(self):
        from frobgrow.groebner import IdealHandle

        ring = RingSpec(P3, (("u", 1), ("v", 1), ("x", 1), ("y", 1)))
        I = IdealHandle(ring, ["u", "v", "x", "y"])
        J = frobenius_generators(I, PrimePower(P3, 1))
        assert [format_multipoly(g) for g in J.generators] == [
            "u^3",
            "v^3",
            "x^3",
            "y^3",
        ]

    def test_frobenius_endomorphism(self):
        from frobgrow.groebner import IdealHandle

        ring = RingSpec(P2, (("x", 1), ("y", 1)))
        I = IdealHandle(ring, ["x+y"])
        J = frobenius_generators(I, PrimePower(P2, 1))
        assert [format_multipoly(g) for g in J.generators] == ["x^2 + y^2"]

    def test_characteristic_mismatch(self):
        from frobgrow.groebner import IdealHandle

        ring = RingSpec(P2, (("x", 1),))
        I = IdealHandle(ring, ["x"])
        with pytest.raises(InputError):
            frobenius_generators(I, PrimePower(P3, 1))

    def test_contained_in_ordinary_power(self):
        from frobgrow.groebner import IdealHandle, normal_form

        ring = RingSpec(P2, (("x", 1), ("y", 1)))
        I = IdealHandle(ring, ["x", "y"])
        J = frobenius_generators(I, PrimePower(P2, 1))
        square = IdealHandle(ring, ["x^2", "x*y", "y^2"])
        for g in J.generators:
            assert normal_form(g, square).is_zero


class TestCanonicalText:
    def test_unipoly_format(self):
        assert format_unipoly(u("t^2+1", P2)) == "t^2 + 1"
        assert format_unipoly(UniPoly.zero(P3)) == "0"
        assert format_unipoly(u("2*t", P3)) == "2*t"

    def test_multipoly_format(self):
        ring = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        f = parse_poly("x^2 + t*x*y + y^2", ring)
        assert format_multipoly(f) == "t*x*y + x^2 + y^2"


class TestExponentCap:
    def test_monomial_cap(self):
        ring = RingSpec(P2, (("x", 1),))
        with pytest.raises(InputError):
            MultiPoly(ring, {(1 << 16,): 1})
