import json
import os
import random

import pytest

from frobgrow.budgets import DEFAULT as DEFAULT_BUDGETS, Budgets
from frobgrow.errors import BudgetExceeded, InputError, RingMismatch
from frobgrow.fpoly import (
    MultiPoly,
    PrimeModulus,
    RingSpec,
    format_multipoly,
    parse_poly,
)
from frobgrow.groebner import (
    IdealHandle,
    _BasisElt,
    _buchberger,
    _exact_div_multi,
    _nf_raw,
    _saturation_gens,
    _to_raw,
    colon,
    eliminate,
    ideal_equal,
    intersect,
    member_bounded_oracle,
    normal_form,
    power_containment,
    saturate,
    saturation_exponent,
)
from frobgrow import orders
from frobgrow.orders import MonomialOrder
from frobgrow.sequences import SequenceSpec, p_seq

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def ring_txy(p=P2):
    return RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))


def ring_xy(p=P2):
    return RingSpec(p, (("x", 1), ("y", 1)))


def random_polys(rng, R, count, exp=4):
    """`count` random polynomials of R with two or three terms."""
    p = R.p.p
    return [
        MultiPoly(R, {
            tuple(rng.randrange(exp) for _ in range(R.nvars)): rng.randrange(1, p)
            for _ in range(rng.randint(2, 3))
        })
        for _ in range(count)
    ]


class TestGroebnerBasis:
    def test_single_generator(self):
        R = ring_xy()
        assert [str(g) for g in IdealHandle(R, ["x"]).groebner_basis()] == ["x"]

    def test_interreduction(self):
        R = ring_xy()
        gb = IdealHandle(R, ["x+y", "y"]).groebner_basis()
        assert [str(g) for g in gb] == ["x", "y"]

    def test_quadric_spair(self):
        R = ring_txy()
        gb = IdealHandle(R, ["x^2", "y^2", "x^2+t*x*y+y^2"]).groebner_basis()
        assert "t*x*y" in [str(g) for g in gb]

    def test_deterministic(self):
        R = ring_txy(P3)
        gens = ["x^2+t*x*y", "y^3+t^2*x*y^2", "x*y^2"]
        a = IdealHandle(R, gens).groebner_basis()
        b = IdealHandle(R, gens).groebner_basis()
        assert [str(g) for g in a] == [str(g) for g in b]

    @pytest.mark.parametrize("p", [P2, P3, P5])
    def test_agrees_with_sympy(self, p, rng):
        # the reduced basis is unique, so an independent Buchberger must
        # give it too, whatever order it takes the pairs in
        sympy = pytest.importorskip("sympy")
        for R in (ring_xy(p), ring_txy(p)):
            # sympy's generators in frobgrow's precedence: x, y, then t
            prec = R.default_order.precedence
            gens = sympy.symbols([R.names[i] for i in prec])

            def terms(f):
                return sorted((tuple(m[i] for i in prec), c) for m, c in f.term_dict().items())

            for _ in range(10):
                ideal = random_polys(rng, R, rng.randint(2, 3))
                ours = sorted(terms(g) for g in IdealHandle(R, ideal).groebner_basis())
                # the same basis when seeded with the first generator's
                seeded = IdealHandle(R, ideal[:1]).extended(ideal[1:]).groebner_basis()
                assert sorted(terms(g) for g in seeded) == ours
                exprs = [
                    sum(c * sympy.prod(v**e for v, e in zip(gens, m)) for m, c in terms(f))
                    for f in ideal
                ]
                gb = sympy.groebner(exprs, *gens, modulus=p.p, order="grevlex")
                # sympy gives symmetric residues, so compare them mod p
                theirs = sorted(
                    sorted((m, int(c) % p.p) for m, c in g.terms()) for g in gb.polys
                )
                assert ours == theirs

    def test_budget_exceeded_distinguishable(self):
        R = ring_txy(P3)
        tiny = Budgets().override(gb_pairs=1)
        with pytest.raises(BudgetExceeded):
            IdealHandle(R, ["x^2+t*x*y+y^2", "x^3+y^3", "t^2*x*y^2+x^2*y"]).groebner_basis(
                budgets=tiny
            )


class TestSeededBuchberger:
    @pytest.mark.parametrize("p", [P2, P3, P5])
    def test_seeded_run_gives_the_unseeded_basis(self, p, rng):
        # seeded with the reduced basis of the first generators, the run
        # on the rest gives the reduced basis of all of them, in the
        # default order and in elimination orders
        for R in (ring_xy(p), ring_txy(p)):
            for order in (R.default_order, orders.block(R.weights, (0,)),
                          orders.block(R.weights, (R.nvars - 1,))):
                for _ in range(8):
                    first = random_polys(rng, R, rng.randint(1, 3))
                    rest = random_polys(rng, R, rng.randint(0, 2))

                    def basis(gens, seed=()):
                        raws = [_to_raw(g, order) for g in gens]
                        return _buchberger(raws, order, p.p, DEFAULT_BUDGETS, seed)

                    seed = [g.terms for g in basis(first)]
                    plain = basis(first + rest)
                    assert [g.terms for g in basis(rest, seed)] == [g.terms for g in plain]

    def test_no_pair_inside_the_seed_is_reduced(self):
        # the seed is already a basis: with no other generator there is
        # nothing to reduce, whatever the pair budget
        R = ring_txy(P3)
        I = IdealHandle(R, ["x^2+t*x*y+y^2", "x^3+y^3", "t^2*x*y^2+x^2*y"])
        order, tiny = R.default_order, Budgets(gb_pairs=1)
        seed = [g.terms for g in _buchberger(
            [_to_raw(g, order) for g in I.generators], order, 3, DEFAULT_BUDGETS)]
        assert [g.terms for g in _buchberger([], order, 3, tiny, seed)] == seed
        gb = I.groebner_basis()
        assert I.extended([]).groebner_basis(tiny) == gb

    def test_extended_handle_with_relations(self, rng):
        # the base's basis already holds the ring's relations
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)), ("x*y*(x-y)*(x-t*y)",))
        for _ in range(6):
            first = random_polys(rng, R, rng.randint(1, 2), exp=3)
            rest = random_polys(rng, R, rng.randint(1, 2), exp=3)
            base = IdealHandle(R, first)
            J = base.extended(rest)
            fresh = IdealHandle(R, first + rest)
            assert J.generators == fresh.generators
            assert J.groebner_basis() == fresh.groebner_basis()
            assert base._basis is not None  # the seed came from the base


class TestNormalForm:
    def test_membership(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "y^2", "x^2+t*x*y+y^2"])
        assert normal_form(parse_poly("t*x*y", R), I).is_zero

    def test_non_member(self):
        R = ring_xy()
        I = IdealHandle(R, ["x^2"])
        assert str(normal_form(parse_poly("x", R), I)) == "x"

    def test_lemma_colon_instance(self):
        # x*y^2*P_2 in (x^3, y^3, x^2+t*x*y+y^2) at n = 3 with r = (1, t, 1)
        R = ring_txy(P3)
        s = SequenceSpec.parse(P3, "1", "t", "1")
        I = IdealHandle(R, ["x^3", "y^3", "x^2+t*x*y+y^2"])
        f = parse_poly("x*y^2", R) * MultiPoly.from_unipoly(R, p_seq(s, 2), "t")
        assert normal_form(f, I).is_zero


def reference_division(f, divisors, order, p):
    """Division of f by the monic `divisors`, all {exponent tuple:
    coefficient} dicts, from the definition: the largest term left is
    divided by the first divisor whose leading monomial divides it
    componentwise, else moved to the remainder.  Returns the remainder
    and the quotient of each divisor, as dicts of the same kind."""
    leads = [max(g, key=order.key) for g in divisors]
    rest, remainder = dict(f), {}
    quotients = [{} for _ in divisors]
    while rest:
        m = max(rest, key=order.key)
        c = rest.pop(m)
        i = next((i for i, l in enumerate(leads) if all(a <= b for a, b in zip(l, m))), None)
        if i is None:
            remainder[m] = c
            continue
        shift = tuple(b - a for a, b in zip(leads[i], m))
        quotients[i][shift] = (quotients[i].get(shift, 0) + c) % p
        for e, d in divisors[i].items():
            if e != leads[i]:
                prod = tuple(x + y for x, y in zip(e, shift))
                v = (rest.get(prod, 0) - c * d) % p
                if v:
                    rest[prod] = v
                else:
                    rest.pop(prod, None)
    return remainder, quotients


def random_terms(rng, n, p, count, offset):
    return {
        tuple(o + rng.randrange(4) for o in offset): rng.randrange(1, p)
        for _ in range(count)
    }


class TestNfRaw:
    @pytest.mark.parametrize("kind", ["grevlex", "block"])
    def test_matches_reference_division(self, rng, kind):
        for _ in range(80):
            n = rng.randint(2, 4)
            p = rng.choice((2, 3, 5, 7))
            order = MonomialOrder(
                tuple(rng.sample(range(n), n)), rng.randrange(1, n) if kind == "block" else 0
            )
            # a common offset puts the exponents near the top of their fields
            offset = [0] * n if rng.random() < 0.5 else [rng.randrange(2**22) for _ in range(n)]
            divisors = []
            for _ in range(rng.randint(1, 4)):
                g = random_terms(rng, n, p, rng.randint(1, 4), offset)
                g[max(g, key=order.key)] = 1
                divisors.append(g)
            f = random_terms(rng, n, p, rng.randint(1, 8), offset)

            def raw(terms):
                return sorted(((order.key(e), c) for e, c in terms.items()), reverse=True)

            basis = [_BasisElt(order, raw(g)) for g in divisors]
            quotients = {}
            remainder = _nf_raw(raw(f), basis, order, p, quotients)
            want_remainder, want_quotients = reference_division(f, divisors, order, p)
            assert remainder == raw(want_remainder)
            got_quotients = [
                {order.exps(k): c for k, c in quotients.get(g, {}).items()} for g in basis
            ]
            assert got_quotients == [{m: c for m, c in q.items() if c} for q in want_quotients]

    def test_exact_division_matches_reference(self, rng):
        R = RingSpec(P5, (("t", 0), ("x", 1), ("y", 1), ("z", 1)))
        order = R.default_order
        for _ in range(40):
            f = MultiPoly(R, random_terms(rng, 4, 5, rng.randint(1, 4), [0] * 4))
            h = MultiPoly(R, random_terms(rng, 4, 5, rng.randint(1, 4), [0] * 4))
            terms = f.term_dict()
            inv = pow(terms[max(terms, key=order.key)], 3, 5)
            monic = {m: c * inv % 5 for m, c in terms.items()}
            remainder, (quotient,) = reference_division((f * h).term_dict(), [monic], order, 5)
            assert remainder == {}
            assert _exact_div_multi(f * h, f) == MultiPoly(R, quotient) * inv


class TestIdealEqual:
    def test_generating_sets(self):
        R = ring_xy()
        assert ideal_equal(IdealHandle(R, ["x", "y"]), IdealHandle(R, ["x+y", "y"]))

    def test_strict_containment(self):
        R = ring_xy()
        assert not ideal_equal(IdealHandle(R, ["x"]), IdealHandle(R, ["x^2"]))

    def test_katzman_relation_absorbed(self):
        R = ring_txy()
        f = parse_poly("x*y*(x-y)*(x-t*y)", R)
        assert ideal_equal(
            IdealHandle(R, ["x^2", "y^2", f]), IdealHandle(R, ["x^2", "y^2"])
        )

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            ideal_equal(
                IdealHandle(ring_xy(), ["x"]), IdealHandle(ring_xy(P3), ["x"])
            )


class TestEliminate:
    def test_already_contracted(self):
        R = ring_txy()
        out = eliminate(IdealHandle(R, ["x", "t^2+1"]), ["x"])
        assert [str(g) for g in out.generators] == ["t^2 + 1"]

    def test_empty_contraction(self):
        R = ring_txy()
        out = eliminate(IdealHandle(R, ["x^2", "t*x"]), ["x"])
        assert out.generators == ()

    def test_output_is_syntactically_free_and_member(self):
        R = ring_txy(P3)
        I = IdealHandle(R, ["x^2+t*x*y", "y^2+t^3"])
        out = eliminate(I, ["x"])
        xi = R.index_of("x")
        for g in out.generators:
            assert not any(m[xi] for m in g.term_dict())
            assert normal_form(g, I).is_zero


class TestIntersect:
    def test_principal(self):
        R = ring_xy()
        out = intersect(IdealHandle(R, ["x"]), IdealHandle(R, ["y"]))
        assert ideal_equal(out, IdealHandle(R, ["x*y"]))

    def test_idempotent(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "t*y"])
        assert ideal_equal(intersect(I, I), I)

    def test_mixed(self):
        R = ring_xy()
        out = intersect(IdealHandle(R, ["x^2", "y"]), IdealHandle(R, ["x"]))
        assert ideal_equal(out, IdealHandle(R, ["x^2", "x*y"]))

    def test_containments_random(self, rng):
        R = ring_txy(P3)

        def rand_ideal():
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, 3)
                    for _ in range(rng.randint(1, 3))
                }
                gens.append(MultiPoly(R, terms))
            return IdealHandle(R, [g for g in gens if not g.is_zero] or ["x"])

        for _ in range(10):
            I, J = rand_ideal(), rand_ideal()
            K = intersect(I, J)
            for g in K.generators:
                assert normal_form(g, I).is_zero
                assert normal_form(g, J).is_zero
            for a in I.generators:
                for b in J.generators:
                    assert normal_form(a * b, K).is_zero


class TestColon:
    def test_principal(self):
        R = ring_xy()
        out = colon(IdealHandle(R, ["x*y"]), parse_poly("x", R))
        assert ideal_equal(out, IdealHandle(R, ["y"]))

    def test_by_unit(self):
        R = ring_xy()
        I = IdealHandle(R, ["x^2", "y"])
        assert ideal_equal(colon(I, MultiPoly.const(R, 1)), I)

    def test_sequence_contraction(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "y^2", "x^2+t*x*y+y^2"])
        J = colon(I, parse_poly("x*y", R))
        out = eliminate(J, ["x", "y"])
        assert [str(g) for g in out.generators] == ["t"]

    def test_zero_rejected(self):
        R = ring_xy()
        with pytest.raises(InputError):
            colon(IdealHandle(R, ["x"]), MultiPoly.const(R, 0))

    def test_colon_properties(self, rng):
        R = ring_txy(P3)
        I = IdealHandle(R, ["x^2", "x*y+t*y^2"])
        f = parse_poly("x+y", R)
        C = colon(I, f)
        for g in C.generators:
            assert normal_form(g * f, I).is_zero
        for g in I.generators:
            assert normal_form(g, C).is_zero

    @pytest.mark.parametrize("p", [P2, P3, P5])
    def test_attached_basis_is_the_reduced_basis(self, p, rng):
        # the basis a colon keeps equals a fresh Buchberger run on its
        # generators, for f in k[t], a monomial, and a general f; the
        # ring's relations stay out of the principal side
        for R in (ring_txy(p), RingSpec(p, ring_txy(p).variables, ("x^2*y+t*x*y^2",))):
            for _ in range(5):
                I = IdealHandle(R, random_polys(rng, R, rng.randint(1, 3), exp=3))
                t_poly = MultiPoly(R, {(e, 0, 0): rng.randrange(1, p.p) for e in (0, 1, 2)})
                monomial = MultiPoly(R, {(rng.randrange(2), 1, rng.randrange(2)): 1})
                general = random_polys(rng, R, 1, exp=3)[0] + parse_poly("x", R)
                for f in (t_poly, monomial, general):
                    C = colon(I, f)
                    fresh = IdealHandle(R, C.generators)
                    assert C.groebner_basis() == fresh.groebner_basis()
                    assert [g.terms for g in C._basis[1]] == [
                        g.terms for g in fresh._basis[1]
                    ]
                    for g in C.generators:
                        assert I.contains(g * f)

    def test_exact_division(self, rng):
        R = ring_txy(P5)

        def rand_poly(terms):
            return MultiPoly(R, {
                tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 5)
                for _ in range(terms)
            })

        for _ in range(30):
            f = rand_poly(rng.randint(1, 4)) + parse_poly("2*x", R) * rand_poly(1)
            if f.constant_value() is not None:
                continue
            h = rand_poly(rng.randint(0, 4))
            q = _exact_div_multi(f * h, f)
            assert q * f == f * h
            with pytest.raises(InputError, match="inexact multivariate division"):
                _exact_div_multi(f * h + MultiPoly.const(R, 1), f)


class TestSaturate:
    def test_examples(self):
        R = ring_xy()
        res = saturate(IdealHandle(R, ["x^2*y"]), parse_poly("y", R))
        assert res.stabilization_exponent == 1
        assert ideal_equal(res.ideal, IdealHandle(R, ["x^2"]))
        res = saturate(IdealHandle(R, ["x^2"]), parse_poly("y", R))
        assert res.stabilization_exponent == 0
        res = saturate(IdealHandle(R, ["x^2", "x*y"]), parse_poly("y", R))
        assert res.stabilization_exponent == 1
        assert ideal_equal(res.ideal, IdealHandle(R, ["x"]))

    def test_fixed_point(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2*y", "t*x^3"])
        f = parse_poly("y", R)
        res = saturate(I, f)
        assert ideal_equal(colon(res.ideal, f), res.ideal)


def saturation_cases():
    """(name, I, f): 40 seeded cases for each of F_2, F_3 and F_5, in
    F_p[t, x, y] without and with a relation; every 20th f is zero."""
    for p in (P2, P3, P5):
        for rels in ((), ("x*y^2+t*x^2*y",)):
            R = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)), rels)
            rng = random.Random(100 * p.p + len(rels))

            def poly(nterms, low=0):
                return MultiPoly(R, {
                    tuple(rng.randrange(4) for _ in range(3)): rng.randrange(low, p.p)
                    for _ in range(nterms)
                })

            for k in range(40):
                I = IdealHandle(R, [poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
                f = poly(rng.randint(1, 2), 1) if k % 20 else MultiPoly(R, {})
                yield f"p{p.p}_{len(rels)}_{k}", I, f


class TestSaturationExponent:
    def test_examples(self):
        R = ring_xy()
        y = parse_poly("y", R)
        assert saturation_exponent(IdealHandle(R, ["x^2*y"]), y) == 1
        assert saturation_exponent(IdealHandle(R, ["x^2"]), y) == 0
        assert saturation_exponent(IdealHandle(R, ["x^2", "x*y^3"]), y) == 3
        assert saturation_exponent(IdealHandle(R, ["x^2"]), parse_poly("1", R)) == 0
        with pytest.raises(InputError, match="saturation by zero"):
            saturation_exponent(IdealHandle(R, ["x"]), MultiPoly(R, {}))

    def test_agrees_with_the_colon_chain(self):
        # the chain is the reference: the same exponent or the same
        # error, the same saturated ideal, and the same verdict under a
        # saturation_steps of 1, 2 or 3, on either side of the exponent
        def outcome(fn, *args):
            try:
                return fn(*args)
            except (BudgetExceeded, InputError) as e:
                return type(e), str(e)

        def chain(*args):
            res = outcome(saturate, *args)
            return res if isinstance(res, tuple) else res.stabilization_exponent

        exponents = set()
        for k, (name, I, f) in enumerate(saturation_cases()):
            ref = outcome(saturate, I, f)
            if isinstance(ref, tuple):
                assert outcome(saturation_exponent, I, f) == ref, name
            else:
                exponents.add(ref.stabilization_exponent)
                assert saturation_exponent(I, f) == ref.stabilization_exponent, name
                J = IdealHandle(I.ring, _saturation_gens(I, f, DEFAULT_BUDGETS))
                assert ideal_equal(J, ref.ideal), name
            small = Budgets(saturation_steps=1 + k % 3)
            assert outcome(saturation_exponent, I, f, small) == chain(I, f, small), name
        assert exponents >= {0, 1, 2, 3, 4}


class TestPowerContainment:
    def test_examples(self):
        R = ring_xy()
        P = IdealHandle(R, ["x", "y"])
        assert power_containment(P, IdealHandle(R, ["x^2", "x*y", "y^2"])) == 2
        assert power_containment(P, IdealHandle(R, ["x^2", "y^2"])) == 3
        assert power_containment(P, IdealHandle(R, ["x", "y^3"])) == 3
        assert power_containment(IdealHandle(R, ["x", "x+y"]), IdealHandle(R, ["x^2", "y^2"])) == 3

    def test_unit_ideal_takes_one(self):
        R = ring_xy()
        assert power_containment(IdealHandle(R, ["x"]), IdealHandle(R, ["x", "x+1"])) == 1
        t = parse_poly("y", R)
        assert power_containment(IdealHandle(R, ["x"]), IdealHandle(R, ["1"]), tau=t) == 1

    @pytest.mark.parametrize("gens,expected", [
        (["x^2", "x*y", "y^2", "t^3"], 4),  # e_0 = 3, e_1 = 3, e_2 = 0
        (["x^2", "y^2", "t^2"], 4),  # e_0 = e_1 = e_2 = 2 (t*x*y is outside)
        (["x", "y^3", "t*y^2", "t^5"], 6),  # e_0 = e_1 = 5 (y*t^4 is outside), e_2 = 1
        (["x", "y", "t"], 1),
        (["x^2", "x*y", "y^2", "t*x", "t*y", "t^4"], 4),  # e_0 = 4, e_1 = 1
    ])
    def test_tau_split_meets_the_whole_search(self, gens, expected):
        # (x, y, t)^k in C iff t^(k-b) (x, y)^b in C for every b <= k
        R = ring_txy(P3)
        C = IdealHandle(R, gens)
        t = parse_poly("t", R)
        assert power_containment(IdealHandle(R, ["x", "y", "t"]), C) == expected
        assert power_containment(IdealHandle(R, ["x", "y"]), C, tau=t) == expected

    def test_products_count_against_the_budget(self):
        # t^k never lies in (x): one product per degree until the budget
        R = ring_txy()
        P, C = IdealHandle(R, ["t"]), IdealHandle(R, ["x"])
        with pytest.raises(BudgetExceeded) as exc:
            power_containment(P, C, Budgets(power_products=100))
        assert exc.value.budget_name == "power_products"
        # (x, y)^2 in (x^2, xy, y^2): x and y survive degree 1, and
        # their four products end the search, 6 products in all
        P, C = IdealHandle(R, ["x", "y"]), IdealHandle(R, ["x^2", "x*y", "y^2"])
        assert power_containment(P, C, Budgets(power_products=6)) == 2
        with pytest.raises(BudgetExceeded, match="power_products"):
            power_containment(P, C, Budgets(power_products=5))


class TestMemberBoundedOracle:
    def test_examples(self):
        R = ring_txy()
        I = IdealHandle(R, ["x^2", "y^2", "x^2+t*x*y+y^2"])
        assert member_bounded_oracle(parse_poly("t*x*y", R), I, 1, 2)
        assert not member_bounded_oracle(
            parse_poly("x", R), IdealHandle(R, ["x^2"]), 3, 3
        )

    def test_lemma_colon_instance(self):
        R = ring_txy(P3)
        s = SequenceSpec.parse(P3, "1", "t", "1")
        I = IdealHandle(R, ["x^3", "y^3", "x^2+t*x*y+y^2"])
        f = parse_poly("x*y^2", R) * MultiPoly.from_unipoly(R, p_seq(s, 2), "t")
        assert member_bounded_oracle(f, I, 3 * 1, 3)

    def test_agrees_with_normal_form(self, rng):
        R = ring_txy(P3)
        for _ in range(60):
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, 3)
                    for _ in range(rng.randint(1, 3))
                }
                gens.append(MultiPoly(R, terms))
            gens = [g for g in gens if not g.is_zero] or [parse_poly("x", R)]
            I = IdealHandle(R, gens)
            f = MultiPoly(
                R,
                {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, 3)
                    for _ in range(rng.randint(1, 3))
                },
            )
            truth = normal_form(f, I).is_zero
            if truth:
                assert member_bounded_oracle(f, I, 8, 8)
            else:
                assert not member_bounded_oracle(f, I, 8, 8)


class TestQuotientRingConvention:
    def test_relations_ride_along(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)), ("x^2+t*x*y+y^2",))
        I = IdealHandle(R, ["x^2", "y^2"])
        # t*x*y = relation - x^2 - y^2 lies in the ideal of the quotient
        assert normal_form(parse_poly("t*x*y", R), I).is_zero


# generator lists of intersect, colon, eliminate and saturate on fixed
# seeded inputs, in order, as format_multipoly text
PINNED = os.path.join(os.path.dirname(__file__), "golden", "ideal_ops.json")


def pinned_cases():
    """(name, I, J, f, front): three seeded cases for each of F_2, F_3
    and F_5, in F_p[t, x, y] and in F_p[t, _w, y] with a relation, whose
    variable _w carries the name that intersection's auxiliary variable
    once had; each case eliminates a different variable."""
    for p in (P2, P3, P5):
        for names, rels in ((("t", "x", "y"), ()), (("t", "_w", "y"), ("_w*y^2+t*_w^2*y",))):
            R = RingSpec(p, ((names[0], 0), (names[1], 1), (names[2], 1)), rels)
            rng = random.Random(1000 * p.p + len(rels))

            def poly(nterms):
                return MultiPoly(R, {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, p.p)
                    for _ in range(nterms)
                })

            for k in range(3):
                gens_i = [poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
                gens_j = [poly(rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
                f = poly(rng.randint(1, 2))
                if f.constant_value() is not None:
                    f = f + R.variable(1)
                yield (
                    f"p{p.p}_{names[1]}_{k}",
                    IdealHandle(R, [g for g in gens_i if not g.is_zero]),
                    IdealHandle(R, [g for g in gens_j if not g.is_zero]),
                    f,
                    ([names[1]], [names[2]], ["t"])[k],
                )


def pinned_outputs(I, J, f, front):
    def text(K):
        return [format_multipoly(g) for g in K.generators]

    sat = saturate(I, f)
    return {
        "intersect": text(intersect(I, J)),
        "colon": text(colon(I, f)),
        "eliminate": text(eliminate(I, front)),
        "saturate": text(sat.ideal),
        "saturate_exponent": sat.stabilization_exponent,
    }


class TestPinnedOperations:
    @pytest.mark.parametrize("case", list(pinned_cases()), ids=lambda c: c[0])
    def test_generator_lists_are_pinned(self, case):
        name, I, J, f, front = case
        with open(PINNED) as fh:
            assert pinned_outputs(I, J, f, front) == json.load(fh)[name]
