import dataclasses
import functools
import itertools
import operator
import random

import pytest
from click.testing import CliRunner

from frobgrow.budgets import Budgets
from frobgrow.cli import main
from frobgrow.decomposer import (
    FamilySpec,
    PrimaryComponent,
    SanityVerdict,
    _bezout_one_certificate,
    family,
    growth_exponent,
    lemma_membership_suite,
    primary_sanity,
    saturation_growth,
    ss_hq_closed_form,
    stable_decomposition,
    witness_colon,
)
from frobgrow.errors import BudgetExceeded, InputError, VerificationError
from frobgrow.fpoly import (
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
)
from frobgrow import decomposer, groebner, ktmodule
from frobgrow.groebner import IdealHandle, ideal_equal, intersect
from frobgrow.hq import h_q
from frobgrow.ktmodule import DegreeInvariants, SliceCache, slice_power_containment
from frobgrow.orders import monomials_of_degree
from frobgrow.sequences import SequenceSpec, big_L, p_seq

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def q_of(fam, e):
    return PrimePower(fam.ring.p, e)


def named_h(fam, q, h):
    """h given as "minors", "closed-form" or a polynomial in t."""
    if h == "minors":
        return h_q(fam.ring, q).h
    if h == "closed-form":
        return ss_hq_closed_form(fam.seq, q)
    return parse_unipoly(h, fam.ring.p)


def cone_family():
    """k[x,y,z]/(z^2 - xy) with the ruling ideal (x, z)."""
    R = RingSpec(P2, (("x", 1), ("y", 1), ("z", 1)))
    rel = parse_poly("z^2+x*y", R)
    R = RingSpec(P2, R.variables, (rel,))
    return FamilySpec("cone", R, IdealHandle(R, ["x", "z"]), None, ("x", "z"))


class TestFamily:
    def test_known_families_build(self):
        for name, p in (("katzman", 2), ("ss5", 3), ("ss7", 2), ("brenner_monsky", 2)):
            fam = family(name, p)
            assert fam.name == name and len(fam.ring.relations) == 1

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            family("nope", 2)

    def test_brenner_monsky_needs_p2(self):
        with pytest.raises(InputError):
            family("brenner_monsky", 3)

    def test_ss5_sequence_modulus_checked(self):
        with pytest.raises(InputError):
            family("ss5", 2, SequenceSpec.parse(P3, "1", "t", "1"))

    def test_minimal_prime_validated(self):
        R = RingSpec(P2, (("x", 1), ("y", 1)), ("x^2+y^2",))
        with pytest.raises(InputError):
            FamilySpec("bad", R, IdealHandle(R, ["x"]), None, ("x",))


class TestStableDecomposition:
    def test_trivial_h_gives_isolated_only(self):
        fam = family("katzman", 2)
        rep = stable_decomposition(fam, q_of(fam, 1), UniPoly.one(P2))
        assert rep.intersection_verified and not rep.embedded
        assert rep.method == "certified"
        assert ideal_equal(rep.isolated.ideal, frobenius_generators(fam.ideal, q_of(fam, 1)))

    def test_certified_agrees_with_groebner(self):
        # the certificate route and the colon/intersect route must
        # produce identical components; never collapse the two
        katzman2, katzman3, ss5 = family("katzman", 2), family("katzman", 3), family("ss5", 3)
        cert = h_q(katzman3.ring, q_of(katzman3, 2))
        cases = [
            (katzman2, q_of(katzman2, 2), parse_unipoly("t^4+t", P2), "explicit", None),
            (katzman3, q_of(katzman3, 2), cert.h, "minors", cert),
            (ss5, q_of(ss5, 1), ss_hq_closed_form(ss5.seq, q_of(ss5, 1)), "closed-form", None),
        ]
        for fam, q, h, source, cert in cases:
            a, b = (
                stable_decomposition(fam, q, h, source, cert, method=m)
                for m in ("certified", "groebner")
            )
            assert a.method == "certified" and b.method == "groebner"
            assert a.intersection_verified and b.intersection_verified
            assert a.h == b.h == h
            assert ideal_equal(a.isolated.ideal, b.isolated.ideal)
            assert len(a.embedded) == len(b.embedded)
            for ca, cb in zip(a.embedded, b.embedded):
                assert ca.tau == cb.tau
                assert ca.measured_exponent == cb.measured_exponent
                assert ideal_equal(ca.ideal, cb.ideal)

    @pytest.mark.parametrize("name,p", [("katzman", 3), ("ss5", 2)])
    def test_certified_route_builds_no_groebner_basis(self, name, p, monkeypatch):
        # the family's minimal-prime check runs Buchberger, so the family
        # is built first; the decomposition and its panels must not
        fam = family(name, p)
        q = q_of(fam, 1)
        h = ss_hq_closed_form(fam.seq, q) if name == "ss5" else h_q(fam.ring, q).h

        def refuse(*args, **kwargs):
            raise AssertionError("the certified route called Buchberger")

        monkeypatch.setattr(groebner, "_buchberger", refuse)
        rep = stable_decomposition(fam, q, h, method="certified")
        assert rep.intersection_verified and rep.growth_bound_checked
        for comp in [rep.isolated] + rep.embedded:
            assert primary_sanity(comp, 5).passed

    def test_ss5_closed_form(self):
        fam = family("ss5", 2)
        q = q_of(fam, 1)
        h = ss_hq_closed_form(fam.seq, q)
        assert format_unipoly(h) == "t"
        rep = stable_decomposition(fam, q, h, "closed-form")
        assert rep.intersection_verified and rep.growth_bound_checked
        assert [(format_unipoly(c.tau[0]), c.tau[1]) for c in rep.embedded] == [("t", 1)]
        # k_i <= n*q + s_i with n = 4 weighted variables
        assert rep.embedded[0].measured_exponent <= 4 * q.q + 1

    def test_zero_h_rejected(self):
        fam = family("katzman", 2)
        with pytest.raises(InputError):
            stable_decomposition(fam, q_of(fam, 1), UniPoly.zero(P2))

    def test_modulus_mismatch_rejected(self):
        fam = family("katzman", 2)
        with pytest.raises(InputError):
            stable_decomposition(fam, q_of(fam, 1), UniPoly.one(P3))

    def test_unknown_method_rejected(self):
        fam = family("katzman", 2)
        with pytest.raises(InputError):
            stable_decomposition(fam, q_of(fam, 1), UniPoly.one(P2), method="magic")

    def test_certified_needs_variable_ideal(self):
        # ideal not generated by single variables
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        fam = FamilySpec("custom", R, IdealHandle(R, ["x^2", "y"]))
        with pytest.raises(InputError):
            stable_decomposition(
                fam, q_of(fam, 1), UniPoly.one(P2), method="certified"
            )

    def test_auto_falls_back_to_groebner(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        fam = FamilySpec("custom", R, IdealHandle(R, ["x^2", "y"]))
        rep = stable_decomposition(fam, q_of(fam, 1), UniPoly.one(P2))
        assert rep.method == "groebner" and rep.intersection_verified

    def test_x_degree_zero_relation_takes_the_groebner_route(self):
        # t^2 - 1 makes t a unit, so I^[q] + (t) is the unit ideal; the
        # certified route cannot see that, so it refuses the ring
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        rels = tuple(parse_poly(r, R) for r in ("t^2-1", "x*y*(x-t*y)"))
        R = RingSpec(P3, R.variables, rels)
        fam = FamilySpec("custom", R, IdealHandle(R, ["x", "y"]))
        q, h = q_of(fam, 1), parse_unipoly("t*(t-1)", P3)
        with pytest.raises(InputError, match="relations of positive x-degree"):
            stable_decomposition(fam, q, h, method="certified")
        rep = stable_decomposition(fam, q, h)
        assert rep.method == "groebner"
        assert [format_unipoly(c.tau[0]) for c in rep.embedded] == ["t + 2"]
        assert rep.notes[0] == "dropped unit component for tau = t"

    @pytest.mark.parametrize("method", ["certified", "groebner"])
    def test_factorization_is_checked_on_both_routes(self, method, monkeypatch):
        fam = family("katzman", 2)
        real = decomposer.uni_factor
        monkeypatch.setattr(
            decomposer, "uni_factor", lambda a, seed: list(real(a, seed))[:-1]
        )
        with pytest.raises(VerificationError):
            stable_decomposition(
                fam, q_of(fam, 2), parse_unipoly("t^4+t", P2), method=method
            )

    def test_report_json_fields(self):
        fam = family("katzman", 2)
        d = stable_decomposition(fam, q_of(fam, 2), parse_unipoly("t^4+t", P2)).to_json_dict()
        assert d["q"] == 4 and d["h"] == "t^4 + t"
        assert d["intersection_verified"] and d["method"] == "certified"
        assert len(d["embedded"]) == 3


class TestBezoutCertificate:
    def test_comaximal_factors(self):
        t = parse_unipoly("t", P3)
        t1 = parse_unipoly("t+1", P3)
        h = (t**2 * t1).monic()
        coeffs = _bezout_one_certificate([(t, 2), (t1, 1)], h)
        total = coeffs[0] * t1 + coeffs[1] * t**2
        assert total == UniPoly.one(P3)

    def test_non_coprime_rejected(self):
        t = parse_unipoly("t", P3)
        with pytest.raises(VerificationError):
            _bezout_one_certificate([(t, 1), (t, 1)], t**2)


class TestGrowthExponent:
    def test_known_value(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(
            ideal=IdealHandle(R, ["x^2", "y^2"]),
            radical_generators=(parse_poly("x", R), parse_poly("y", R)),
        )
        assert growth_exponent(C) == 3

    def test_cap_degree_route_agrees(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        gens = ["x^2", "y^2", "t*x*y"]
        rad = (parse_poly("x", R), parse_poly("y", R))
        slow = PrimaryComponent(IdealHandle(R, gens), rad)
        fast = PrimaryComponent(IdealHandle(R, gens), rad, cap_degree=3)
        assert growth_exponent(slow) == growth_exponent(fast)

    def test_no_radical_rejected(self):
        R = RingSpec(P2, (("x", 1),))
        with pytest.raises(InputError):
            growth_exponent(PrimaryComponent(IdealHandle(R, ["x"]), ()))

    def test_searches_meet_the_definition(self, rng):
        # both least-power searches against the least k at which every
        # product in combinations_with_replacement(radical, k) lies in Q,
        # for Q = m^cap plus random x-homogeneous generators of lower
        # degree (and a power of t+1 for the radical that has it)
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        radicals = [("x+y", "x-y"), ("x+t*y", "y"), ("x", "y", "t+1")]
        for _ in range(12):
            for names in radicals:
                cap = rng.randint(2, 4)
                gens = [MultiPoly(R, {(0, i, cap - i): 1}) for i in range(cap + 1)]
                for _ in range(rng.randint(1, 3)):
                    d = rng.randint(1, cap - 1)
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        xe = rng.randrange(d + 1)
                        terms[(rng.randrange(3), xe, d - xe)] = rng.randrange(1, 3)
                    gens.append(MultiPoly(R, terms))
                if "t+1" in names:
                    gens.append(parse_poly("t+1", R) ** rng.randint(1, 3))
                Q = IdealHandle(R, gens)
                rad = [parse_poly(g, R) for g in names]
                k = 1
                while not all(
                    Q.contains(functools.reduce(operator.mul, c))
                    for c in itertools.combinations_with_replacement(rad, k)
                ):
                    k += 1
                assert groebner.power_containment(IdealHandle(R, rad), Q) == k
                assert slice_power_containment(rad, SliceCache(Q)) == k
                if "t+1" in names:  # the search split by x-degree
                    P = IdealHandle(R, rad[:-1])
                    assert groebner.power_containment(P, Q, tau=rad[-1]) == k

    @pytest.mark.parametrize("name,p,e,h", [
        ("katzman", 2, 2, "minors"), ("katzman", 2, 2, "t"), ("katzman", 3, 2, "minors"),
        ("katzman", 5, 1, "minors"), ("ss5", 2, 1, "closed-form"), ("ss5", 2, 2, "closed-form"),
        ("ss5", 2, 2, "t"), ("ss7", 2, 1, "minors"), ("brenner_monsky", 2, 3, "t^3+t"),
    ])
    def test_tau_split_meets_the_whole_search(self, name, p, e, h):
        # every embedded component of the golden Groebner-route runs:
        # growth_exponent's search split by x-degree against the search
        # over products of all radical generators, tau among them
        fam = family(name, p)
        q = q_of(fam, e)
        h = named_h(fam, q, h)
        rep = stable_decomposition(fam, q, h, measure=False, method="groebner")
        assert rep.embedded
        for comp in rep.embedded:
            whole = IdealHandle(fam.ring, list(comp.radical_generators))
            assert growth_exponent(comp) == groebner.power_containment(whole, comp.ideal)


def random_cap3_ideal(rng, R):
    """Random x-homogeneous generators of x-degree 1 or 2 plus m^3."""
    gens = [parse_poly(m, R) for m in ("x^3", "x^2*y", "x*y^2", "y^3")]
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            xe = rng.randrange(d + 1)
            terms[(rng.randrange(3), xe, d - xe)] = rng.randrange(1, R.p.p)
        gens.append(MultiPoly(R, terms))
    return [g for g in gens if not g.is_zero]


def searched_K(Iq, h):
    """K by the search that the slice invariants replace: the least K
    with h*m in I^[q], by slice membership, for every degree-K monomial m
    outside the plain-monomial generators of I^[q]; returns K and those
    monomials in descending lex order."""
    ring = Iq.ring
    w1 = ring.weight1_indices()
    covers = [next(iter(g.term_dict())) for g in Iq.generators if len(g.term_dict()) == 1]
    member = SliceCache(Iq).member
    h_multi = MultiPoly.from_unipoly(ring, h, "t")
    K = 0
    while True:
        uncovered = []
        for exps in monomials_of_degree(len(w1), K):
            full = [0] * ring.nvars
            for i, e in zip(w1, exps):
                full[i] = e
            if not any(all(a >= b for a, b in zip(full, c)) for c in covers):
                uncovered.append(MultiPoly.monomial(ring, tuple(full)))
        if all(member(h_multi * m) for m in uncovered):
            return K, uncovered
        K += 1


def random_certifiable_family(rng):
    """k[t, x_1..x_n]/(random x-homogeneous relations), I = (x_1..x_n)."""
    p = PrimeModulus(rng.choice((2, 3)))
    names = "xyz"[: rng.randint(2, 3)]
    R = RingSpec(p, (("t", 0),) + tuple((v, 1) for v in names))
    relations = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(2, 3)
        terms = {
            (rng.randrange(3),) + rng.choice(monomials_of_degree(len(names), d)):
            rng.randrange(1, p.p)
            for _ in range(rng.randint(1, 3))
        }
        relations.append(MultiPoly(R, terms))
    R = RingSpec(p, R.variables, tuple(relations))
    return FamilySpec("random", R, IdealHandle(R, list(names)))


class TestGrowthExponentsAcrossQ:
    """Regression goldens for the growth exponents the certified route
    reads off SliceCache.at, degrees past half of n(q-1) + deg f
    included: the isolated exponent and (tau, s, exponent) per embedded
    component, ss5 with the closed-form h and katzman with the minors h."""

    @pytest.mark.parametrize("name,p,e,isolated,embedded", [
        ("ss5", 2, 1, 4, [("t", 1, 5)]),
        ("ss5", 2, 2, 8, [("t", 3, 11), ("t + 1", 2, 10)]),
        ("ss5", 2, 3, 16, [("t", 7, 23), ("t + 1", 4, 20), ("t^2 + t + 1", 2, 18),
                           ("t^3 + t^2 + 1", 2, 18)]),
        ("ss5", 3, 1, 6, [("t", 1, 7), ("t + 1", 1, 7), ("t + 2", 1, 7)]),
        ("ss5", 3, 2, 18, [("t", 3, 21), ("t + 1", 4, 22), ("t + 2", 4, 22),
                           ("t^2 + 1", 1, 19), ("t^2 + t + 2", 1, 19),
                           ("t^2 + 2*t + 2", 1, 19), ("t^3 + 2*t^2 + t + 1", 1, 19),
                           ("t^3 + t^2 + t + 2", 1, 19), ("t^4 + 2*t^2 + 2", 1, 19)]),
        ("katzman", 2, 2, 5, [("t", 1, 5), ("t + 1", 1, 5), ("t^2 + t + 1", 1, 6)]),
        ("katzman", 2, 3, 9, [("t", 5, 13), ("t + 1", 4, 12), ("t^2 + t + 1", 2, 10),
                              ("t^3 + t^2 + 1", 1, 10), ("t^3 + t + 1", 1, 10),
                              ("t^4 + t^3 + t^2 + t + 1", 1, 9)]),
        ("katzman", 3, 2, 10, [("t", 6, 15), ("t + 1", 4, 13), ("t + 2", 4, 13),
                               ("t^2 + 1", 2, 11), ("t^2 + t + 2", 1, 11),
                               ("t^2 + 2*t + 2", 1, 11), ("t^4 + t^3 + t^2 + t + 1", 1, 10),
                               ("t^6 + t^5 + t^4 + t^3 + t^2 + t + 1", 1, 10)]),
    ])
    def test_exponents(self, name, p, e, isolated, embedded):
        fam = family(name, p)
        q = q_of(fam, e)
        h = named_h(fam, q, "closed-form" if name == "ss5" else "minors")
        rep = stable_decomposition(fam, q, h, method="certified")
        assert rep.isolated.measured_exponent == isolated
        assert [
            (format_unipoly(c.tau[0]), c.tau[1], c.measured_exponent) for c in rep.embedded
        ] == embedded


class TestRouteAgreement:
    """The slice-invariant formulas against the searches they replace."""

    def assert_K_agrees(self, fam, q, h):
        rep = stable_decomposition(fam, q, h, method="certified", measure=False)
        Iq = frobenius_generators(fam.ideal, q)
        K, uncovered = searched_K(Iq, h)
        assert rep.isolated.cap_degree == K
        assert rep.isolated.ideal.generators == tuple(Iq.generators) + tuple(uncovered)
        return rep

    @pytest.mark.parametrize(
        "name,p,e,h",
        [
            ("katzman", 2, 2, "minors"),
            ("katzman", 2, 2, "t^3+t"),
            ("katzman", 3, 2, "minors"),
            ("ss5", 2, 2, "closed-form"),
            ("ss5", 3, 1, "closed-form"),
            ("ss7", 2, 1, "minors"),
            ("brenner_monsky", 2, 2, "minors"),
        ],
    )
    def test_K_agrees_with_membership_search(self, name, p, e, h):
        fam = family(name, p)
        q = q_of(fam, e)
        h = named_h(fam, q, h)
        self.assert_K_agrees(fam, q, h)

    def test_K_agrees_with_membership_search_random(self, rng):
        for _ in range(20):
            fam = random_certifiable_family(rng)
            p = fam.ring.p
            q = PrimePower(p, rng.randint(1, 2) if p.p == 2 else 1)
            h = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 5))])
            if h.is_zero:
                h = UniPoly.t(p)
            self.assert_K_agrees(fam, q, h)

    def test_K_note_names_the_slice_invariants(self):
        fam = family("ss5", 2)
        q = q_of(fam, 2)
        rep = self.assert_K_agrees(fam, q, ss_hq_closed_form(fam.seq, q))
        assert rep.notes[0] == (
            "isolated component taken as I^[q] + (weighted vars)^8; certified "
            "h*m in I^[q] for every degree-8 monomial m (S_8 / I^[q]_8 has free "
            "rank 0 and largest invariant factor t^5 + t^3, which divides h), "
            "so it sits inside colon(I^[q], h)"
        )

    @pytest.mark.parametrize(
        "name,p,e,h",
        [
            ("katzman", 2, 2, "minors"),
            ("katzman", 2, 2, "t^3+t"),
            ("katzman", 3, 1, "minors"),
            ("ss5", 2, 1, "closed-form"),
            ("ss7", 2, 1, "minors"),
        ],
    )
    def test_components_agree_with_groebner_route(self, name, p, e, h):
        fam = family(name, p)
        q = q_of(fam, e)
        h = named_h(fam, q, h)
        rep = stable_decomposition(fam, q, h, measure=False)
        for comp in [rep.isolated] + rep.embedded:
            assert comp.slices is rep.isolated.slices is not None
            slow = dataclasses.replace(comp, cap_degree=None)
            assert growth_exponent(comp) == growth_exponent(slow)
            for seed in (0, 1, 2):
                assert primary_sanity(comp, 5, seed) == primary_sanity(slow, 5, seed)

    @pytest.mark.parametrize(
        "name,p,e,h",
        [
            ("katzman", 2, 2, "minors"),
            ("katzman", 2, 2, "t^3+t"),
            ("katzman", 3, 1, "minors"),
            ("katzman", 3, 2, "minors"),
            ("ss5", 2, 1, "closed-form"),
            ("ss5", 2, 2, "closed-form"),
            ("ss5", 3, 1, "closed-form"),
            ("ss7", 2, 1, "minors"),
            ("brenner_monsky", 2, 2, "minors"),
        ],
    )
    def test_routes_list_the_same_embedded_components(self, name, p, e, h):
        # the cases of the two tests above; the Groebner route drops unit
        # components, which the certified route never builds
        fam = family(name, p)
        q = q_of(fam, e)
        h = named_h(fam, q, h)
        cert, gb = (
            stable_decomposition(fam, q, h, measure=False, method=m)
            for m in ("certified", "groebner")
        )
        assert [c.tau for c in cert.embedded] == [c.tau for c in gb.embedded]

    def test_hand_built_components_random(self, rng):
        # isolated B and embedded B + (tau^s), measured over their own
        # ideal and over B's shared invariants, against the search of
        # slice_power_containment and the Groebner route
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        taus = [parse_unipoly(f, P3) for f in ("t", "t+1", "t^2+1")]
        for _ in range(10):
            B = IdealHandle(R, random_cap3_ideal(rng, R))
            iso = PrimaryComponent(B, rad, cap_degree=3)
            k = slice_power_containment(iso.radical_generators, SliceCache(B))
            assert growth_exponent(iso) == k
            tau, s = rng.choice(taus), rng.randint(1, 3)
            tau_multi = MultiPoly.from_unipoly(R, tau, "t")
            ideal = IdealHandle(R, list(B.generators) + [tau_multi**s])
            own = PrimaryComponent(ideal, rad + (tau_multi,), (tau, s), cap_degree=3)
            shared = dataclasses.replace(own, slices=SliceCache(B))
            slow = dataclasses.replace(own, cap_degree=None)
            k = slice_power_containment(own.radical_generators, SliceCache(own.ideal))
            assert growth_exponent(own) == growth_exponent(shared) == k
            assert growth_exponent(slow) == k
            for seed in (0, 1):
                verdicts = {
                    primary_sanity(C, 4, seed) for C in (own, shared, slow)
                }
                assert len(verdicts) == 1
            for seed in (0, 1):
                assert primary_sanity(iso, 4, seed) == primary_sanity(
                    dataclasses.replace(iso, cap_degree=None), 4, seed
                )

    def test_torsion_coprime_to_tau_ends_the_search(self):
        # S_1 / B_1 = (k[t]/(t+1))^2 is not full, but t+1 is a unit
        # modulo t, so (x, y, t) already lies in B + (t): degrees after
        # the first e_b = 0 add nothing even when their slices are not full
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        B = IdealHandle(R, ["t*x+x", "t*y+y", "x^3", "x^2*y", "x*y^2", "y^3"])
        t = parse_unipoly("t", P3)
        C = PrimaryComponent(
            IdealHandle(R, list(B.generators) + [parse_poly("t", R)]),
            (parse_poly("x", R), parse_poly("y", R), parse_poly("t", R)),
            (t, 1),
            cap_degree=3,
            slices=SliceCache(B),
        )
        assert not C.slices.at(2).full
        k = slice_power_containment(C.radical_generators, SliceCache(C.ideal))
        assert growth_exponent(C) == k == 1

    def test_cap_degree_needs_slice_radical(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(
            IdealHandle(R, ["x^2", "y^2", "x*y"]), (parse_poly("x", R),), cap_degree=2
        )
        with pytest.raises(InputError):
            growth_exponent(C)


def chain_verdict(rep, Iq):
    """The equality by the chain the splitting lemma replaces: Q meet
    every embedded component, compared with I^[q]."""
    inter = rep.isolated.ideal
    for comp in rep.embedded:
        inter = intersect(inter, comp.ideal)
    return ideal_equal(inter, Iq)


class TestSplittingLemma:
    """The Groebner route's Q : h = Q against the chain of intersections."""

    def assert_agrees_with_chain(self, fam, q, h):
        rep = stable_decomposition(fam, q, h, method="groebner", measure=False)
        Iq = frobenius_generators(fam.ideal, q)
        assert rep.intersection_verified == chain_verdict(rep, Iq)
        if rep.intersection_verified:
            assert rep.witness is None
        else:  # h*g with g in Q : h outside Q: in the meet, not in I^[q]
            w = parse_poly(rep.witness, fam.ring)
            assert rep.isolated.ideal.contains(w)
            assert all(c.ideal.contains(w) for c in rep.embedded)
            assert not Iq.contains(w)
        return rep

    def test_random_rings_agree_with_the_chain(self, rng):
        verdicts = []
        for _ in range(20):
            fam = random_certifiable_family(rng)
            p = fam.ring.p
            for e in (1, 2):
                coeffs = [rng.randrange(p.p) for _ in range(rng.randint(1, 3))]
                h = UniPoly(p, coeffs + [rng.randrange(1, p.p)])
                rep = self.assert_agrees_with_chain(fam, PrimePower(p, e), h)
                verdicts.append(rep.intersection_verified)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("h,witness", [
        ("t", "t*u^2*v^2*x^2*y^2"),
        ("t^2+t", "t^2*u^3*v^2*x^2*y + t*u^3*v^2*x^2*y"),
    ])
    def test_ss5_h_that_does_not_separate(self, h, witness):
        fam = family("ss5", 2)
        rep = self.assert_agrees_with_chain(fam, q_of(fam, 2), parse_unipoly(h, P2))
        assert not rep.intersection_verified and rep.witness == witness

    @pytest.mark.parametrize("name,p,e,h", [
        ("katzman", 2, 2, "t^4+t"),
        ("ss5", 2, 2, "t"),
    ])
    def test_no_intersection_and_no_ideal_comparison(self, name, p, e, h, monkeypatch):
        fam = family(name, p)

        def refuse(*args, **kwargs):
            raise AssertionError("the Groebner route compared ideals")

        monkeypatch.setattr(groebner, "intersect", refuse)
        monkeypatch.setattr(groebner, "ideal_equal", refuse)
        assert not hasattr(decomposer, "intersect")
        assert not hasattr(decomposer, "ideal_equal")
        stable_decomposition(fam, q_of(fam, e), parse_unipoly(h, fam.ring.p), method="groebner")

    @pytest.mark.parametrize("method", ["certified", "groebner"])
    def test_both_routes_take_the_bezout_certificate(self, method, monkeypatch):
        calls = []
        real = decomposer._bezout_one_certificate
        monkeypatch.setattr(
            decomposer, "_bezout_one_certificate",
            lambda factors, h: calls.append(len(factors)) or real(factors, h),
        )
        fam = family("katzman", 2)
        stable_decomposition(fam, q_of(fam, 2), parse_unipoly("t^4+t", P2), method=method)
        assert calls == [3]


def sanity_panel(p, tau, size, seed):
    """Random non-constant g(t) of degree at most 3, prime to tau: the
    panel primary_sanity draws on a component without a tau, and the
    Monte Carlo cross-check of its tau-power argument on one with a tau."""
    rng = random.Random(seed)
    panel = []
    while len(panel) < size:
        g = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 4))])
        if g.is_zero or g.degree == 0:
            continue
        if tau is not None and uni_gcd(g, tau[0]).degree > 0:
            continue
        panel.append(g)
    return panel


def per_g_sanity(C, panel_size, seed):
    """primary_sanity's colon panel on a component without cap_degree as
    one Groebner colon and one basis comparison per panel polynomial,
    stopping at the first that changes the ideal.  The unit and radical
    power checks are left out: the components tested here pass them."""
    ring = C.ideal.ring
    for g in sanity_panel(ring.p, C.tau, panel_size, seed):
        J = groebner.colon(C.ideal, MultiPoly.from_unipoly(ring, g, "t"))
        if not ideal_equal(J, C.ideal):
            return SanityVerdict(False, f"colon by {format_unipoly(g)} changed the ideal")
    return SanityVerdict(True)


class TestPrimarySanity:
    @pytest.mark.parametrize("p", [P2, P3, P5], ids=["p2", "p3", "p5"])
    def test_product_colon_agrees_with_per_g_colons(self, rng, p):
        # random B + m^3 in (x, y) with a generator (t + a)*m, m a monomial
        # of degree 1 or 2, so that most are not primary; some get a tau^s
        # added.  The verdict and witness must be the per-g loop's
        R = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        outcomes = set()
        for _ in range(6):
            gens = random_cap3_ideal(rng, R)
            m = rng.choice(["x", "y", "x^2", "x*y", "y^2"])
            gens.append(parse_poly(f"(t+{rng.randrange(p.p)})*{m}", R))
            C = PrimaryComponent(IdealHandle(R, gens), rad)
            if rng.random() < 0.4:
                tau = parse_unipoly(rng.choice(["t", "t+1"]), p)
                tau_multi = MultiPoly.from_unipoly(R, tau, "t")
                ideal = IdealHandle(R, gens + [tau_multi ** rng.randint(1, 2)])
                C = PrimaryComponent(ideal, rad + (tau_multi,), (tau, 1))
            for size in range(1, 7):
                for seed in (0, 1, 2):
                    v = primary_sanity(C, size, seed)
                    assert v == per_g_sanity(C, size, seed)
                    outcomes.add(v.passed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", [P2, P3, P5], ids=["p2", "p3", "p5"])
    def test_squarefree_colon_agrees_with_the_product_colon(self, rng, p, monkeypatch):
        # the one colon is by the product of the distinct squarefree
        # factors of the panel's product; with the product itself (the
        # squarefree decomposition patched to return it) verdict and
        # witness are the same, on random components and on the isolated
        # component of the exit-1 run katzman p=2 q=4 --h t
        R = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        components = []
        for _ in range(5):
            gens = random_cap3_ideal(rng, R)
            m = rng.choice(["x", "y", "x^2", "x*y", "y^2"])
            gens.append(parse_poly(f"({rng.choice(['t', 't+1', 't^2'])})*{m}", R))
            components.append(PrimaryComponent(IdealHandle(R, gens), rad))
        if p == P2:
            fam = family("katzman", 2)
            components.append(stable_decomposition(
                fam, q_of(fam, 2), parse_unipoly("t", P2), measure=False, method="groebner"
            ).isolated)
        taken = []
        real_colon = decomposer.colon
        monkeypatch.setattr(
            decomposer, "colon", lambda C, f, b: taken.append(f) or real_colon(C, f, b)
        )
        outcomes = []
        for C in components:
            for size, seed in ((10, 0), (10, 1), (4, 2), (1, 3)):
                taken.clear()
                v = primary_sanity(C, size, seed)
                panel = sanity_panel(C.ideal.ring.p, None, size, seed)
                product = functools.reduce(operator.mul, panel)
                first = taken[0].to_unipoly(C.ideal.ring.index_of("t"))
                assert first.monic() == functools.reduce(
                    operator.mul, (g for g, _ in uni_factor(product, 0)), UniPoly.one(first.p)
                )
                with monkeypatch.context() as m:
                    m.setattr(decomposer, "_squarefree_decomposition", lambda f: [(f, 1)])
                    assert primary_sanity(C, size, seed) == v
                outcomes.append(v.passed)
        assert set(outcomes) == {True, False}
        if p == P2:  # the CLI's panel, 10 draws at seed 0, finds the torsion t
            assert outcomes[-4] is False

    @pytest.mark.parametrize(
        "u,size,witness",
        [
            ("t+1", 6, "4*t^2 + 1"),  # only the fourth g is a zero divisor
            ("t+1", 4, "4*t^2 + 1"),  # ... and it is the last one drawn
            ("t+1", 3, None),
            ("t", 6, "2*t^2"),
            ("t+4", 6, "2*t^3 + 3*t^2 + 2*t + 3"),  # the second and later fail
            ("4*t^3+2*t^2+3", 1, "4*t^3 + 2*t^2 + 3"),
            ("t", 1, None),
        ],
    )
    def test_witness_is_the_first_zero_divisor(self, u, size, witness):
        # S/C has torsion k[t]/(u) at x*y, so g is a zero divisor iff
        # gcd(g, u) != 1; the panel is the one drawn at p = 5, seed 0
        R = RingSpec(P5, (("t", 0), ("x", 1), ("y", 1)))
        assert [format_unipoly(g) for g in sanity_panel(P5, None, 6, 0)] == [
            "4*t^3 + 2*t^2 + 3", "2*t^3 + 3*t^2 + 2*t + 3", "t + 4",
            "4*t^2 + 1", "t^2 + 4*t + 4", "2*t^2",
        ]
        C = PrimaryComponent(
            IdealHandle(R, ["x^2", "y^2", f"({u})*x*y"]),
            (parse_poly("x", R), parse_poly("y", R)),
        )
        v = primary_sanity(C, size, 0)
        expected = None if witness is None else f"colon by {witness} changed the ideal"
        assert v == SanityVerdict(witness is None, expected)

    def test_passes_on_decomposition_components(self):
        fam = family("katzman", 2)
        rep = stable_decomposition(fam, q_of(fam, 2), parse_unipoly("t^4+t", P2))
        assert primary_sanity(rep.isolated, 5).passed
        for comp in rep.embedded:
            assert primary_sanity(comp, 5).passed

    def test_tau_component_takes_no_colon(self, monkeypatch):
        # the power of tau found by the radical check settles the panel
        def refuse(*args, **kwargs):
            raise AssertionError("primary_sanity took a Groebner colon")

        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        tau = parse_unipoly("t+1", P3)
        tau_multi = MultiPoly.from_unipoly(R, tau, "t")
        C = PrimaryComponent(
            IdealHandle(R, ["x^2", "y^2", tau_multi**2]),
            (parse_poly("x", R), parse_poly("y", R), tau_multi),
            (tau, 2),
        )
        monkeypatch.setattr(decomposer, "colon", refuse)
        for seed in (0, 1, 2):
            assert primary_sanity(C, 10, seed) == SanityVerdict(True)

    @pytest.mark.parametrize(
        "name,p,e,closed_form",
        [("katzman", 2, 2, False), ("katzman", 5, 1, False), ("ss5", 2, 2, True)],
        ids=["katzman_p2_q4", "katzman_p5_q5", "ss5_p2_q4_closed_form"],
    )
    def test_embedded_components_pass_the_per_g_colons(self, name, p, e, closed_form):
        # the Monte Carlo cross-check of the tau-power argument: colon by
        # every panel g prime to tau leaves each embedded component of the
        # Groebner decomposition unchanged
        fam = family(name, p)
        q = q_of(fam, e)
        h = ss_hq_closed_form(fam.seq, q) if closed_form else h_q(fam.ring, q).h
        rep = stable_decomposition(fam, q, h, measure=False, method="groebner")
        assert rep.embedded
        for comp in rep.embedded:
            assert primary_sanity(comp, 10) == SanityVerdict(True)
            for seed in (0, 1, 2):
                assert per_g_sanity(comp, 10, seed) == SanityVerdict(True)

    @pytest.mark.parametrize(
        "name,p,e,h",
        [("katzman", 3, 2, "minors"), ("ss5", 2, 2, "closed-form"), ("ss7", 2, 1, "minors")],
        ids=["katzman_p3_q9", "ss5_p2_q4_closed_form", "ss7_p2_q2"],
    )
    def test_certified_components_build_no_slice_store(self, name, p, e, h, monkeypatch):
        # the unit and tau-power questions are of x-degree 0, answered by
        # the gcd of the degree-0 generators; the panel reads the shared
        # store of I^[q].  A copy without that store builds its own for
        # the panel and must reach the same verdict and witness
        fam = family(name, p)
        q = q_of(fam, e)
        rep = stable_decomposition(fam, q, named_h(fam, q, h), method="certified")
        built = []
        for cls in (SliceCache, ktmodule.DegreeSlice):
            init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *a, init=init, **k: built.append(type(self)) or init(self, *a, **k),
            )
        verdicts = []
        for comp in [rep.isolated] + rep.embedded:
            for seed in (0, 1, 2):
                built.clear()
                v = primary_sanity(comp, 10, seed)
                assert built == []
                own = dataclasses.replace(comp, slices=None)
                assert primary_sanity(own, 10, seed) == v
                verdicts.append(v.passed)
            unit = MultiPoly.const(fam.ring, 1)
            assert not SliceCache(comp.ideal).member(unit)
            assert decomposer._radical_escape(comp, SliceCache(comp.ideal).member) is None
        assert all(verdicts) == (name != "ss7")

    @pytest.mark.parametrize("tau", [None, "t"])
    def test_inhomogeneous_cap_component_raises_the_slice_store_error(self, tau):
        # the error SliceCache(C.ideal) raises, with no slice store built
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        gens = ["x^2", "y^2", "x+t*y^2"]
        if tau is not None:
            gens.append(tau)
            rad += (parse_poly(tau, R),)
        C = PrimaryComponent(
            IdealHandle(R, gens), rad, tau and (parse_unipoly(tau, P3), 1), cap_degree=2
        )
        with pytest.raises(InputError) as by_store:
            SliceCache(C.ideal)
        with pytest.raises(InputError) as by_sanity:
            primary_sanity(C, 5)
        assert str(by_sanity.value) == str(by_store.value)

    def test_tau_component_without_a_tau_power_fails(self):
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        t = parse_poly("t", R)
        for cap in (None, 2):
            C = PrimaryComponent(
                IdealHandle(R, ["x^2", "x*y", "y^2"]),
                (parse_poly("x", R), parse_poly("y", R), t),
                (parse_unipoly("t", P3), 1),
                cap_degree=cap,
            )
            assert primary_sanity(C, 5) == SanityVerdict(
                False, "no power of t found in the ideal"
            )

    def test_tau_must_be_a_radical_generator(self):
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        for cap in (None, 2):
            C = PrimaryComponent(
                IdealHandle(R, ["x^2", "x*y", "y^2", "t"]),
                (parse_poly("x", R), parse_poly("y", R)),
                (parse_unipoly("t", P3), 1),
                cap_degree=cap,
            )
            with pytest.raises(InputError):
                primary_sanity(C, 5)

    def test_radical_check_reaches_the_4096th_power(self):
        # the first power of x in (x^q, y^q) is x^q: found up to q = 4096
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        C = PrimaryComponent(IdealHandle(R, ["x^4096", "y^4096"]), rad)
        assert primary_sanity(C, 3) == SanityVerdict(True)
        C = PrimaryComponent(IdealHandle(R, ["x^8192", "y^8192"]), rad)
        assert primary_sanity(C, 3) == SanityVerdict(False, "no power of x found in the ideal")

    def test_unit_ideal_fails(self):
        R = RingSpec(P2, (("t", 0), ("x", 1)))
        C = PrimaryComponent(
            IdealHandle(R, ["x+1", "x"]), (parse_poly("x", R),)
        )
        v = primary_sanity(C, 3)
        assert not v.passed and "unit" in v.witness

    def test_non_primary_fails(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(
            IdealHandle(R, ["x*y"]),
            (parse_poly("x", R), parse_poly("y", R)),
        )
        v = primary_sanity(C, 3)
        assert not v.passed and "no power" in v.witness


def searched_radical_escape(C, member):
    """The first radical generator g of C with none of g, g^2, ..., g^4096
    in C by `member`, or None: the ascending search alone, the reference
    for decomposer._radical_escape, which settles a single-variable g
    from a pure-power generator of C."""
    for g in C.radical_generators:
        powers = itertools.accumulate(range(12), lambda f, _: f * f, initial=g)
        if not any(member(f) for f in powers):
            return g
    return None


class TestRadicalEscape:
    """_radical_escape against the search it shortcuts, on both
    membership routes, and primary_sanity's verdict with each."""

    def assert_agrees(self, C, monkeypatch):
        escapes = set()
        for member in (C.ideal.contains, SliceCache(C.ideal).member):
            got = decomposer._radical_escape(C, member)
            assert got == searched_radical_escape(C, member)
            escapes.add(got)
        assert len(escapes) == 1
        verdict = primary_sanity(C, 3)
        with monkeypatch.context() as m:
            m.setattr(decomposer, "_radical_escape", searched_radical_escape)
            assert primary_sanity(C, 3) == verdict
        return escapes.pop()

    @pytest.mark.parametrize("method", ["certified", "groebner"])
    def test_random_decomposition_components(self, rng, method, monkeypatch):
        for _ in range(8):
            fam = random_certifiable_family(rng)
            p = fam.ring.p
            h = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 3))] + [1])
            rep = stable_decomposition(
                fam, PrimePower(p, rng.randint(1, 2)), h, method=method, measure=False
            )
            for comp in [rep.isolated] + rep.embedded:
                assert self.assert_agrees(comp, monkeypatch) is None
                slow = dataclasses.replace(comp, cap_degree=None, slices=None)
                assert self.assert_agrees(slow, monkeypatch) is None

    def test_random_cap3_components(self, rng, monkeypatch):
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        for _ in range(10):
            gens = random_cap3_ideal(rng, R)
            assert self.assert_agrees(PrimaryComponent(IdealHandle(R, gens), rad), monkeypatch) is None

    @pytest.mark.parametrize(
        "gens,escape",
        [
            (["x^2+y^2", "x*y"], None),  # x^4 and y^4 lie in C
            (["x^2+t*y^2", "x*y"], "y"),  # x^4 does; only t*y^3 does
            (["x^5000", "y^2"], "x"),  # x^4096 is the last power tried
            (["x^4096", "y^4097"], "y"),
            (["x*y^3", "y^5"], "x"),  # a mixed generator settles no x-power
            (["x^3*t", "y^2"], "x"),  # neither does a t-multiple of one
            (["x^3+t*x^2*y", "y^2"], None),
        ],
    )
    def test_hand_built_components(self, gens, escape, monkeypatch):
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(IdealHandle(R, gens), (parse_poly("x", R), parse_poly("y", R)))
        got = self.assert_agrees(C, monkeypatch)
        assert got == (None if escape is None else parse_poly(escape, R))

    def test_tau_power_settles_a_tau_that_is_t(self, monkeypatch):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        t = parse_poly("t", R)
        for gens, escape in ((["x^2", "y^2", "t^3"], None), (["x^2", "y^2", "t^3*x"], t)):
            C = PrimaryComponent(
                IdealHandle(R, gens), (parse_poly("x", R), parse_poly("y", R), t),
                (parse_unipoly("t", P2), 3),
            )
            assert self.assert_agrees(C, monkeypatch) == escape

    def test_pure_power_generator_builds_no_slice(self, monkeypatch):
        # x^9 settles x and y^9 settles y: no membership query at all
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(
            IdealHandle(R, ["x^9", "y^9", "t*x*y"]), (parse_poly("x", R), parse_poly("y", R))
        )

        def refuse(f):
            raise AssertionError("the radical check ran the search")

        assert decomposer._radical_escape(C, refuse) is None

class TestSaturationGrowth:
    def test_cone_fixture(self):
        # N_q stays within q on the quadric cone: criterion-11 shape
        fam = cone_family()
        rows, ratio = saturation_growth(fam, parse_poly("y", fam.ring), [2, 4, 8])
        assert [(q.q, n) for q, n in rows] == [(2, 1), (4, 2), (8, 4)]
        assert ratio == 0.5

    def test_saturation_steps_bound_the_exponent(self):
        # N_8 = 4: raised exactly when N >= saturation_steps, as the chain does
        fam = cone_family()
        y = parse_poly("y", fam.ring)
        with pytest.raises(BudgetExceeded) as exc:
            saturation_growth(fam, y, [8], Budgets(saturation_steps=4))
        assert exc.value.budget_name == "saturation_steps"
        rows, _ = saturation_growth(fam, y, [8], Budgets(saturation_steps=5))
        assert [(q.q, n) for q, n in rows] == [(8, 4)]


class TestSsHqClosedForm:
    def test_default_sequence(self):
        fam = family("ss5", 2)
        assert format_unipoly(ss_hq_closed_form(fam.seq, q_of(fam, 1))) == "t"
        # r0 = r2 = 1, so h_q = L_q = lcm(P_1..P_{q-1}) monic
        from frobgrow.sequences import big_L

        q = q_of(fam, 2)
        assert ss_hq_closed_form(fam.seq, q) == big_L(fam.seq, q.q)

    def test_degree_condition_required(self):
        s = SequenceSpec.parse(P2, "t^2", "t", "1")
        with pytest.raises(InputError):
            ss_hq_closed_form(s, PrimePower(P2, 1))

    def test_zero_r0_rejected(self):
        s = SequenceSpec(UniPoly.zero(P2), UniPoly.t(P2), UniPoly.one(P2))
        with pytest.raises(InputError):
            ss_hq_closed_form(s, PrimePower(P2, 1))


class TestWitnessColon:
    def test_matches_p_sequence(self):
        for name, p, e in (("ss5", 2, 1), ("ss5", 3, 1), ("ss7", 2, 1)):
            fam = family(name, p)
            q = q_of(fam, e)
            expected = p_seq(fam.seq, q.q - 2).monic()
            assert witness_colon(fam, q) == expected

    def test_module_agrees_with_groebner(self):
        # two independent contraction routes, kept separate on purpose
        fam = family("ss5", 3)
        q = q_of(fam, 1)
        assert witness_colon(fam, q, method="module") == witness_colon(
            fam, q, method="groebner"
        )

    def test_rejects_other_families(self):
        with pytest.raises(InputError):
            witness_colon(family("katzman", 2), PrimePower(P2, 1))

    def test_rejects_small_q(self):
        fam = family("ss5", 2)
        with pytest.raises(InputError):
            witness_colon(fam, PrimePower(P2, 0))

    def test_unknown_method_rejected(self):
        fam = family("ss5", 2)
        with pytest.raises(InputError):
            witness_colon(fam, q_of(fam, 1), method="magic")


class TestLemmaMembershipSuite:
    def test_small_instance_passes(self):
        spec = SequenceSpec.parse(P3, "1", "t", "1")
        report = lemma_membership_suite(spec, 2, 0, 3)
        assert report.all_pass
        assert {i.name for i in report.items} == {
            "inclusion_b",
            "inclusion_c",
            "colon_stability",
            "three_variable_colon",
        }

    @pytest.mark.parametrize("r0,r1,r2", [("t", "t^2", "1"), ("1", "t", "1")])
    def test_builds_no_groebner_basis(self, r0, r1, r2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lemma suite called Buchberger")

        monkeypatch.setattr(groebner, "_buchberger", refuse)
        spec = SequenceSpec.parse(P3, r0, r1, r2)
        assert lemma_membership_suite(spec, 3).all_pass

    def test_json_shape(self):
        spec = SequenceSpec.parse(P2, "1", "t", "1")
        d = lemma_membership_suite(spec, 2, 0, 2).to_json_dict()
        assert d["all_pass"] and d["n"] == 2
        assert all(item["passed"] for item in d["items"])


def product_lemma_elements(spec, n, L=None):
    """Items (i) and (ii) of the lemma suite by MultiPoly products, the
    reference for the suite's term-by-term construction:
    [((a,b,c,d), element)] and [(monomial, element)] in check order.
    `L` stands in for L_n when given."""
    S = RingSpec(spec.p, (("t", 0), ("u", 1), ("v", 1), ("x", 1), ("y", 1)))
    u, v, x, y = (S.variable(nm) for nm in "uvxy")
    r0, r2 = (MultiPoly.from_unipoly(S, r, "t") for r in (spec.r0, spec.r2))
    Ln = MultiPoly.from_unipoly(S, big_L(spec, n) if L is None else L, "t")
    r0r2 = MultiPoly.from_unipoly(S, spec.r0 * spec.r2, "t")
    items_i = []
    for a in range(n + 1):
        for b in range(n - a + 1):
            rest = 2 * n - 2 * a - 2 * b
            for c in range(rest + 1):
                d = rest - c
                elt = r0r2 ** (a + b) * Ln * (u * x) ** a * (v * y) ** b * x**c * y**d
                items_i.append(((a, b, c, d), elt))
    mult = r0**n * r2**n * Ln
    items_ii = []
    for exps in reversed(monomials_of_degree(4, 2 * n)):
        m = u ** exps[0] * v ** exps[1] * x ** exps[2] * y ** exps[3]
        items_ii.append((m, m * mult))
    return items_i, items_ii


LEMMA_SPECS = [
    (P2, "1", "t", "1"),
    (P2, "t", "t^2+1", "1"),
    (P3, "1", "t", "1"),
    (P3, "t", "t^2", "1"),
    (P3, "t+1", "t^2+t+2", "t"),
    (P5, "1", "t", "1"),
    (P5, "2*t+3", "t^3+4", "t^2+1"),
]


def lemma_ideal(spec, n):
    """I_n = (u^n, v^n, x^n, y^n, F) on the suite's five-variable ring."""
    S = RingSpec(spec.p, (("t", 0), ("u", 1), ("v", 1), ("x", 1), ("y", 1)))
    u, v, x, y = (S.variable(nm) for nm in "uvxy")
    r0, r1, r2 = (MultiPoly.from_unipoly(S, r, "t") for r in (spec.r0, spec.r1, spec.r2))
    F = r0 * u**2 * x**2 + r1 * u * x * v * y + r2 * v**2 * y**2
    return IdealHandle(S, [u**n, v**n, x**n, y**n, F])


def member_loop_items(spec, n, L):
    """Items (i) and (ii) of the lemma suite, with L in place of L_n,
    answered one element at a time by SliceCache.member over
    product_lemma_elements: the reference for the suite's reading of the
    degree-2n slice invariants.  Also returns how many elements the
    suite must still ask: those whose factor (r0 r2)^k L does not put
    every degree-2n monomial times it in I_n, by the same membership."""
    items_i, items_ii = product_lemma_elements(spec, n, L)
    In = lemma_ideal(spec, n)
    member = SliceCache(In).member
    wit_i = tuple(
        "(a,b,c,d)=({},{},{},{})".format(*abcd) for abcd, elt in items_i if not member(elt)
    )
    wit_ii = tuple(format_multipoly(m) for m, elt in items_ii if not member(elt))
    kills = [
        all(member(MultiPoly.from_unipoly(In.ring, L * (spec.r0 * spec.r2) ** k, "t") * m)
            for m, _ in items_ii)
        for k in range(n + 1)
    ]
    asked = sum(not kills[a + b] for (a, b, _, _), _ in items_i)
    asked += 0 if kills[n] else len(items_ii)
    return (
        decomposer.SuiteItem("inclusion_b", not wit_i, len(items_i), wit_i),
        decomposer.SuiteItem("inclusion_c", not wit_ii, len(items_ii), wit_ii),
    ), asked


class TestLemmaInclusions:
    """Items (i) and (ii) read off the invariants of S_2n / (I_n)_2n
    where those settle a factor, and ask the elements otherwise."""

    @pytest.mark.parametrize("p,r0,r1,r2", LEMMA_SPECS)
    def test_items_match_a_membership_loop(self, p, r0, r1, r2, monkeypatch):
        # with L_n itself every element lies in I_n.  In its place (up to
        # n = 4), 1 and t settle few factors and leave witnesses, and
        # d / gcd(d, r0 r2), d the largest invariant factor of the slice,
        # leaves the small k alone unsettled when r0 r2 is not a unit
        spec = SequenceSpec.parse(p, r0, r1, r2)
        asked = []
        real_member = SliceCache.member
        monkeypatch.setattr(
            SliceCache, "member",
            lambda self, f: (f.ring.nvars == 5 and asked.append(f)) or real_member(self, f),
        )
        witnessed = mixed = False
        for n in range(1, 6):
            d = SliceCache(lemma_ideal(spec, n)).at(2 * n).largest
            Ls = [big_L(spec, n)]
            if n < 5:
                Ls += [UniPoly.one(p), UniPoly.t(p), d.exact_div(uni_gcd(d, spec.r0 * spec.r2))]
            for L in Ls:
                monkeypatch.setattr(decomposer, "big_L", lambda spec, n: L)
                asked.clear()
                inc_b, inc_c = lemma_membership_suite(spec, n).items[:2]
                n_asked = len(asked)
                expected, to_ask = member_loop_items(spec, n, L)
                assert (inc_b, inc_c) == expected, (n, L)
                assert n_asked == to_ask, (n, L)
                witnessed |= not (inc_b.passed and inc_c.passed)
                mixed |= 0 < n_asked < inc_b.checked + inc_c.checked
        assert witnessed and mixed == ((spec.r0 * spec.r2).degree > 0)

    def test_p3_r1t1_n4_asks_no_element(self, monkeypatch):
        # verify-lemmas p=3 r=1,t,1 n=4 settles every factor from the
        # invariants: no membership question on the five-variable ring
        # (220, one per element, when each element is asked)
        asked = []
        real_member = SliceCache.member
        monkeypatch.setattr(
            SliceCache, "member", lambda self, f: asked.append(f) or real_member(self, f)
        )
        argv = ["verify-lemmas", "--p", "3", "--r", "1,t,1", "--n", "4", "--no-timings"]
        assert CliRunner().invoke(main, argv).exit_code == 0
        assert asked and all(f.ring.nvars == 3 for f in asked)


class TestLemmaElements:
    """The suite's elements against the products they are built from.

    Membership is stubbed: it records each element asked and rejects a
    seeded subset of the reference elements (the lemmas hold on every
    real input), so the witnesses must name exactly the rejected ones,
    in the reference's order.  The degree-2n invariants of the
    five-variable ideal are stubbed to free rank 1, so that they settle
    no factor and every element is asked."""

    @pytest.mark.parametrize("p,r0,r1,r2", LEMMA_SPECS)
    def test_elements_and_witnesses_match_the_products(self, p, r0, r1, r2, monkeypatch):
        spec = SequenceSpec.parse(p, r0, r1, r2)
        rng = random.Random(f"{p.p}/{r0}/{r1}/{r2}")
        real_at = SliceCache.at
        monkeypatch.setattr(
            SliceCache, "at",
            lambda self, b: DegreeInvariants(1, self._one)
            if self.ideal.ring.nvars == 5 else real_at(self, b),
        )
        for n in range(1, 6):
            items_i, items_ii = product_lemma_elements(spec, n)
            rejected = {elt for _, elt in items_i + items_ii if rng.random() < 0.3}
            asked = []
            monkeypatch.setattr(
                SliceCache, "member", lambda self, f: asked.append(f) or f not in rejected
            )
            report = lemma_membership_suite(spec, n)
            assert [f for f in asked if f.ring.nvars == 5] == [
                elt for _, elt in items_i + items_ii
            ]
            wit_i = tuple(
                "(a,b,c,d)=({},{},{},{})".format(*abcd)
                for abcd, elt in items_i if elt in rejected
            )
            wit_ii = tuple(format_multipoly(m) for m, elt in items_ii if elt in rejected)
            inc_b, inc_c = report.items[:2]
            assert (inc_b.checked, inc_b.witnesses, inc_b.passed) == (
                len(items_i), wit_i, not wit_i
            )
            assert (inc_c.checked, inc_c.witnesses, inc_c.passed) == (
                len(items_ii), wit_ii, not wit_ii
            )
