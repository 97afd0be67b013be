import dataclasses

import pytest

from frobgrow.decomposer import (
    FamilySpec,
    PrimaryComponent,
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
from frobgrow.errors import InputError, VerificationError
from frobgrow.fpoly import (
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    format_unipoly,
    frobenius_generators,
    parse_poly,
    parse_unipoly,
)
from frobgrow.groebner import IdealHandle, ideal_equal
from frobgrow.hq import h_q
from frobgrow.ktmodule import SliceCache, SliceInvariants, slice_power_containment
from frobgrow.sequences import SequenceSpec, p_seq

P2 = PrimeModulus(2)
P3 = PrimeModulus(3)


def q_of(fam, e):
    return PrimePower(fam.ring.p, e)


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


def bisected_exponent(C):
    """Least k >= 1 with radical^k inside C, by doubling and bisection
    over slice_power_containment: the reference search that the
    slice-invariant formulas of growth_exponent are checked against."""
    cache = SliceCache(C.ideal)

    def ok(k):
        return slice_power_containment(list(C.radical_generators), k, cache)

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2 if hi > 1 else 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


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


class TestRouteAgreement:
    """The slice-invariant formulas against the searches they replace."""

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
        if h == "minors":
            h = h_q(fam.ring, q).h
        elif h == "closed-form":
            h = ss_hq_closed_form(fam.seq, q)
        else:
            h = parse_unipoly(h, fam.ring.p)
        rep = stable_decomposition(fam, q, h, measure=False)
        for comp in [rep.isolated] + rep.embedded:
            assert comp.slices is rep.isolated.slices is not None
            slow = dataclasses.replace(comp, cap_degree=None)
            assert growth_exponent(comp) == growth_exponent(slow)
            for seed in (0, 1, 2):
                assert primary_sanity(comp, 5, seed) == primary_sanity(slow, 5, seed)

    def test_hand_built_components_random(self, rng):
        # isolated B and embedded B + (tau^s), measured over their own
        # ideal and over B's shared invariants, against the bisection over
        # slice_power_containment and the Groebner route
        R = RingSpec(P3, (("t", 0), ("x", 1), ("y", 1)))
        rad = (parse_poly("x", R), parse_poly("y", R))
        taus = [parse_unipoly(f, P3) for f in ("t", "t+1", "t^2+1")]
        for _ in range(10):
            B = IdealHandle(R, random_cap3_ideal(rng, R))
            iso = PrimaryComponent(B, rad, cap_degree=3)
            assert growth_exponent(iso) == bisected_exponent(iso)
            tau, s = rng.choice(taus), rng.randint(1, 3)
            tau_multi = MultiPoly.from_unipoly(R, tau, "t")
            ideal = IdealHandle(R, list(B.generators) + [tau_multi**s])
            own = PrimaryComponent(ideal, rad + (tau_multi,), (tau, s), cap_degree=3)
            shared = dataclasses.replace(own, slices=SliceInvariants(B))
            slow = dataclasses.replace(own, cap_degree=None)
            k = bisected_exponent(own)
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
            slices=SliceInvariants(B),
        )
        assert not C.slices.at(2).full
        assert growth_exponent(C) == bisected_exponent(C) == 1

    def test_cap_degree_needs_slice_radical(self):
        R = RingSpec(P2, (("t", 0), ("x", 1), ("y", 1)))
        C = PrimaryComponent(
            IdealHandle(R, ["x^2", "y^2", "x*y"]), (parse_poly("x", R),), cap_degree=2
        )
        with pytest.raises(InputError):
            growth_exponent(C)


class TestPrimarySanity:
    def test_passes_on_decomposition_components(self):
        fam = family("katzman", 2)
        rep = stable_decomposition(fam, q_of(fam, 2), parse_unipoly("t^4+t", P2))
        assert primary_sanity(rep.isolated, 5).passed
        for comp in rep.embedded:
            assert primary_sanity(comp, 5).passed

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


class TestSaturationGrowth:
    def test_cone_fixture(self):
        # N_q stays within q on the quadric cone: criterion-11 shape
        fam = cone_family()
        rows, ratio = saturation_growth(fam, parse_poly("y", fam.ring), [2, 4, 8])
        assert [(q.q, n) for q, n in rows] == [(2, 1), (4, 2), (8, 4)]
        assert ratio == 0.5


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

    def test_json_shape(self):
        spec = SequenceSpec.parse(P2, "1", "t", "1")
        d = lemma_membership_suite(spec, 2, 0, 2).to_json_dict()
        assert d["all_pass"] and d["n"] == 2
        assert all(item["passed"] for item in d["items"])
