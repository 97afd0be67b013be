"""The acceptance suite: one test, one printed pass/fail line, and one
wall-clock gate per criterion.  Every check is exact arithmetic; random
instances are drawn from fixed seeds so reruns are identical."""

import random
import time
from fractions import Fraction

from frobgrow.decomposer import (
    FamilySpec,
    family,
    primary_sanity,
    saturation_growth,
    ss_hq_closed_form,
    stable_decomposition,
    witness_colon,
)
from frobgrow.fpoly import (
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    format_unipoly,
    parse_poly,
    uni_factor,
    uni_gcd,
)
from frobgrow.groebner import (
    IdealHandle,
    colon,
    eliminate,
    member_bounded_oracle,
    normal_form,
)
from frobgrow.hq import h_q
from frobgrow.ktmodule import SliceCache, univariate_colon_trivial_panel
from frobgrow.sequences import SequenceSpec, factor_census, p_seq, tridiag_det


def report(number, name, ok, t0, limit, detail=""):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:02d} {name}: {verdict} ({elapsed:.1f}s / {limit}s){suffix}")
    assert ok, f"criterion {number} failed{suffix}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def rand_spec(rng, p):
    def poly():
        return UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 4))])

    while True:
        r1 = poly()
        if not r1.is_zero:
            return SequenceSpec(poly(), r1, poly())


def three_var_ideal(spec, n):
    S = RingSpec(spec.p, (("t", 0), ("x", 1), ("y", 1)))
    x, y = S.variable("x"), S.variable("y")
    r0, r1, r2 = (
        MultiPoly.from_unipoly(S, r, "t") for r in (spec.r0, spec.r1, spec.r2)
    )
    return S, IdealHandle(S, [x**n, y**n, r0 * x**2 + r1 * x * y + r2 * y**2])


def test_criterion_01_determinant_recurrence():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        p = PrimeModulus((2, 3, 5, 7)[rng.randrange(4)])
        s = rand_spec(rng, p)
        n = rng.randint(1, 25)
        if tridiag_det(s, n) != p_seq(s, n):
            ok = False
            break
    report(1, "determinant-recurrence", ok, t0, 10)


def test_criterion_02_witness_contraction_three_vars():
    t0 = time.monotonic()
    ok = True
    bad = ""
    for pv in (2, 3, 5):
        p = PrimeModulus(pv)
        spec = SequenceSpec.parse(p, "1", "t", "1")
        for n in range(2, 9):
            S, I = three_var_ideal(spec, n)
            wit = parse_poly("x", S) * parse_poly("y", S) ** (n - 1)
            J = eliminate(colon(I, wit), ["x", "y"])
            gen = UniPoly.zero(p)
            ti = S.index_of("t")
            for g in J.generators:
                gen = uni_gcd(gen, g.to_unipoly(ti))
            if gen.is_zero or gen.monic() != p_seq(spec, n - 1).monic():
                ok, bad = False, f"p={pv} n={n}"
                break
        if not ok:
            break
    report(2, "colon-contraction-is-P", ok, t0, 60, bad)


def test_criterion_03_colon_membership_random_specs():
    t0 = time.monotonic()
    rng = random.Random(103)
    ok = True
    for pv in (2, 3):
        p = PrimeModulus(pv)
        drawn = 0
        while drawn < 20:
            s = rand_spec(rng, p)
            if not s.degree_condition:
                continue
            drawn += 1
            for n in range(2, 9):
                S, I = three_var_ideal(s, n)
                f = (
                    parse_poly("x", S)
                    * parse_poly("y", S) ** (n - 1)
                    * MultiPoly.from_unipoly(S, p_seq(s, n - 1), "t")
                )
                if not normal_form(f, I).is_zero:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    report(3, "colon-lemma-membership", ok, t0, 60)


def test_criterion_04_katzman_decompositions():
    t0 = time.monotonic()
    ok = True
    bad = ""
    for pv in (2, 3):
        fam = family("katzman", pv)
        for e in (1, 2):
            q = PrimePower(fam.ring.p, e)
            cert = h_q(fam.ring, q)
            rep = stable_decomposition(fam, q, cert.h, "minors", cert)
            if not (rep.intersection_verified and rep.growth_bound_checked):
                ok, bad = False, f"p={pv} q={q.q} decomposition"
                break
            for comp in [rep.isolated] + rep.embedded:
                if not primary_sanity(comp, 10).passed:
                    ok, bad = False, f"p={pv} q={q.q} sanity"
                    break
            for comp in rep.embedded:
                if comp.measured_exponent > 2 * q.q + comp.tau[1]:
                    ok, bad = False, f"p={pv} q={q.q} exponent"
                    break
            if not ok:
                break
        if not ok:
            break
    report(4, "katzman-stable-decomposition", ok, t0, 180, bad)


def test_criterion_05_ss5_closed_form_decompositions():
    t0 = time.monotonic()
    ok = True
    bad = ""
    C = Fraction(0)
    for pv in (2, 3):
        fam = family("ss5", pv)
        ratios = []
        for e in (1, 2):
            q = PrimePower(fam.ring.p, e)
            h = ss_hq_closed_form(fam.seq, q)
            rep = stable_decomposition(fam, q, h, "closed-form")
            if not (rep.intersection_verified and rep.growth_bound_checked):
                ok, bad = False, f"p={pv} q={q.q} decomposition"
                break
            for comp in rep.embedded:
                if comp.measured_exponent > 4 * q.q + comp.tau[1]:
                    ok, bad = False, f"p={pv} q={q.q} exponent"
                    break
            s_max = max((s for _, s in uni_factor(h.monic(), 0)), default=0)
            ratios.append(Fraction(s_max, q.q))
            if not ok:
                break
        if not ok:
            break
        C = max(C, *ratios)
    report(5, "ss5-closed-form-decomposition", ok, t0, 180, f"C={C}")


def test_criterion_06_witness_colons():
    t0 = time.monotonic()
    ok = True
    bad = ""
    cases = [("ss5", pv, e) for pv in (2, 3, 5) for e in (1, 2)]
    cases += [("ss7", pv, 1) for pv in (2, 3)]
    for name, pv, e in cases:
        fam = family(name, pv)
        q = PrimePower(fam.ring.p, e)
        if witness_colon(fam, q) != p_seq(fam.seq, q.q - 2).monic():
            ok, bad = False, f"{name} p={pv} q={q.q}"
            break
    report(6, "witness-colon-equals-P", ok, t0, 120, bad)


def test_criterion_07_census_strictly_increasing():
    t0 = time.monotonic()
    p = PrimeModulus(2)
    spec = SequenceSpec.parse(p, "1", "t", "1")
    counts = []
    seen = set()
    for e in range(2, 6):
        poly = p_seq(spec, 2**e - 2)
        census = factor_census([(f"P_{2**e - 2}", poly)], 0)
        seen.update(census.distinct_irreducibles)
        counts.append(len(seen))
    ok = all(a < b for a, b in zip(counts, counts[1:]))
    report(7, "irreducible-census-growth", ok, t0, 10, f"counts={counts}")


def test_criterion_08_colon_stability():
    t0 = time.monotonic()
    rng = random.Random(108)
    p = PrimeModulus(2)
    spec = SequenceSpec.parse(p, "1", "t", "1")
    ok = True
    bad = ""
    for n in (1, 2, 3):
        S = RingSpec(p, (("t", 0), ("u", 1), ("v", 1), ("x", 1), ("y", 1)))
        u, v, x, y = (S.variable(nm) for nm in "uvxy")
        F = u**2 * x**2 + parse_poly("t*u*x*v*y", S) + v**2 * y**2
        gens = [u**n, v**n, x**n, y**n, F]
        for a in range(2 * n + 1):
            for b in range(2 * n - a + 1):
                for c in range(2 * n - a - b + 1):
                    d = 2 * n - a - b - c
                    gens.append(u**a * v**b * x**c * y**d)
        big = IdealHandle(S, gens)
        panel = []
        while len(panel) < 20:
            g = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(2, 4))])
            if not g.is_zero and g.degree > 0:
                panel.append(g)
        # r0 = r2 = 1, so the multiplier is the unit 1 and stability says
        # (big : g) = big; the ideal contains every monomial of degree 2n
        results = univariate_colon_trivial_panel(SliceCache(big), panel, 2 * n)
        if not all(results):
            failing = next(g for g, r in zip(panel, results) if not r)
            ok, bad = False, f"n={n} g={format_unipoly(failing)}"
            break
    report(8, "key-colon-stability", ok, t0, 120, bad)


def test_criterion_10_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(110)
    p = PrimeModulus(3)
    R = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))
    ok = True
    for _ in range(500):
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
        if member_bounded_oracle(f, I, 8, 8) != normal_form(f, I).is_zero:
            ok = False
            break
    report(10, "membership-oracle-equivalence", ok, t0, 60)


def test_criterion_11_saturation_exponents():
    t0 = time.monotonic()
    p = PrimeModulus(2)
    R = RingSpec(p, (("x", 1), ("y", 1), ("z", 1)))
    rel = parse_poly("z^2+x*y", R)
    R = RingSpec(p, R.variables, (rel,))
    fam = FamilySpec("cone", R, IdealHandle(R, ["x", "z"]), None, ("x", "z"))
    rows, _ = saturation_growth(fam, parse_poly("y", R), [2, 4, 8])
    ok = all(n_q <= q.q for q, n_q in rows)
    detail = " ".join(f"N_{q.q}={n_q}" for q, n_q in rows)
    report(11, "saturation-stabilization", ok, t0, 30, detail)


def test_criterion_12_brenner_monsky_certificates():
    t0 = time.monotonic()
    fam = family("brenner_monsky", 2)
    details = []
    ok = True
    for e in (1, 2):
        q = PrimePower(fam.ring.p, e)
        cert = h_q(fam.ring, q)
        d = cert.to_json_dict()
        # report-only: validate the schema, emit the factor list
        for key in ("q", "h_text", "factors", "s_max", "partial", "minors_examined"):
            if key not in d:
                ok = False
        factors = (
            " * ".join(f"({f['poly']})^{f['multiplicity']}" for f in d["factors"])
            or "1"
        )
        details.append(
            f"h_{q.q}={d['h_text']}{' PARTIAL' if d['partial'] else ''}"
            f" factors={factors}"
        )
    report(12, "brenner-monsky-certificates", ok, t0, 120, "; ".join(details))
