"""Primary decompositions of Frobenius powers and their verification.

Builds the stable decomposition I^[q] = (I^[q] : h) meet the components
I^[q] + (tau_i^{s_i}), measures growth exponents, checks saturation
stabilization exponents, evaluates the closed-form separating polynomial
for the five-variable hypersurface family, computes witness colons whose
k[t]-contraction is P_{q-2}, and runs the membership suites behind those
facts.

The two routes run one pipeline (stable_decomposition) and differ only
in the isolated component Q and in the proof of the intersection
equality.  On the certified route the degree K of Q, the growth
exponents and Q's colon panel are all read off the slice invariants of
I^[q] (free rank and largest invariant factor of each S_b / I^[q]_b);
the Groebner route finds each growth exponent by one ascending search
over products of normal forms instead.  On both routes an embedded
component's colons are settled by the power of its tau that the
radical check finds (see primary_sanity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .budgets import DEFAULT as DEFAULT_BUDGETS
from .errors import InputError, VerificationError
from .fpoly import (
    MultiPoly,
    PrimeModulus,
    PrimePower,
    RingSpec,
    UniPoly,
    format_multipoly,
    format_unipoly,
    frobenius_generators,
    uni_factor,
    uni_gcd,
    x_degree,
)
from .groebner import (
    IdealHandle,
    colon,
    eliminate,
    ideal_equal,
    intersect,
    power_containment,
    saturate,
)
from .hq import HqCertificate
from .ktmodule import SliceCache, contraction_colon, univariate_colon_trivial_panel
from .orders import monomials_of_degree
from .sequences import SequenceSpec, big_L, p_seq


# ---------------------------------------------------------------------------
# named families

FAMILY_NAMES = ("katzman", "ss5", "ss7", "brenner_monsky")


@dataclass(frozen=True)
class FamilySpec:
    """A ring, an ideal, and optional sequence data for one test family."""

    name: str
    ring: RingSpec
    ideal: IdealHandle
    seq: SequenceSpec | None = None
    minimal_prime: tuple = ()  # generator names of the recorded minimal prime

    def __post_init__(self):
        if self.minimal_prime:
            # check in a relation-free copy of the ring: relations ride
            # along in every IdealHandle, which would make this vacuous
            flat = RingSpec(self.ring.p, self.ring.variables)
            prime = IdealHandle(flat, list(self.minimal_prime))
            for rel in self.ring.relations:
                if not prime.contains(MultiPoly(flat, dict(rel.term_dict()))):
                    raise InputError(
                        f"relation {format_multipoly(rel)} escapes the recorded minimal prime"
                    )


def _default_seq(p: PrimeModulus) -> SequenceSpec:
    one = UniPoly.one(p)
    return SequenceSpec(one, UniPoly.t(p), one)


def family(name: str, p, seq: SequenceSpec | None = None) -> FamilySpec:
    """Code fixtures for the named families; relations are expanded from
    their product/sum forms here so tests cannot drift from them."""
    p = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
    if name == "katzman":
        ring = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))
        t, x, y = (ring.variable(v) for v in ("t", "x", "y"))
        rel = x * y * (x - y) * (x - t * y)
        ring = RingSpec(p, ring.variables, (rel,))
        return FamilySpec(
            name, ring, IdealHandle(ring, ["x", "y"]), None, ("x", "y")
        )
    if name == "ss5":
        seq = seq or _default_seq(p)
        if seq.p != p:
            raise InputError("sequence modulus differs from the family prime")
        ring = RingSpec(p, (("t", 0), ("u", 1), ("v", 1), ("x", 1), ("y", 1)))
        u, v, x, y = (ring.variable(n) for n in "uvxy")
        r0, r1, r2 = (
            MultiPoly.from_unipoly(ring, r, "t") for r in (seq.r0, seq.r1, seq.r2)
        )
        rel = r0 * u**2 * x**2 + r1 * u * x * v * y + r2 * v**2 * y**2
        ring = RingSpec(p, ring.variables, (rel,))
        return FamilySpec(
            name, ring, IdealHandle(ring, ["u", "v", "x", "y"]), seq,
            ("u", "v", "x", "y"),
        )
    if name == "ss7":
        ring = RingSpec(
            p,
            (("t", 0), ("u", 1), ("v", 1), ("w", 1), ("x", 1), ("y", 1), ("z", 1)),
        )
        t, u, v, w, x, y, z = (ring.variable(n) for n in "tuvwxyz")
        rel = u**2 * x**2 + v**2 * y**2 + t * u * x * v * y + t * w**2 * z**2
        ring = RingSpec(p, ring.variables, (rel,))
        return FamilySpec(
            name, ring, IdealHandle(ring, ["u", "v", "w", "x", "y", "z"]),
            seq or _default_seq(p), ("u", "v", "w", "x", "y", "z"),
        )
    if name == "brenner_monsky":
        if p.p != 2:
            raise InputError("the brenner_monsky family requires p = 2")
        ring = RingSpec(p, (("t", 0), ("x", 1), ("y", 1), ("z", 1)))
        t, x, y, z = (ring.variable(n) for n in "txyz")
        rel = z**4 + z**2 * x * y + z * x**3 + z * y**3 + t * x**2 * y**2
        ring = RingSpec(p, ring.variables, (rel,))
        return FamilySpec(
            name, ring, IdealHandle(ring, ["x", "y", "z"]), None, ("x", "y", "z")
        )
    raise InputError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")


# ---------------------------------------------------------------------------
# components and reports


@dataclass
class PrimaryComponent:
    ideal: IdealHandle
    radical_generators: tuple  # MultiPoly
    tau: tuple | None = None  # (UniPoly irreducible, multiplicity s_i)
    measured_exponent: int | None = None
    # degree from which the ideal contains every monomial in the weighted
    # variables; set by the certified route (for the isolated component,
    # the K read off the slice invariants of I^[q]) to enable degreewise
    # k[t] linear algebra instead of Groebner bases.  Such a component is
    # B + m^cap_degree (no tau) or B + (tau^s), with m the weighted
    # variables and B the ideal of `slices` (the ideal itself when unset),
    # and its radical is m or (m, tau)
    cap_degree: int | None = None
    # slice store of B, shared by every component of one decomposition
    slices: SliceCache | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        d = {
            "generators": [format_multipoly(g) for g in self.ideal.generators],
            "radical": [format_multipoly(g) for g in self.radical_generators],
        }
        if self.tau is not None:
            d["tau"] = format_unipoly(self.tau[0])
            d["tau_multiplicity"] = self.tau[1]
        if self.measured_exponent is not None:
            d["measured_exponent"] = self.measured_exponent
        return d


@dataclass
class DecompositionReport:
    q: PrimePower
    hq: object  # HqCertificate or UniPoly
    h_source: str  # "minors", "closed-form", or "explicit"
    isolated: PrimaryComponent
    embedded: list
    intersection_verified: bool
    growth_bound_checked: bool
    witness: str | None = None
    notes: tuple = ()
    method: str = "groebner"

    @property
    def h(self) -> UniPoly:
        return self.hq.h if isinstance(self.hq, HqCertificate) else self.hq

    def to_json_dict(self) -> dict:
        return {
            "p": self.q.p.p,
            "e": self.q.e,
            "q": self.q.q,
            "h": format_unipoly(self.h),
            "h_source": self.h_source,
            "h_certificate": (
                self.hq.to_json_dict() if isinstance(self.hq, HqCertificate) else None
            ),
            "isolated": self.isolated.to_json_dict(),
            "embedded": [c.to_json_dict() for c in self.embedded],
            "intersection_verified": self.intersection_verified,
            "growth_bound_checked": self.growth_bound_checked,
            "witness": self.witness,
            "notes": list(self.notes),
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# the stable decomposition


def _weight1_variables(ring: RingSpec):
    return tuple(ring.variable(i) for i in ring.weight1_indices())


def _certifiable(fam: FamilySpec) -> bool:
    """Whether the degreewise certificate route applies: one weight-zero
    variable, the ideal generated by single weighted variables, and all
    generators/relations homogeneous of positive degree in the weighted
    variables."""
    ring = fam.ring
    if len(ring.weight0_indices()) != 1:
        return False
    w1 = set(ring.weight1_indices())
    gen_exps = set()
    for g in fam.ideal.generators:
        td = g.term_dict()
        if len(td) != 1:
            return False
        ((exps, c),) = td.items()
        if c != 1 or sum(exps) != 1:
            return False
        gen_exps.add(exps.index(1))
    if gen_exps != w1:
        return False
    try:
        return all(x_degree(rel) > 0 for rel in ring.relations)
    except InputError:
        return False


def stable_decomposition(
    fam: FamilySpec,
    q: PrimePower,
    h: UniPoly,
    h_source: str = "explicit",
    hq_certificate: HqCertificate | None = None,
    seed: int = 0,
    measure: bool = True,
    budgets=DEFAULT_BUDGETS,
    method: str = "auto",
) -> DecompositionReport:
    """I^[q] = Q meet the components I^[q] + (tau_i^{s_i}).

    One pipeline: h is factored once, its product checked, each
    irreducible factor tau^s gives one embedded component, and every
    growth exponent is measured.  The routes differ only in Q and in the
    proof of the intersection equality.  method "groebner" takes
    Q = colon(I^[q], h) and recomputes the equality from scratch by
    elimination.  method "certified" builds Q = I^[q] + (weighted vars)^K
    (see _certified_isolated), inside colon(I^[q], h) by construction,
    reduces the multi-component intersection to I^[q] + (h) by an exact
    Bezout certificate, and settles the remaining equality degree by
    degree.  "auto" picks certified whenever the family shape supports it.
    """
    if h.is_zero:
        raise InputError("the separating polynomial h must be nonzero")
    ring = fam.ring
    if h.p != ring.p:
        raise InputError("modulus of h differs from the family prime")
    if method not in ("auto", "groebner", "certified"):
        raise InputError(f"unknown decomposition method {method!r}")
    if method == "auto":
        method = "certified" if _certifiable(fam) else "groebner"
    certified = method == "certified"
    if certified and not _certifiable(fam):
        raise InputError(
            "certified decomposition needs a variable-generated ideal, "
            "one weight-zero variable, and weighted-homogeneous relations"
        )
    Iq = frobenius_generators(fam.ideal, q)
    h_monic = h.monic()
    w1 = _weight1_variables(ring)
    notes = []
    if certified:
        # one slice store of I^[q] gives K and measures every component
        slices = SliceCache(Iq)
        cap = len(w1) * (q.q - 1) + 1  # every monomial of this degree is in I^[q]
        Q, K = _certified_isolated(Iq, h_monic, slices, cap, notes)
    else:
        slices = cap = K = None
        Q = colon(Iq, MultiPoly.from_unipoly(ring, h, "t"), budgets)
    isolated = PrimaryComponent(ideal=Q, radical_generators=w1, cap_degree=K, slices=slices)
    factors = list(uni_factor(h_monic, seed)) if h.degree > 0 else []
    prod = UniPoly.one(ring.p)
    for tau, s in factors:
        prod = prod * tau**s
    if prod != h_monic:
        raise VerificationError(
            "factorization certificate failed", witness=format_unipoly(prod)
        )
    embedded = []
    for tau, s in factors:
        tau_pow = MultiPoly.from_unipoly(ring, tau**s, "t")
        Qi = IdealHandle(ring, list(Iq.generators) + [tau_pow])
        # only here can Qi be the unit ideal: a certified family's relations
        # have positive x-degree, so there (S / Qi)_0 = k[t]/(tau^s) is not 0
        if not certified and Qi.is_unit_ideal(budgets):
            notes.append(f"dropped unit component for tau = {format_unipoly(tau)}")
            continue
        tau_multi = MultiPoly.from_unipoly(ring, tau, "t")
        embedded.append(
            PrimaryComponent(
                ideal=Qi,
                radical_generators=w1 + (tau_multi,),
                tau=(tau, s),
                cap_degree=cap,
                slices=slices,
            )
        )
    verified, witness = True, None
    if certified:
        if len(factors) > 1:
            _bezout_one_certificate(factors, h_monic)
            notes.append(
                "multi-component intersection reduced to I^[q] + (h) by an "
                "exact Bezout certificate over k[t]"
            )
        notes.append(
            "intersection equality settled degree by degree: below the "
            "monomial degree the isolated component adds nothing, above it "
            "the boundary reductions push I^[q] + (h) into I^[q]"
        )
    else:
        inter = Q
        for comp in embedded:
            inter = intersect(inter, comp.ideal, budgets)
        verified = ideal_equal(inter, Iq, budgets)
        if not verified:  # a basis element of one side outside the other
            witness = next(
                (format_multipoly(g) for A, B in ((inter, Iq), (Iq, inter))
                 for g in A.groebner_basis(budgets=budgets) if not B.contains(g, budgets)),
                None,
            )
    bound_ok = True  # the paper bounds each embedded exponent by n*q + s_i, n = len(w1)
    if measure:
        isolated.measured_exponent = growth_exponent(isolated, budgets)
        for comp in embedded:
            comp.measured_exponent = growth_exponent(comp, budgets)
            bound = len(w1) * q.q + comp.tau[1]
            if comp.measured_exponent > bound:
                bound_ok = False
                notes.append(
                    f"growth exponent {comp.measured_exponent} exceeds "
                    f"{bound} for tau = {format_unipoly(comp.tau[0])}"
                )
    return DecompositionReport(
        q=q,
        hq=hq_certificate if hq_certificate is not None else h,
        h_source=h_source,
        isolated=isolated,
        embedded=embedded,
        intersection_verified=verified,
        growth_bound_checked=bound_ok,
        witness=witness,
        notes=tuple(notes),
        method=method,
    )


def _certified_isolated(Iq, h_monic: UniPoly, slices: SliceCache, cap: int, notes):
    """(Q, K) with Q = I^[q] + (weighted vars)^K for the least K with
    h * m in I^[q] for every degree-K monomial m, and the note that says
    so.  h kills S_K / I^[q]_K exactly when that slice has free rank 0
    and its largest invariant factor divides h; this holds at K = cap,
    where the slice is full."""
    ring = Iq.ring
    w1 = ring.weight1_indices()
    for K in range(cap + 1):
        inv = slices.at(K)
        if inv.free_rank == 0 and (h_monic % inv.largest).is_zero:
            break
    # the generators of I^[q] are the x_i^q, with q - 1 = (cap - 1) / n,
    # so these are the degree-K monomials outside it
    extra = []
    for exps in monomials_of_degree(len(w1), K, cap=(cap - 1) // len(w1)):
        full = [0] * ring.nvars
        for i, e in zip(w1, exps):
            full[i] = e
        extra.append(MultiPoly.monomial(ring, tuple(full)))
    notes.append(
        f"isolated component taken as I^[q] + (weighted vars)^{K}; "
        f"certified h*m in I^[q] for every degree-{K} monomial m "
        f"(S_{K} / I^[q]_{K} has free rank 0 and largest invariant factor "
        f"{format_unipoly(inv.largest)}, which divides h), so it sits inside "
        f"colon(I^[q], h)"
    )
    return IdealHandle(ring, list(Iq.generators) + extra), K


def _uni_xgcd(a: UniPoly, b: UniPoly):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g monic when nonzero."""
    p = a.p
    r0, r1 = a, b
    x0, x1 = UniPoly.one(p), UniPoly.zero(p)
    y0, y1 = UniPoly.zero(p), UniPoly.one(p)
    while not r1.is_zero:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        x0, x1 = x1, x0 - quo * x1
        y0, y1 = y1, y0 - quo * y1
    if r0.is_zero:
        return r0, x0, y0
    lc_inv = pow(r0.lc(), p.p - 2, p.p)
    scale = UniPoly.const(p, lc_inv)
    return r0.monic(), x0 * scale, y0 * scale


def _bezout_one_certificate(factors, h_monic: UniPoly):
    """Coefficients c_i with sum(c_i * h/tau_i^{s_i}) == 1, verified by
    exact arithmetic; proves the tau_i^{s_i} are pairwise comaximal, so
    the intersection of the I + (tau_i^{s_i}) equals I + (h)."""
    cofactors = [h_monic.exact_div(tau**s) for tau, s in factors]
    coeffs = []
    for (tau, s), cof in zip(factors, cofactors):
        mod = tau**s
        g, inv, _ = _uni_xgcd(cof % mod, mod)
        if g.degree != 0:
            raise VerificationError(
                "separating polynomial factors are not pairwise coprime",
                witness=format_unipoly(tau),
            )
        coeffs.append(inv % mod)
    total = UniPoly.zero(h_monic.p)
    for c, cof in zip(coeffs, cofactors):
        total = total + c * cof
    if total != UniPoly.one(h_monic.p):
        raise VerificationError(
            "Bezout certificate for the factor decomposition failed",
            witness=format_unipoly(total),
        )
    return coeffs


def growth_exponent(C: PrimaryComponent, budgets=DEFAULT_BUDGETS) -> int:
    """Minimal k >= 1 with radical^k contained in the component.

    Components carrying cap_degree are read off the slice invariants of
    their base ideal B (see PrimaryComponent): r_b, the free rank, and
    d_b, the largest invariant factor, of S_b / B_b.
    - Isolated, C = B + m^K with K = cap_degree: m^k lies in C iff C
      contains every degree-k monomial, and a full slice stays full
      above.  So the exponent is max(1, F), F the first b < K whose
      slice of B is full (r_b = 0, d_b a unit), or K if there is none.
    - Embedded, C = B + (tau^s): (m, tau)^k lies in C iff tau^(k-b) kills
      S_b / C_b = (S_b / B_b) / tau^s for every b <= k.  The least such
      power of tau is tau^e_b, with e_b = s when r_b > 0 and
      min(s, v_tau(d_b)) otherwise; once e_b = 0 it stays 0 above.  So
      the exponent is the largest b + e_b before the first e_b = 0, and
      at least 1.
    Each is the least k with radical^k inside C, the k that a search
    over the products of the radical generators finds (compared in the
    test suite).  Components without cap_degree run that search, once,
    on Groebner normal forms (groebner.power_containment)."""
    if not C.radical_generators:
        raise InputError("component has no radical generators")
    if C.cap_degree is not None:
        slices = _slices_of(C)
        if C.tau is None:
            for b in range(C.cap_degree):
                if slices.at(b).full:
                    return max(1, b)
            return max(1, C.cap_degree)
        tau, s = C.tau
        k = 1
        for b in range(C.cap_degree):
            inv = slices.at(b)
            e = s
            if not inv.free_rank:  # e = min(s, v_tau(d_b))
                e, d = 0, inv.largest
                while e < s:
                    d, rem = divmod(d, tau)
                    if not rem.is_zero:
                        break
                    e += 1
            if e == 0:
                break
            k = max(k, b + e)
        return k
    radical = IdealHandle(C.ideal.ring, list(C.radical_generators))
    return power_containment(radical, C.ideal, budgets)


def _slices_of(C: PrimaryComponent, own: SliceCache | None = None) -> SliceCache:
    """The slice store a cap_degree component is measured with; a
    component built by hand uses one over its own ideal (`own` when the
    caller already has it), which already contains m^cap_degree or
    tau^s, so the formulas are unchanged."""
    ring = C.ideal.ring
    expected = _weight1_variables(ring)
    if C.tau is not None:
        expected += (MultiPoly.from_unipoly(ring, C.tau[0], "t"),)
    if tuple(C.radical_generators) != expected:
        raise InputError(
            "a component with cap_degree has the weighted variables "
            "(and tau) as its radical generators"
        )
    if C.slices is not None:
        return C.slices
    return own if own is not None else SliceCache(C.ideal)


# ---------------------------------------------------------------------------
# primaryness regression panel


@dataclass(frozen=True)
class SanityVerdict:
    passed: bool
    witness: str | None = None


def primary_sanity(
    C: PrimaryComponent, panel_size: int = 10, seed: int = 0, budgets=DEFAULT_BUDGETS
) -> SanityVerdict:
    """Necessary-condition test, not a primality proof: the component is
    not the unit ideal, every radical generator has some power in the
    ideal, and, on a component without a tau, colon by random g(t) leaves
    the ideal unchanged.

    A component with a tau lists tau among its radical generators, so
    once the radical check has found a power tau^m in C, colon by any g
    prime to tau leaves C unchanged: a*g + b*tau^m = 1 in k[t], and
    g*v in C gives v = a*(g*v) + b*tau^m*v in C.  Such a component passes
    there, with no panel drawn.

    A component without a tau carrying cap_degree checks the unit and
    the radical powers by slice membership and answers the colons from
    the slice invariants of its base ideal B (see growth_exponent) by
    univariate_colon_trivial_panel: (C : g) = C below cap_degree exactly
    when g is coprime to d_b, the torsion exponent of every S_b / C_b,
    b < cap_degree.  That is the
    verdict of the degreewise colon computation, so the same g fails
    first and the witness is the same.

    A component with neither takes one Groebner colon, by the panel's
    product g_1 ... g_n, and tests it by containment: C lies in C : f
    for every f, so C : f = C exactly when every generator of C : f
    reduces to zero modulo C's basis.  A product of non-zero-divisors on
    S/C is one again, and a zero divisor among the g_i makes the product
    one too, so the product passes exactly when every g passes.  Only
    when it fails are the g's tested one at a time, in panel order, to
    name the first that fails as the witness; if none before the last
    fails, the last is a zero divisor and needs no colon of its own."""
    if panel_size < 1:
        raise InputError("panel size must be at least 1")
    ring = C.ideal.ring
    if C.tau is not None and (
        MultiPoly.from_unipoly(ring, C.tau[0], "t") not in C.radical_generators
    ):
        raise InputError("a component with a tau has tau among its radical generators")
    cache = SliceCache(C.ideal) if C.cap_degree is not None else None

    def member(f):
        return cache.member(f) if cache is not None else C.ideal.contains(f, budgets)

    if member(MultiPoly.const(ring, 1)):
        return SanityVerdict(False, "component is the unit ideal")
    for g in C.radical_generators:
        power = g
        found = False
        for _ in range(12):  # powers up to g^4096, under the exponent cap
            if member(power):
                found = True
                break
            power = power * power
        if not found:
            return SanityVerdict(
                False, f"no power of {format_multipoly(g)} found in the ideal"
            )
    if C.tau is not None:  # the power of tau just found proves the colons
        return SanityVerdict(True)
    p = ring.p
    rng = random.Random(seed)
    panel = []
    while len(panel) < panel_size:
        g = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(1, 4))])
        if not g.is_zero and g.degree > 0:
            panel.append(g)
    if cache is not None:
        stable = univariate_colon_trivial_panel(_slices_of(C, cache), panel, C.cap_degree)
        bad = next((g for g, ok in zip(panel, stable) if not ok), None)
    else:

        def unchanged(g):  # C lies in C : g, so equality is the reverse containment
            quotients = colon(C.ideal, MultiPoly.from_unipoly(ring, g, "t"), budgets)
            return all(C.ideal.contains(f, budgets) for f in quotients.generators)

        product = panel[0]
        for g in panel[1:]:
            product = product * g
        if unchanged(product):
            bad = None
        else:  # some g is a zero divisor: the first one, or the last if no other is
            bad = next((g for g in panel[:-1] if not unchanged(g)), panel[-1])
    if bad is not None:
        return SanityVerdict(False, f"colon by {format_unipoly(bad)} changed the ideal")
    return SanityVerdict(True)


# ---------------------------------------------------------------------------
# saturation stabilization exponents


def saturation_growth(fam: FamilySpec, z: MultiPoly, q_list, budgets=DEFAULT_BUDGETS):
    """For each q, the stabilization exponent N_q of I^[q] : z^infinity;
    returns (rows, max N_q / q)."""
    rows = []
    ratio = 0.0
    for q in q_list:
        q = q if isinstance(q, PrimePower) else PrimePower.from_value(fam.ring.p.p, q)
        Iq = frobenius_generators(fam.ideal, q)
        result = saturate(Iq, z, budgets)
        rows.append((q, result.stabilization_exponent))
        ratio = max(ratio, result.stabilization_exponent / q.q)
    return rows, ratio


# ---------------------------------------------------------------------------
# the closed-form separating polynomial


def ss_hq_closed_form(spec: SequenceSpec, q: PrimePower) -> UniPoly:
    """r0^{3q} r2^{3q} L_q, monic-normalized."""
    if spec.r0.is_zero or spec.r2.is_zero:
        raise InputError("closed form needs r0*r2 nonzero")
    if not spec.degree_condition:
        raise InputError("closed form needs 2 deg r1 > deg r0 + deg r2")
    qq = q.q
    return (spec.r0**(3 * qq) * spec.r2**(3 * qq) * big_L(spec, qq)).monic()


# ---------------------------------------------------------------------------
# witness colons


def witness_colon(
    fam: FamilySpec, q: PrimePower, budgets=DEFAULT_BUDGETS, method: str = "module"
) -> UniPoly:
    """Monic generator of (I^[q] : witness) contracted to k[t], where the
    witness is (ux)(vy)^{q-2}uv, times w^{q-1} in the seven-variable
    family.

    The contraction equals {g in k[t] : g * witness in I^[q]}, so the
    default route computes it directly by degreewise k[t] linear algebra
    on the witness's slice; method "groebner" recomputes it as
    colon-then-eliminate and exists as the independent cross-check.
    """
    if fam.name not in ("ss5", "ss7"):
        raise InputError("witness colons are defined for the ss5 and ss7 families")
    if method not in ("module", "groebner"):
        raise InputError(f"unknown witness method {method!r}")
    qq = q.q
    if qq < 2:
        raise InputError("witness colons need q >= 2")
    ring = fam.ring
    u, v, x, y = (ring.variable(n) for n in "uvxy")
    wit = u**2 * x * v ** (qq - 1) * y ** (qq - 2)
    if fam.name == "ss7":
        wit = wit * ring.variable("w") ** (qq - 1)
    Iq = frobenius_generators(fam.ideal, q)
    if method == "module":
        return contraction_colon(Iq, wit)
    J = colon(Iq, wit, budgets)
    contraction = eliminate(J, ring.weight1_indices(), budgets)
    ti = ring.weight0_indices()[0]
    gen = UniPoly.zero(ring.p)
    for g in contraction.generators:
        gen = uni_gcd(gen, g.to_unipoly(ti))
    return gen.monic() if not gen.is_zero else gen


# ---------------------------------------------------------------------------
# membership suites


@dataclass(frozen=True)
class SuiteItem:
    name: str
    passed: bool
    checked: int
    witnesses: tuple = ()


@dataclass(frozen=True)
class SuiteReport:
    spec: SequenceSpec
    n: int
    items: tuple

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r0": format_unipoly(self.spec.r0),
            "r1": format_unipoly(self.spec.r1),
            "r2": format_unipoly(self.spec.r2),
            "items": [
                {
                    "name": i.name,
                    "passed": i.passed,
                    "checked": i.checked,
                    "witnesses": list(i.witnesses),
                }
                for i in self.items
            ],
            "all_pass": self.all_pass,
        }


def lemma_membership_suite(
    spec: SequenceSpec, n: int, seed: int = 0, panel_size: int = 5
) -> SuiteReport:
    """Exhaustive membership checks behind the five-variable inclusion
    lemmas at index n, plus the three-variable colon membership, all
    answered by degree slices."""
    if n < 1:
        raise InputError("suite index n must be at least 1")
    if panel_size < 1:
        raise InputError("panel size must be at least 1")
    if not spec.degree_condition:
        raise InputError("suite needs the degree condition 2 deg r1 > deg r0 + deg r2")
    p = spec.p
    S = RingSpec(p, (("t", 0), ("u", 1), ("v", 1), ("x", 1), ("y", 1)))
    u, v, x, y = (S.variable(nm) for nm in "uvxy")
    r0, r1, r2 = (MultiPoly.from_unipoly(S, r, "t") for r in (spec.r0, spec.r1, spec.r2))
    F = r0 * u**2 * x**2 + r1 * u * x * v * y + r2 * v**2 * y**2
    In = IdealHandle(S, [u**n, v**n, x**n, y**n, F])
    Ln = MultiPoly.from_unipoly(S, big_L(spec, n), "t")
    r0r2 = MultiPoly.from_unipoly(S, spec.r0 * spec.r2, "t")

    cache_In = SliceCache(In)
    # (i) (r0 r2)^{a+b} L_n (ux)^a (vy)^b x^c y^d in I_n over 2a+2b+c+d = 2n
    wit_i = []
    checked_i = 0
    for a in range(n + 1):
        for b in range(n - a + 1):
            rest = 2 * n - 2 * a - 2 * b
            for c in range(rest + 1):
                d = rest - c
                checked_i += 1
                elt = (
                    r0r2 ** (a + b) * Ln
                    * (u * x) ** a * (v * y) ** b * x**c * y**d
                )
                if not cache_In.member(elt):
                    wit_i.append(f"(a,b,c,d)=({a},{b},{c},{d})")
    # (ii) I_n : r0^n r2^n L_n contains every monomial of degree 2n,
    # checked (and witnessed) in ascending lex order
    degree_2n = list(reversed(monomials_of_degree(4, 2 * n)))
    wit_ii = []
    checked_ii = 0
    mult = r0**n * r2**n * Ln
    for exps in degree_2n:
        checked_ii += 1
        m = u ** exps[0] * v ** exps[1] * x ** exps[2] * y ** exps[3]
        if not cache_In.member(m * mult):
            wit_ii.append(format_multipoly(m))
    # (iii) colon stability of J = I_n + (u,v,x,y)^{2n} under random g(t):
    # (J : c*g) == (J : c) for c = (r0 r2)^{2n}, decided for the whole
    # panel by one pass of slice invariants; J contains every monomial of
    # degree 2n, so the degrees below 2n settle it, and there J agrees
    # with I_n: g passes iff it is coprime to T / gcd(T, c), T the torsion
    # exponent of I_n below degree 2n
    rng = random.Random(seed)
    panel = []
    while len(panel) < panel_size:
        g = UniPoly(p, [rng.randrange(p.p) for _ in range(rng.randint(2, 5))])
        if not g.is_zero:
            panel.append(g)
    stable = univariate_colon_trivial_panel(
        cache_In, panel, 2 * n, (spec.r0 * spec.r2) ** (2 * n)
    )
    wit_iii = [format_unipoly(g) for g, ok in zip(panel, stable) if not ok]
    checked_iii = len(panel)
    # (iv) x y^{n-1} P_{n-1} in (x^n, y^n, r0 x^2 + r1 xy + r2 y^2)
    S3 = RingSpec(p, (("t", 0), ("x", 1), ("y", 1)))
    x3, y3 = S3.variable("x"), S3.variable("y")
    r0_3, r1_3, r2_3 = (
        MultiPoly.from_unipoly(S3, r, "t") for r in (spec.r0, spec.r1, spec.r2)
    )
    J3 = IdealHandle(S3, [x3**n, y3**n, r0_3 * x3**2 + r1_3 * x3 * y3 + r2_3 * y3**2])
    elt = x3 * y3 ** (n - 1) * MultiPoly.from_unipoly(S3, p_seq(spec, n - 1), "t")
    iv_ok = SliceCache(J3).member(elt)
    items = (
        SuiteItem("inclusion_b", not wit_i, checked_i, tuple(wit_i)),
        SuiteItem("inclusion_c", not wit_ii, checked_ii, tuple(wit_ii)),
        SuiteItem("colon_stability", not wit_iii, checked_iii, tuple(wit_iii)),
        SuiteItem("three_variable_colon", iv_ok, 1, () if iv_ok else ("x*y^{n-1}*P_{n-1}",)),
    )
    return SuiteReport(spec=spec, n=n, items=items)
