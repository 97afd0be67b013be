"""Checks of the jobs' outputs, computed apart from frobgrow with sympy.

Every check returns a list of problems; an empty list means the output
passed.  Nothing here compares against a stored copy of earlier output:
each expected value is recomputed from its definition (the sequence
recurrence, the closed form, sympy's factorization over F_p, the
matrices M_d, a sympy Groebner basis) or is a property the method
guarantees (exponent bounds, N_q <= q, flags and exit codes).
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import sympy
from sympy import Poly, symbols, sympify

T = symbols("t")

# the built-in families' relations with their default sequence data
# (r0, r1, r2) = (1, t, 1), and the weighted variables
RELATIONS = {
    "katzman": ("x*y*(x-y)*(x-t*y)", ("x", "y")),
    "ss5": ("u^2*x^2 + t*u*x*v*y + v^2*y^2", ("u", "v", "x", "y")),
    "brenner_monsky": (
        "z^4 + z^2*x*y + z*x^3 + z*y^3 + t*x^2*y^2", ("x", "y", "z"),
    ),
}


def upoly(text, p: int) -> Poly:
    return Poly(sympify(str(text).replace("^", "**")), T, modulus=p)


def from_coeffs(coeffs, p: int) -> Poly:
    return Poly(list(reversed(coeffs)), T, modulus=p)


def p_seq(n: int, p: int) -> Poly:
    """P_n of P_0 = 1, P_1 = r1, P_{n+1} = r1 P_n - r0 r2 P_{n-1}, with
    (r0, r1, r2) = (1, t, 1)."""
    r0 = r2 = Poly(1, T, modulus=p)
    r1 = Poly(T, T, modulus=p)
    prev, cur = Poly(1, T, modulus=p), r1
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, r1 * cur - r0 * r2 * prev
    return cur


def closed_form_h(p: int, q: int) -> Poly:
    """r0^{3q} r2^{3q} lcm(P_1..P_{q-1}), made monic, for r0 = r2 = 1."""
    acc = Poly(1, T, modulus=p)
    for i in range(1, q):
        acc = acc.lcm(p_seq(i, p))
    return acc.monic()


def factor_set(h: Poly) -> set:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, factors = h.factor_list()
    return {(tuple(f.monic().all_coeffs()), k) for f, k in factors}


def _factor_problems(h: Poly, factors, p: int, what: str) -> list:
    """factors: [(tau text, multiplicity)] as the program printed them."""
    problems = []
    got = set()
    for tau_text, s in factors:
        tau = upoly(tau_text, p)
        if not tau.is_irreducible:
            problems.append(f"{what}: tau = {tau_text} is not irreducible")
        if tau.LC() != 1:
            problems.append(f"{what}: tau = {tau_text} is not monic")
        got.add((tuple(tau.all_coeffs()), s))
    if got != factor_set(h):
        problems.append(f"{what}: (tau, s) differ from sympy's factor_list(h)")
    return problems


def _weighted_count(family: str) -> int:
    return len(RELATIONS[family][1])


# -- decompose


def check_decompose(case, code, out) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out is None:
        return problems + ["no JSON output"]
    p, q = case.p, case.q
    rep = out["report"]
    if (rep["p"], rep["q"]) != (p, q):
        problems.append("report is for another p or q")
    for flag in ("intersection_verified", "growth_bound_checked"):
        if rep[flag] is not True:
            problems.append(f"{flag} is not true")
    if out["primary_sanity"]["passed"] is not True:
        problems.append("primary sanity did not pass")
    h = upoly(rep["h"], p)
    if "closed-form" in case.argv:
        if h != closed_form_h(p, q):
            problems.append("h differs from r0^{3q} r2^{3q} lcm(P_1..P_{q-1})")
    else:
        cert = rep["h_certificate"]
        if cert is None or cert["partial"]:
            problems.append("minors certificate missing or PARTIAL")
        else:
            problems += _hq_certificate_problems(cert, p, q, case.family)
            if from_coeffs(cert["h_coefficients"], p) != h:
                problems.append("report h differs from its minors certificate")
    embedded = rep["embedded"]
    problems += _factor_problems(
        h, [(c["tau"], c["tau_multiplicity"]) for c in embedded], p, "components"
    )
    n = _weighted_count(case.family)
    for c in embedded:
        e, s = c.get("measured_exponent"), c["tau_multiplicity"]
        if e is None or not 1 <= e <= n * q + s:
            problems.append(f"embedded exponent {e} outside 1..{n * q + s}")
    if not rep["isolated"].get("measured_exponent", 0) >= 1:
        problems.append("isolated component has no growth exponent")
    return problems


def route_summary(out) -> tuple:
    rep = out["report"]
    return (
        rep["h"],
        rep["isolated"].get("measured_exponent"),
        tuple(
            (c["tau"], c["tau_multiplicity"], c.get("measured_exponent"))
            for c in rep["embedded"]
        ),
    )


def check_cross_route(groebner_out, certified_out) -> list:
    """The certified and Groebner routes must give the same h, the same
    components and the same growth exponents."""
    if certified_out is None:
        return ["certified route gave no output"]
    a, b = route_summary(groebner_out), route_summary(certified_out)
    if a != b:
        return [f"groebner route {a} differs from certified route {b}"]
    return []


# -- hq


def _hq_certificate_problems(cert, p: int, q: int, family: str) -> list:
    problems = []
    h = from_coeffs(cert["h_coefficients"], p)
    if upoly(cert["h_text"], p) != h:
        problems.append("h_text and h_coefficients disagree")
    if h.LC() != 1:
        problems.append("h is not monic")
    prod = Poly(1, T, modulus=p)
    for f in cert["factors"]:
        fp = from_coeffs(f["coefficients"], p)
        if upoly(f["poly"], p) != fp:
            problems.append(f"factor {f['poly']} text and coefficients disagree")
        prod = prod * fp ** f["multiplicity"]
    if prod != h:
        problems.append("factors do not multiply back to h")
    problems += _factor_problems(
        h, [(f["poly"], f["multiplicity"]) for f in cert["factors"]], p, "factors"
    )
    s_max = max((f["multiplicity"] for f in cert["factors"]), default=0)
    if cert["s_max"] != s_max:
        problems.append("s_max is not the largest multiplicity")
    n = _weighted_count(family)
    if Fraction(cert["bound_constant"]) != Fraction(s_max, q ** (n - 1)):
        problems.append("bound constant is not s_max / q^(n-1)")
    return problems


def _exps(n: int, total: int) -> list:
    if total < 0:
        return []
    if n == 1:
        return [(total,)]
    return [(e,) + r for e in range(total + 1) for r in _exps(n - 1, total - e)]


def minors_lcm_by_definition(family: str, p: int, q: int) -> Poly:
    """Monic lcm of every nonzero minor of every M_d, 1 <= d <= n(q-1).

    M_d has a row for each exponent vector u with |u| = d and every entry
    below q, a column for each w with |w| = d - deg f, and entry the
    coefficient of x^(u-w) in the relation f.
    """
    rel, names = RELATIONS[family]
    xs = symbols(names)
    f = Poly(sympify(rel.replace("^", "**")), *xs)
    deg = f.total_degree()
    coeff = dict(f.terms())
    n = len(xs)
    acc = Poly(1, T, modulus=p)
    for d in range(1, n * (q - 1) + 1):
        rows = [u for u in _exps(n, d) if max(u) < q]
        cols = _exps(n, d - deg)
        M = [
            [
                coeff.get(tuple(a - b for a, b in zip(u, w)), 0)
                if all(a >= b for a, b in zip(u, w))
                else 0
                for w in cols
            ]
            for u in rows
        ]
        for k in range(1, min(len(rows), len(cols)) + 1):
            for R in itertools.combinations(range(len(rows)), k):
                for C in itertools.combinations(range(len(cols)), k):
                    det = sympy.Matrix([[M[r][c] for c in C] for r in R]).det(
                        method="berkowitz"
                    )
                    minor = Poly(det, T, modulus=p)
                    if not minor.is_zero:
                        acc = acc.lcm(minor)
    return acc.monic()


def check_hq(case, code, out) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out is None:
        return problems + ["no JSON output"]
    cert = out["certificate"]
    if (cert["p"], cert["q"]) != (case.p, case.q):
        problems.append("certificate is for another p or q")
    if cert["partial"]:
        problems.append(
            f"PARTIAL certificate after {cert['minors_examined']} minors"
        )
    problems += _hq_certificate_problems(cert, case.p, case.q, case.family)
    if case.minors_by_definition and not cert["partial"]:
        h = from_coeffs(cert["h_coefficients"], case.p)
        if minors_lcm_by_definition(case.family, case.p, case.q) != h:
            problems.append("h differs from the lcm of the minors of the M_d")
    return problems


# -- witness, saturate, verify-lemmas


def check_witness(case, code, out) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out is None:
        return problems + ["no JSON output"]
    expected = p_seq(case.q - 2, case.p).monic()
    if upoly(out["generator"], case.p) != expected:
        problems.append("generator differs from P_{q-2} of the recurrence")
    if upoly(out["expected_P"], case.p) != expected:
        problems.append("expected_P differs from P_{q-2} of the recurrence")
    if out["matches"] is not True:
        problems.append("matches is not true")
    return problems


def check_saturate(case, code, out) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out is None:
        return problems + ["no JSON output"]
    rows = out["rows"]
    if [r["q"] for r in rows] != case.extra["q_list"]:
        problems.append("rows are not the requested q values")
    for r in rows:
        if not (isinstance(r["N_q"], int) and 0 <= r["N_q"] <= r["q"]):
            problems.append(f"N_q = {r['N_q']} outside 0..q for q = {r['q']}")
    ratio = max((Fraction(r["N_q"], r["q"]) for r in rows), default=Fraction(0))
    if not math.isclose(out["max_ratio"], float(ratio)):
        problems.append("max_ratio is not the largest N_q / q")
    return problems


def check_verify_lemmas(case, code, out) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out is None:
        return problems + ["no JSON output"]
    rep = out["report"]
    n, p = case.extra["n"], case.p
    if rep["all_pass"] is not True:
        problems.append("all_pass is not true")
    # (i) ranges over a + b <= n and c <= 2n - 2a - 2b; (ii) over the
    # degree-2n monomials in four variables
    expected = {
        "inclusion_b": sum((k + 1) * (2 * n - 2 * k + 1) for k in range(n + 1)),
        "inclusion_c": math.comb(2 * n + 3, 3),
        "colon_stability": case.extra["panel"],
        "three_variable_colon": 1,
    }
    items = {i["name"]: i for i in rep["items"]}
    if set(items) != set(expected):
        problems.append(f"suite items {sorted(items)}")
    for name, count in expected.items():
        item = items.get(name)
        if item is None:
            continue
        if item["passed"] is not True:
            problems.append(f"{name} failed")
        if item["checked"] != count:
            problems.append(f"{name} checked {item['checked']}, expected {count}")
    # the three-variable colon fact, by a sympy Groebner basis over F_p
    x, y = symbols("x y")
    G = sympy.groebner(
        [x**n, y**n, x**2 + T * x * y + y**2], T, x, y, modulus=p, order="grevlex"
    )
    if not G.contains(x * y ** (n - 1) * p_seq(n - 1, p).as_expr()):
        problems.append("sympy finds x*y^(n-1)*P_(n-1) outside the ideal")
    return problems


CHECKS = {
    "decompose": check_decompose,
    "hq": check_hq,
    "witness": check_witness,
    "saturate": check_saturate,
    "verify-lemmas": check_verify_lemmas,
}


def check(case, code, out) -> list:
    return CHECKS[case.argv[0]](case, code, out)
