"""Command-line front end.

Subcommands: pseq, census, hq, decompose, verify-lemmas, saturate,
witness.  Rings come from named families or JSON ring files; output is
json (canonical machine format), csv, or text.

Each subcommand body is a plain function that returns a Result.  One
runner, `_command`, registers the body with its options (a budgeted
command also takes --budget, --wall-seconds and the override of each
limit it reads), builds the Budgets of a budgeted command (only those
read FROBGROW_BUDGET_SCALE) and runs it within their wall-clock
deadline, times it, writes its output and owns the exit codes: 0
success, 1 mathematical verification failure (a VerificationError, or
a Result whose `failure` is set, reported after the output is written),
2 input error (an InputError or other FrobgrowError, an --output that
cannot be written, or a click usage error), 3 budget exhausted.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from typing import NamedTuple

import click

from . import budgets as budgets_mod
from .budgets import Budgets
from .decomposer import (
    FAMILY_NAMES,
    FamilySpec,
    family,
    lemma_membership_suite,
    primary_sanity,
    saturation_growth,
    ss_hq_closed_form,
    stable_decomposition,
    witness_colon,
)
from .errors import BudgetExceeded, FrobgrowError, InputError, VerificationError
from .fpoly import (
    PrimeModulus,
    PrimePower,
    RingSpec,
    format_unipoly,
    parse_poly,
    parse_unipoly,
    uni_factor,
)
from .groebner import IdealHandle
from .hq import h_q as compute_hq
from .sequences import SequenceSpec, factor_census, p_seq

EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class Result(NamedTuple):
    """What a subcommand body hands the runner."""

    payload: dict  # the json document, without "timings"
    rows: list  # csv rows, one dict each
    text: list  # text lines
    failure: str = ""  # set: printed to stderr after the output, exit 1
    columns: tuple = ()  # csv header when there are no rows


def _parse_e_range(text: str):
    """'2..5' -> [2,3,4,5]; '3' -> [3]."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"bad exponent range {text!r}; expected N or N..M") from None
    if hi < lo:
        raise InputError(f"empty exponent range {text!r}")
    return list(range(lo, hi + 1))


def _parse_rspec(p: PrimeModulus, text: str) -> SequenceSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--r wants three comma-separated polynomials, got {text!r}")
    return SequenceSpec.parse(p, *parts)


def load_ring_file(path: str) -> FamilySpec:
    """JSON ring file: prime, variables [{name, weight}], relations,
    ideal, optional minimal_prime (variable names)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read ring file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"ring file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("ring file must contain a JSON object")
    for key in ("prime", "variables", "ideal"):
        if key not in data:
            raise InputError(f"ring file missing required key {key!r}")
    p = PrimeModulus(data["prime"])
    raw_vars = data["variables"]
    if not isinstance(raw_vars, list) or not raw_vars:
        raise InputError("ring file key 'variables' must be a nonempty list")
    variables = []
    for i, entry in enumerate(raw_vars):
        if not isinstance(entry, dict) or "name" not in entry or "weight" not in entry:
            raise InputError(f"variables[{i}] must be an object with name and weight")
        if type(entry["weight"]) is not int:  # bool is an int subclass
            raise InputError(f"variables[{i}] weight must be the integer 0 or 1")
        variables.append((entry["name"], entry["weight"]))
    relations = _string_list(data, "relations", [])
    ring = RingSpec(p, variables, tuple(relations))
    gens = _string_list(data, "ideal")
    if not gens:
        raise InputError("ring file key 'ideal' must be a nonempty list")
    ideal = IdealHandle(ring, gens)
    minimal_prime = tuple(_string_list(data, "minimal_prime", []))
    return FamilySpec("custom", ring, ideal, None, minimal_prime)


def _string_list(data: dict, key: str, default=None) -> list:
    value = data.get(key, default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"ring file key {key!r} must be a list of strings")
    return value


def _resolve_family(name, ring_file, p, seq=None) -> FamilySpec:
    if (name is None) == (ring_file is None):
        raise InputError("exactly one of --family and --ring-file is required")
    if ring_file is None:
        return family(name, p, seq)
    fam = load_ring_file(ring_file)
    if fam.ring.p.p != p:
        raise InputError(f"ring file prime {fam.ring.p.p} differs from --p {p}")
    return fam


def _factor_text(factors) -> str:
    return " * ".join(
        f"({format_unipoly(f)})^{m}" if m > 1 else f"({format_unipoly(f)})"
        for f, m in factors
    )


def _render(fmt: str, result: Result) -> str:
    if fmt == "json":
        return json.dumps(result.payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        columns = list(result.rows[0].keys()) if result.rows else result.columns
        if columns:
            writer = csv.DictWriter(buf, fieldnames=columns)
            writer.writeheader()
            writer.writerows(result.rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in result.text)


def _write(out: str, path: str | None) -> None:
    if not path:
        click.echo(out, nl=False)
        return
    try:
        with open(path, "w") as fh:
            fh.write(out)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _budgets(budget_scale, **overrides) -> Budgets:
    b = budgets_mod.from_environment()
    if budget_scale is not None:
        b = b.scaled(budget_scale)
    return b.override(**{k: v for k, v in overrides.items() if v is not None})


_OUTPUT_OPTIONS = (
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                 default="json", show_default=True),
    click.option("--output", type=click.Path(dir_okay=False), default=None),
    click.option("--no-timings", is_flag=True, default=False),
)
# every budgeted command takes --budget and --wall-seconds, and the
# override of each limit it reads
_BUDGET_OPTIONS = {
    "budget_scale": click.option("--budget", "budget_scale", type=float, default=None,
                                 help="multiply every budget by this factor"),
    "gb_pairs": click.option("--gb-pairs", type=int, default=None),
    "minor_subsets": click.option("--minor-subsets", type=int, default=None),
    "wall_seconds": click.option("--wall-seconds", type=float, default=None),
}
# the ring of hq, decompose and saturate: a built-in family or a ring file
_RING_OPTIONS = (
    click.option("--family", "family_name", type=click.Choice(FAMILY_NAMES), default=None),
    click.option("--ring-file", type=click.Path(exists=False), default=None),
    click.option("--p", "prime", type=int, required=True),
)


@click.group()
def main():
    """Exact primary decompositions of Frobenius powers."""


def _command(name: str, *options, limits=None):
    """Register a body `(seed, [budgets,] **own options) -> Result` as
    subcommand `name`, with its own options and the output options.  A
    body that takes budgets names the Budgets fields it reads in
    `limits` and gets --budget, --wall-seconds and an override option
    for each of those fields."""
    taken = () if limits is None else ("budget_scale", *limits, "wall_seconds")

    def register(body):
        def run(seed, fmt, output, no_timings, **own):
            t0 = time.monotonic()
            try:
                if limits is None:
                    result = body(seed, **own)
                else:
                    given = {k: own.pop(k) for k in taken}
                    b = _budgets(given.pop("budget_scale"), **given)
                    with budgets_mod.wall_clock(b):
                        result = body(seed, b, **own)
                if not no_timings:
                    result.payload["timings"] = {"seconds": time.monotonic() - t0}
                _write(_render(fmt, result), output)
            except BudgetExceeded as exc:
                click.echo(f"budget exhausted: {exc}", err=True)
                sys.exit(EXIT_BUDGET)
            except VerificationError as exc:
                click.echo(f"verification failed: {exc}", err=True)
                sys.exit(EXIT_VERIFICATION)
            except FrobgrowError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INPUT)
            if result.failure:
                click.echo(result.failure, err=True)
                sys.exit(EXIT_VERIFICATION)

        params = options + _OUTPUT_OPTIONS + tuple(
            o for k, o in _BUDGET_OPTIONS.items() if k in taken
        )
        for option in reversed(params):
            run = option(run)
        return main.command(name, help=body.__doc__)(run)

    return register


@_command(
    "pseq",
    click.option("--p", "prime", type=int, required=True),
    click.option("--r", "rspec", type=str, required=True,
                 help="r0,r1,r2 as polynomials in t"),
    click.option("--n", "n", type=int, required=True),
)
def cmd_pseq(seed, prime, rspec, n):
    """Table of P_1..P_n with degrees and factorizations."""
    p = PrimeModulus(prime)
    spec = _parse_rspec(p, rspec)
    if n < 0:
        raise InputError("--n must be non-negative")
    rows = []
    for i in range(1, n + 1):
        P = p_seq(spec, i)
        factors = uni_factor(P, seed) if not P.is_zero else None
        rows.append(
            {
                "n": i,
                "P": format_unipoly(P),
                "degree": P.degree,
                "factors": _factor_text(factors) if factors is not None else "0",
            }
        )
    payload = {
        "command": "pseq",
        "p": p.p,
        "r0": format_unipoly(spec.r0),
        "r1": format_unipoly(spec.r1),
        "r2": format_unipoly(spec.r2),
        "rows": rows,
    }
    text = [f"P_{r['n']} = {r['P']} = {r['factors']}" for r in rows]
    return Result(payload, rows, text, columns=("n", "P", "degree", "factors"))


@_command(
    "census",
    click.option("--family", "family_name",
                 type=click.Choice(["ss5", "ss7", "brenner_monsky"]), default=None),
    click.option("--p", "prime", type=int, required=True),
    click.option("--r", "rspec", type=str, default=None,
                 help="raw sequence spec r0,r1,r2 instead of a family"),
    click.option("--e", "e_range", type=str, required=True, help="N or N..M"),
    limits=("minor_subsets",),
)
def cmd_census(seed, budgets, family_name, prime, rspec, e_range):
    """Irreducible-factor census across q = p^e."""
    p = PrimeModulus(prime)
    exponents = _parse_e_range(e_range)
    if family_name is None and rspec is None:
        raise InputError("census needs --family or --r")
    labelled = []
    if family_name == "brenner_monsky":
        fam = family("brenner_monsky", p)
        for e in exponents:
            q = PrimePower(p, e)
            cert = compute_hq(fam.ring, q, budgets.minor_subsets, seed)
            labelled.append((f"h_{q.q}", cert.h))
    elif family_name in ("ss5", "ss7"):
        fam = family(family_name, p)
        for e in exponents:
            q = PrimePower(p, e)
            if q.q < 2:
                raise InputError("census exponents need q >= 2")
            w = witness_colon(fam, q, budgets)
            labelled.append((f"witness_{q.q}", w))
    else:
        spec = _parse_rspec(p, rspec)
        for e in exponents:
            q = PrimePower(p, e)
            if q.q < 2:
                raise InputError("census exponents need q >= 2")
            labelled.append((f"P_{q.q - 2}", p_seq(spec, q.q - 2)))
    for label, poly in labelled:
        if poly is None or poly.is_zero:
            raise VerificationError(f"{label} vanished; nothing to census")
    rows = []
    seen = set()
    for (label, factors), (_, poly) in zip(
        factor_census(labelled, seed).entries, labelled
    ):
        seen.update(f for f, _ in factors)
        rows.append(
            {
                "label": label,
                "poly": format_unipoly(poly),
                "factors": _factor_text(factors) or "1",
                "new_and_old_distinct_irreducibles": len(seen),
            }
        )
    payload = {"command": "census", "p": p.p, "family": family_name, "rows": rows}
    text = [
        f"{r['label']}: {r['factors']} (cumulative distinct: "
        f"{r['new_and_old_distinct_irreducibles']})"
        for r in rows
    ]
    return Result(payload, rows, text)


@_command(
    "hq",
    *_RING_OPTIONS,
    click.option("--q", "q_value", type=int, required=True),
    limits=("minor_subsets",),
)
def cmd_hq(seed, budgets, family_name, ring_file, prime, q_value):
    """Separating-polynomial certificate from the minors construction."""
    fam = _resolve_family(family_name, ring_file, prime)
    q = PrimePower.from_value(prime, q_value)
    cert = compute_hq(fam.ring, q, budgets.minor_subsets, seed)
    payload = {"command": "hq", "family": fam.name, "certificate": cert.to_json_dict()}
    rows = [
        {
            "q": q.q,
            "h": format_unipoly(cert.h),
            "s_max": cert.s_max,
            "partial": cert.partial,
        }
    ]
    text = [
        f"h_{q.q} = {format_unipoly(cert.h)}",
        f"s_max = {cert.s_max}, bound constant = {cert.bound_constant}",
        f"minors examined = {cert.minors_examined}"
        + (" (PARTIAL)" if cert.partial else ""),
    ]
    return Result(payload, rows, text)


@_command(
    "decompose",
    *_RING_OPTIONS,
    click.option("--q", "q_value", type=int, required=True),
    click.option("--h", "h_source", type=str, default="minors", show_default=True,
                 help="'minors', 'closed-form', or an explicit polynomial in t"),
    click.option("--panel", type=int, default=10, show_default=True,
                 help="primary-sanity panel size"),
    click.option("--method", type=click.Choice(["auto", "groebner", "certified"]),
                 default="auto", show_default=True,
                 help="intersection-equality proof route"),
    limits=("gb_pairs", "minor_subsets"),
)
def cmd_decompose(seed, budgets, family_name, ring_file, prime, q_value, h_source,
                  panel, method):
    """Stable decomposition of I^[q] with full verification."""
    fam = _resolve_family(family_name, ring_file, prime)
    q = PrimePower.from_value(prime, q_value)
    cert = None
    if h_source == "minors":
        cert = compute_hq(fam.ring, q, budgets.minor_subsets, seed)
        h = cert.h
        source = "minors"
    elif h_source == "closed-form":
        if fam.seq is None:
            raise InputError("closed-form h needs a family with sequence data (ss5)")
        h = ss_hq_closed_form(fam.seq, q)
        source = "closed-form"
    else:
        h = parse_unipoly(h_source, fam.ring.p)
        if h.is_zero:
            raise InputError("h must be nonzero")
        source = "explicit"
    report = stable_decomposition(
        fam, q, h, source, cert, seed=seed, budgets=budgets, method=method
    )
    sanity = primary_sanity(report.isolated, panel, seed, budgets)
    sanity_all = sanity.passed
    sanity_witness = sanity.witness
    for comp in report.embedded:
        v = primary_sanity(comp, panel, seed, budgets)
        if not v.passed and sanity_all:
            sanity_all, sanity_witness = False, v.witness
    payload = {
        "command": "decompose",
        "family": fam.name,
        "report": report.to_json_dict(),
        "primary_sanity": {"passed": sanity_all, "witness": sanity_witness},
    }
    rows = [
        {
            "q": q.q,
            "component": "isolated",
            "tau": "",
            "multiplicity": "",
            "measured_exponent": report.isolated.measured_exponent,
        }
    ] + [
        {
            "q": q.q,
            "component": "embedded",
            "tau": format_unipoly(c.tau[0]),
            "multiplicity": c.tau[1],
            "measured_exponent": c.measured_exponent,
        }
        for c in report.embedded
    ]
    text = [
        f"I^[{q.q}] with h = {format_unipoly(h)} ({source})"
        + (" (PARTIAL)" if cert is not None and cert.partial else ""),
        f"isolated: {len(report.isolated.ideal.generators)} generators, "
        f"exponent {report.isolated.measured_exponent}",
    ]
    for c in report.embedded:
        text.append(
            f"embedded tau = ({format_unipoly(c.tau[0])})^{c.tau[1]}, "
            f"exponent {c.measured_exponent}"
        )
    text.append(
        f"intersection verified: {report.intersection_verified}; "
        f"growth bounds: {report.growth_bound_checked}; "
        f"primary sanity: {sanity_all}"
    )
    if not report.intersection_verified:
        failure = f"intersection equality failed (witness: {report.witness})"
    elif not report.growth_bound_checked or not sanity_all:
        failure = "verification failed; see report"
    else:
        failure = ""
    return Result(payload, rows, text, failure)


@_command(
    "verify-lemmas",
    click.option("--p", "prime", type=int, required=True),
    click.option("--r", "rspec", type=str, required=True),
    click.option("--n", "n", type=int, required=True),
    click.option("--panel", type=int, default=5, show_default=True),
)
def cmd_verify_lemmas(seed, prime, rspec, n, panel):
    """Membership suites behind the inclusion and colon lemmas."""
    p = PrimeModulus(prime)
    spec = _parse_rspec(p, rspec)
    report = lemma_membership_suite(spec, n, seed, panel)
    payload = {"command": "verify-lemmas", "p": p.p, "report": report.to_json_dict()}
    rows = [
        {"item": i.name, "passed": i.passed, "checked": i.checked}
        for i in report.items
    ]
    text = [
        f"{i.name}: {'pass' if i.passed else 'FAIL ' + ', '.join(i.witnesses)}"
        f" ({i.checked} checks)"
        for i in report.items
    ]
    return Result(payload, rows, text, "" if report.all_pass else "membership suite failed")


@_command(
    "saturate",
    *_RING_OPTIONS,
    click.option("--z", "z_expr", type=str, required=True,
                 help="the element to saturate by"),
    click.option("--q-list", type=str, required=True, help="comma-separated q values"),
    limits=("gb_pairs",),
)
def cmd_saturate(seed, budgets, family_name, ring_file, prime, z_expr, q_list):
    """Stabilization exponents N_q of I^[q] : z^infinity."""
    fam = _resolve_family(family_name, ring_file, prime)
    z = parse_poly(z_expr, fam.ring)
    if z.is_zero:
        raise InputError("z must be nonzero")
    try:
        qs = [int(s) for s in q_list.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"bad --q-list {q_list!r}") from None
    if not qs:
        raise InputError("--q-list is empty")
    results, ratio = saturation_growth(fam, z, qs, budgets)
    rows = [{"q": q.q, "N_q": n} for q, n in results]
    payload = {
        "command": "saturate",
        "family": fam.name,
        "z": z_expr,
        "rows": rows,
        "max_ratio": ratio,
    }
    text = [f"q = {r['q']}: N_q = {r['N_q']}" for r in rows] + [
        f"max N_q / q = {ratio}"
    ]
    return Result(payload, rows, text)


@_command(
    "witness",
    click.option("--family", "family_name", type=click.Choice(["ss5", "ss7"]),
                 required=True),
    click.option("--p", "prime", type=int, required=True),
    click.option("--q", "q_value", type=int, required=True),
    click.option("--method", type=click.Choice(["module", "groebner"]),
                 default="module", show_default=True,
                 help="contraction route for the colon ideal"),
    limits=("gb_pairs",),
)
def cmd_witness(seed, budgets, family_name, prime, q_value, method):
    """The k[t]-contraction of the witness colon; checked against P_{q-2}."""
    fam = family(family_name, prime)
    q = PrimePower.from_value(prime, q_value)
    w = witness_colon(fam, q, budgets, method=method)
    expected = p_seq(fam.seq, q.q - 2).monic()
    matches = w == expected
    payload = {
        "command": "witness",
        "family": fam.name,
        "q": q.q,
        "generator": format_unipoly(w),
        "expected_P": format_unipoly(expected),
        "matches": matches,
    }
    rows = [{"q": q.q, "generator": format_unipoly(w), "matches": matches}]
    text = [
        f"(I^[{q.q}] : witness) contracted to k[t] = ({format_unipoly(w)})",
        f"P_{q.q - 2} = {format_unipoly(expected)}",
        f"match: {matches}",
    ]
    return Result(payload, rows, text,
                  "" if matches else "witness generator differs from P_{q-2}")


if __name__ == "__main__":
    main()
