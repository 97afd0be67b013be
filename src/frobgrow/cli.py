"""Command-line front end.

Subcommands: pseq, census, hq, decompose, verify-lemmas, saturate,
witness.  Rings come from named families or JSON ring files; output is
json (canonical machine format), csv, or text.  Exit codes: 0 success,
1 mathematical verification failure, 2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass

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

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    seed: int
    fmt: str
    output: str | None
    no_timings: bool
    budgets: Budgets


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
    if ring_file is not None:
        return load_ring_file(ring_file)
    return family(name, p, seq)


def _factor_text(factors) -> str:
    return " * ".join(
        f"({format_unipoly(f)})^{m}" if m > 1 else f"({format_unipoly(f)})"
        for f, m in factors
    )


def _emit(cfg: RunConfig, payload: dict, csv_rows=None, text_lines=None) -> None:
    if cfg.no_timings:
        payload.pop("timings", None)
    if cfg.fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif cfg.fmt == "csv":
        rows = csv_rows or []
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(text_lines or [json.dumps(payload, indent=2, sort_keys=True)]) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(out)
    else:
        click.echo(out, nl=False)


def _common(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json",
        show_default=True,
    )(fn)
    fn = click.option("--output", type=click.Path(dir_okay=False), default=None)(fn)
    fn = click.option("--no-timings", is_flag=True, default=False)(fn)
    fn = click.option("--budget", "budget_scale", type=float, default=None,
                      help="multiply every budget by this factor")(fn)
    fn = click.option("--gb-pairs", type=int, default=None)(fn)
    fn = click.option("--minor-subsets", type=int, default=None)(fn)
    fn = click.option("--wall-seconds", type=float, default=None)(fn)
    return fn


def _config(seed, fmt, output, no_timings, budget_scale, gb_pairs, minor_subsets,
            wall_seconds) -> RunConfig:
    b = budgets_mod.from_environment()
    if budget_scale is not None:
        b = b.scaled(budget_scale)
    overrides = {
        k: v
        for k, v in (
            ("gb_pairs", gb_pairs),
            ("minor_subsets", minor_subsets),
            ("wall_seconds", wall_seconds),
        )
        if v is not None
    }
    if overrides:
        b = b.override(**overrides)
    return RunConfig(seed=seed, fmt=fmt, output=output, no_timings=no_timings, budgets=b)


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _guard(fn):
    """Translate library errors to documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceeded as exc:
            click.echo(f"budget exhausted: {exc}", err=True)
            sys.exit(EXIT_BUDGET)
        except VerificationError as exc:
            click.echo(f"verification failed: {exc}", err=True)
            sys.exit(EXIT_VERIFICATION)
        except (InputError, FrobgrowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except _Fail as exc:
            click.echo(str(exc), err=True)
            sys.exit(exc.code)

    wrapper.__name__ = fn.__name__
    return wrapper


@click.group()
def main():
    """Exact primary decompositions of Frobenius powers."""


@main.command("pseq")
@click.option("--p", "prime", type=int, required=True)
@click.option("--r", "rspec", type=str, required=True,
              help="r0,r1,r2 as polynomials in t")
@click.option("--n", "n", type=int, required=True)
@_common
@_guard
def cmd_pseq(prime, rspec, n, **opts):
    """Table of P_1..P_n with degrees and factorizations."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    p = PrimeModulus(prime)
    spec = _parse_rspec(p, rspec)
    if n < 0:
        raise InputError("--n must be non-negative")
    rows = []
    for i in range(1, n + 1):
        P = p_seq(spec, i)
        factors = uni_factor(P, cfg.seed) if not P.is_zero else None
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
        "timings": {"seconds": time.monotonic() - t0},
    }
    text = [f"P_{r['n']} = {r['P']} = {r['factors']}" for r in rows]
    _emit(cfg, payload, rows, text)


@main.command("census")
@click.option("--family", "family_name",
              type=click.Choice(["ss5", "ss7", "brenner_monsky"]), default=None)
@click.option("--p", "prime", type=int, required=True)
@click.option("--r", "rspec", type=str, default=None,
              help="raw sequence spec r0,r1,r2 instead of a family")
@click.option("--e", "e_range", type=str, required=True, help="N or N..M")
@_common
@_guard
def cmd_census(family_name, prime, rspec, e_range, **opts):
    """Irreducible-factor census across q = p^e."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    p = PrimeModulus(prime)
    exponents = _parse_e_range(e_range)
    if family_name is None and rspec is None:
        raise InputError("census needs --family or --r")
    labelled = []
    if family_name == "brenner_monsky":
        fam = family("brenner_monsky", p)
        for e in exponents:
            q = PrimePower(p, e)
            cert = compute_hq(fam.ring, q, cfg.budgets.minor_subsets, cfg.seed)
            labelled.append((f"h_{q.q}", cert.h))
    elif family_name in ("ss5", "ss7"):
        fam = family(family_name, p)
        for e in exponents:
            q = PrimePower(p, e)
            if q.q < 2:
                raise InputError("census exponents need q >= 2")
            w = witness_colon(fam, q, cfg.budgets)
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
        factor_census(labelled, cfg.seed).entries, labelled
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
    payload = {
        "command": "census",
        "p": p.p,
        "family": family_name,
        "rows": rows,
        "timings": {"seconds": time.monotonic() - t0},
    }
    text = [
        f"{r['label']}: {r['factors']} (cumulative distinct: "
        f"{r['new_and_old_distinct_irreducibles']})"
        for r in rows
    ]
    _emit(cfg, payload, rows, text)


@main.command("hq")
@click.option("--family", "family_name", type=click.Choice(FAMILY_NAMES), default=None)
@click.option("--ring-file", type=click.Path(exists=False), default=None)
@click.option("--p", "prime", type=int, required=True)
@click.option("--q", "q_value", type=int, required=True)
@_common
@_guard
def cmd_hq(family_name, ring_file, prime, q_value, **opts):
    """Separating-polynomial certificate from the minors construction."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    fam = _resolve_family(family_name, ring_file, prime)
    q = PrimePower.from_value(prime, q_value)
    cert = compute_hq(fam.ring, q, cfg.budgets.minor_subsets, cfg.seed)
    payload = {
        "command": "hq",
        "family": fam.name,
        "certificate": cert.to_json_dict(),
        "timings": {"seconds": time.monotonic() - t0},
    }
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
    _emit(cfg, payload, rows, text)


@main.command("decompose")
@click.option("--family", "family_name", type=click.Choice(FAMILY_NAMES), default=None)
@click.option("--ring-file", type=click.Path(exists=False), default=None)
@click.option("--p", "prime", type=int, required=True)
@click.option("--q", "q_value", type=int, required=True)
@click.option("--h", "h_source", type=str, default="minors", show_default=True,
              help="'minors', 'closed-form', or an explicit polynomial in t")
@click.option("--panel", type=int, default=10, show_default=True,
              help="primary-sanity panel size")
@click.option("--method", type=click.Choice(["auto", "groebner", "certified"]),
              default="auto", show_default=True,
              help="intersection-equality proof route")
@_common
@_guard
def cmd_decompose(family_name, ring_file, prime, q_value, h_source, panel, method,
                  **opts):
    """Stable decomposition of I^[q] with full verification."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    fam = _resolve_family(family_name, ring_file, prime)
    q = PrimePower.from_value(prime, q_value)
    cert = None
    if h_source == "minors":
        cert = compute_hq(fam.ring, q, cfg.budgets.minor_subsets, cfg.seed)
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
        fam, q, h, source, cert, seed=cfg.seed, budgets=cfg.budgets, method=method
    )
    sanity = primary_sanity(report.isolated, panel, cfg.seed, cfg.budgets)
    sanity_all = sanity.passed
    sanity_witness = sanity.witness
    for comp in report.embedded:
        v = primary_sanity(comp, panel, cfg.seed, cfg.budgets)
        if not v.passed and sanity_all:
            sanity_all, sanity_witness = False, v.witness
    payload = {
        "command": "decompose",
        "family": fam.name,
        "report": report.to_json_dict(),
        "primary_sanity": {"passed": sanity_all, "witness": sanity_witness},
        "timings": {"seconds": time.monotonic() - t0},
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
    _emit(cfg, payload, rows, text)
    if not report.intersection_verified:
        raise _Fail(
            EXIT_VERIFICATION,
            f"intersection equality failed (witness: {report.witness})",
        )
    if not report.growth_bound_checked or not sanity_all:
        raise _Fail(EXIT_VERIFICATION, "verification failed; see report")


@main.command("verify-lemmas")
@click.option("--p", "prime", type=int, required=True)
@click.option("--r", "rspec", type=str, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--panel", type=int, default=5, show_default=True)
@_common
@_guard
def cmd_verify_lemmas(prime, rspec, n, panel, **opts):
    """Membership suites behind the inclusion and colon lemmas."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    p = PrimeModulus(prime)
    spec = _parse_rspec(p, rspec)
    report = lemma_membership_suite(spec, n, cfg.seed, panel)
    payload = {
        "command": "verify-lemmas",
        "p": p.p,
        "report": report.to_json_dict(),
        "timings": {"seconds": time.monotonic() - t0},
    }
    rows = [
        {"item": i.name, "passed": i.passed, "checked": i.checked}
        for i in report.items
    ]
    text = [
        f"{i.name}: {'pass' if i.passed else 'FAIL ' + ', '.join(i.witnesses)}"
        f" ({i.checked} checks)"
        for i in report.items
    ]
    _emit(cfg, payload, rows, text)
    if not report.all_pass:
        raise _Fail(EXIT_VERIFICATION, "membership suite failed")


@main.command("saturate")
@click.option("--family", "family_name", type=click.Choice(FAMILY_NAMES), default=None)
@click.option("--ring-file", type=click.Path(exists=False), default=None)
@click.option("--p", "prime", type=int, required=True)
@click.option("--z", "z_expr", type=str, required=True,
              help="the element to saturate by")
@click.option("--q-list", type=str, required=True, help="comma-separated q values")
@_common
@_guard
def cmd_saturate(family_name, ring_file, prime, z_expr, q_list, **opts):
    """Stabilization exponents N_q of I^[q] : z^infinity."""
    cfg = _config(**opts)
    t0 = time.monotonic()
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
    results, ratio = saturation_growth(fam, z, qs, cfg.budgets)
    rows = [{"q": q.q, "N_q": n} for q, n in results]
    payload = {
        "command": "saturate",
        "family": fam.name,
        "z": z_expr,
        "rows": rows,
        "max_ratio": ratio,
        "timings": {"seconds": time.monotonic() - t0},
    }
    text = [f"q = {r['q']}: N_q = {r['N_q']}" for r in rows] + [
        f"max N_q / q = {ratio}"
    ]
    _emit(cfg, payload, rows, text)


@main.command("witness")
@click.option("--family", "family_name", type=click.Choice(["ss5", "ss7"]), required=True)
@click.option("--p", "prime", type=int, required=True)
@click.option("--q", "q_value", type=int, required=True)
@click.option("--method", type=click.Choice(["module", "groebner"]),
              default="module", show_default=True,
              help="contraction route for the colon ideal")
@_common
@_guard
def cmd_witness(family_name, prime, q_value, method, **opts):
    """The k[t]-contraction of the witness colon; checked against P_{q-2}."""
    cfg = _config(**opts)
    t0 = time.monotonic()
    fam = family(family_name, prime)
    q = PrimePower.from_value(prime, q_value)
    w = witness_colon(fam, q, cfg.budgets, method=method)
    expected = p_seq(fam.seq, q.q - 2).monic()
    matches = w == expected
    payload = {
        "command": "witness",
        "family": fam.name,
        "q": q.q,
        "generator": format_unipoly(w),
        "expected_P": format_unipoly(expected),
        "matches": matches,
        "timings": {"seconds": time.monotonic() - t0},
    }
    rows = [{"q": q.q, "generator": format_unipoly(w), "matches": matches}]
    text = [
        f"(I^[{q.q}] : witness) contracted to k[t] = ({format_unipoly(w)})",
        f"P_{q.q - 2} = {format_unipoly(expected)}",
        f"match: {matches}",
    ]
    _emit(cfg, payload, rows, text)
    if not matches:
        raise _Fail(EXIT_VERIFICATION, "witness generator differs from P_{q-2}")


if __name__ == "__main__":
    main()
