"""frobgrow benchmark: one workload of CLI jobs, closed loop, one process.

    python3 perfbench/run.py --workload certified --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; frobgrow is imported from ./src.  Each
job is the `frobgrow` CLI entry point called in-process with the
arguments a user would type.  Jobs run one at a time; a round is every
job of the workload once.  Rounds repeat until the round boundary
nearest to --seconds (at least two rounds).  Times are CPU times of this
one-thread process, scaled by calibration passes (calibrate.py).  With
--trace 0 every round runs the program untouched and the end-to-end
metrics are printed.  With --trace 1 untraced and traced rounds
alternate and the per-layer metrics are printed (see layertrace.py and
README.md).

After the timed rounds every case's output is checked against values
computed apart from frobgrow (checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 11  # set-ups per run; setup_s is their median

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
from workloads import WORKLOADS, make_cases, round_jobs  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- set-up


def setup(workload: str, seed: int):
    """Import frobgrow afresh and generate the workload's inputs."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("frobgrow", "click"):
            del sys.modules[name]
    import frobgrow.cli

    return frobgrow.cli, make_cases(workload, seed, OUT)


# -- running jobs


def invoke(entry, argv):
    """(exit code, stdout, stderr) of one CLI call in this process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # reported as a failed job, never hidden
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def run_round(entry, jobs, calib):
    """[(CPU seconds, exit code, stdout, stderr, start, wall seconds)] per
    job; runs the calibration passes after each job."""
    gc.collect()
    results = []
    for job in jobs:
        s, c = time.perf_counter(), time.process_time()
        code, out, err = invoke(entry, job.argv(OUT))
        cpu = time.process_time() - c
        results.append((cpu, code, out, err, s, time.perf_counter() - s))
        calib.sample()
    return results


def parse(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def digest(stdout) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def is_partial(case, out) -> bool:
    if out is None:
        return False
    if case.argv[0] == "hq":
        return bool(out["certificate"]["partial"])
    if case.argv[0] == "decompose":
        cert = out["report"]["h_certificate"]
        return bool(cert and cert["partial"])
    return False


# -- metadata


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(SRC, "frobgrow")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# -- per-layer metrics from one traced round


def _gb_pre(tr, args, kwargs):
    ideal = args[0]
    order = (args[1] if len(args) > 1 else kwargs.get("order")) or ideal.ring.default_order
    return order in ideal._cache


def _gb_post(tr, args, result, hit):
    if hit:
        tr.extra["gb_cache_hits"] += 1
    else:
        tr.extra["basis_size"] += len(result)


def _slice_post(tr, args, result, _):
    tr.extra["slice_rows"] += len(args[0].rows)


def _scan_post(tr, args, result, _):
    tr.extra["minors_examined"] += result.examined
    tr.extra["partial_scans"] += int(result.partial)


def _det_post(tr, args, result, _):
    tr.extra["det_nonzero"] += int(not result.is_zero)


HOOKS = {
    "groebner.IdealHandle.groebner_basis": (_gb_pre, _gb_post),
    "ktmodule.DegreeSlice.__init__": (None, _slice_post),
    "hq.minors_lcm": (None, _scan_post),
    "hq.bareiss_det": (None, _det_post),
}

COUNT, SECONDS = "count", "s"


def layer_metrics(tr) -> dict:
    """{per-layer metric name: (value, unit)} of the round just traced."""
    c, s, e, x = tr.calls_of, tr.seconds_in, tr.edge, tr.extra
    m = {f"{layer}.self_s": (tr.layer_self[layer], SECONDS) for layer in tr.layer_self}
    probes = e("decomposer.growth_exponent", "ktmodule.slice_power_containment") + e(
        "decomposer.growth_exponent", "groebner.power_containment"
    )
    builds = c("ktmodule.DegreeSlice.__init__")
    members = c("ktmodule.SliceCache.member")
    examined = x["minors_examined"]
    scan_s = s("hq.minors_lcm")
    m.update({
        "decomposer.growth_exponent_s": (s("decomposer.growth_exponent"), SECONDS),
        "decomposer.growth_probes": (probes, COUNT),
        "decomposer.primary_sanity_s": (s("decomposer.primary_sanity"), SECONDS),
        "decomposer.boundary_reductions": (
            e("decomposer.stable_decomposition", "groebner.normal_form"), COUNT
        ),
        "decomposer.witness_colon_s": (s("decomposer.witness_colon"), SECONDS),
        "decomposer.lemma_suite_s": (s("decomposer.lemma_membership_suite"), SECONDS),
        "ktmodule.slice_builds": (builds, COUNT),
        "ktmodule.slice_build_s": (s("ktmodule.DegreeSlice.__init__"), SECONDS),
        "ktmodule.slice_rows": (x["slice_rows"], COUNT),
        "ktmodule.member_calls": (members, COUNT),
        "ktmodule.member_per_slice": (members / builds if builds else 0.0, "calls/slice"),
        "ktmodule.colon_trivial_calls": (c("ktmodule.DegreeSlice.colon_is_trivial"), COUNT),
        "ktmodule.colon_trivial_s": (s("ktmodule.DegreeSlice.colon_is_trivial"), SECONDS),
        "ktmodule.power_containment_s": (s("ktmodule.slice_power_containment"), SECONDS),
        "groebner.gb_calls": (c("groebner.IdealHandle.groebner_basis"), COUNT),
        "groebner.gb_cache_hits": (x["gb_cache_hits"], COUNT),
        "groebner.gb_s": (s("groebner.IdealHandle.groebner_basis"), SECONDS),
        "groebner.basis_size": (x["basis_size"], COUNT),
        "groebner.normal_form_calls": (c("groebner.normal_form"), COUNT),
        "groebner.normal_form_s": (s("groebner.normal_form"), SECONDS),
        "groebner.intersect_s": (s("groebner.intersect"), SECONDS),
        "groebner.colon_calls": (c("groebner.colon"), COUNT),
        "groebner.colon_s": (s("groebner.colon"), SECONDS),
        "groebner.eliminate_s": (s("groebner.eliminate"), SECONDS),
        "groebner.saturate_s": (s("groebner.saturate"), SECONDS),
        "groebner.power_containment_s": (s("groebner.power_containment"), SECONDS),
        "hq.build_Md_s": (s("hq.build_Md"), SECONDS),
        "hq.minors_examined": (examined, COUNT),
        "hq.det_calls": (c("hq.bareiss_det"), COUNT),
        "hq.det_nonzero": (x["det_nonzero"], COUNT),
        "hq.useful_minor_ratio": (x["det_nonzero"] / examined if examined else 0.0, "ratio"),
        "hq.minors_lcm_s": (scan_s, SECONDS),
        "hq.minors_per_s": (examined / scan_s if scan_s else 0.0, "1/s"),
        "hq.partial_scans": (x["partial_scans"], COUNT),
        "fpoly.uni_factor_calls": (c("fpoly.uni_factor"), COUNT),
        "fpoly.uni_factor_s": (s("fpoly.uni_factor"), SECONDS),
        "fpoly.multipoly_mul_calls": (c("fpoly.MultiPoly.__mul__"), COUNT),
        "kernels.uni_mul_calls": (c("kernels.uni_mul"), COUNT),
        "kernels.uni_divmod_calls": (c("kernels.uni_divmod"), COUNT),
        "kernels.uni_gcd_calls": (c("kernels.uni_gcd"), COUNT),
        "kernels.uni_powmod_calls": (c("kernels.uni_powmod"), COUNT),
    })
    return m


# -- the run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "frobgrow")):
        print(f"no frobgrow sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    log = []  # report lines printed before the result

    calib = calibrate.Calibration()
    setups = []  # (CPU seconds, start, wall seconds)
    for _ in range(SETUPS):
        t0, c0 = time.perf_counter(), time.process_time()
        cli, cases = setup(args.workload, args.seed)
        setups.append((time.process_time() - c0, t0, time.perf_counter() - t0))
        calib.sample(1)

    def cli_main(argv):
        return cli.main.main(argv, standalone_mode=False)

    tracer = None
    if args.trace:
        from layertrace import LAYERS, Tracer

        tracer = Tracer(cli_main, HOOKS)

    # timed rounds, at least two, ending at the round boundary nearest to
    # --seconds; with tracing they alternate untraced, traced, ...
    rounds = []  # (traced, jobs, results)
    traced_metrics = []  # (layer metrics, round start, round seconds)
    spans = None
    calib.sample()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + elapsed / len(rounds) / 2 >= args.seconds:
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        jobs = round_jobs(cases, args.seed, len(rounds))
        r0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                results = run_round(tracer.entry, jobs, calib)
            finally:
                tracer.uninstall()
            traced_metrics.append((layer_metrics(tracer), r0, time.perf_counter() - r0))
            if spans is None:
                spans = tracer.span_dump()
        else:
            results = run_round(cli_main, jobs, calib)
        rounds.append((traced, jobs, results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outputs and checks, outside the timed region
    import checks

    correct = True
    per_case = []
    for i, case in enumerate(cases):
        outs = [r[2][i] for r in rounds]
        first = outs[0]
        payload = parse(first[2])
        digests = {digest(o[2]) for o in outs}
        problems = checks.check(case, first[1], payload)
        if len(digests) > 1:
            problems.append(f"{len(digests)} different outputs across rounds' seeds")
        if case.cross_route:
            job = rounds[0][1][i]
            argv = [a if a != "groebner" else "certified" for a in job.argv(OUT)]
            _, out2, _ = invoke(cli_main, argv)
            problems += checks.check_cross_route(payload, parse(out2))
        failed_rounds = 0
        for o in outs:
            if o[1] != 0 or is_partial(case, parse(o[2])) or problems:
                failed_rounds += 1
        if failed_rounds and not case.known_fault:
            correct = False
        per_case.append((case, [o[0] for o in outs], first, digests, problems,
                         failed_rounds, payload))

    attempted = len(cases) * len(rounds)
    failed = sum(pc[5] for pc in per_case)

    # report
    from frobgrow._kernels import IMPL

    log.append(
        f"meta: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"kernels={IMPL} python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={commit()} src_sha256={source_digest()}"
    )
    log.append(f"rounds: {len(rounds)} ({sum(r[0] for r in rounds)} traced), "
               f"{len(cases)} jobs each; closed loop, one job in flight")
    for i, (case, times, first, digs, problems, nfail, payload) in enumerate(per_case):
        flags = []
        if is_partial(case, payload):
            flags.append("PARTIAL")
        if case.known_fault:
            flags.append("known fault")
        seeds = ",".join(str(r[1][i].seed) for r in rounds)
        log.append(
            f"job: {case.label} --seed {seeds}: median "
            f"{statistics.median(times):.4f} s raw CPU, exit {first[1]}, "
            f"digest {','.join(sorted(digs))}, failed {nfail}/{len(times)}"
            + (f" [{'; '.join(flags)}]" if flags else "")
        )
        for prob in problems:
            log.append(f"  check: {prob}")
        if first[1] != 0 and first[3].strip():
            log.append(f"  stderr: {first[3].strip().splitlines()[-1]}")

    # times in reference seconds (see calibrate.py); each job is timed by
    # the median over the rounds of its scaled times, and wall_s is the sum
    # over the jobs
    log.append(f"calibration: loop median {calib.median():.5f} s over "
               f"{len(calib.passes)} passes; each time below is scaled by "
               f"{calibrate.REFERENCE_S} s / the median pass within "
               f"{calibrate.WINDOW_S:g} s of it")

    def job_times(traced):
        return [
            statistics.median(
                r[2][i][0] * calib.scale(r[2][i][4], r[2][i][5])
                for r in rounds if r[0] == traced
            )
            for i in range(len(cases))
        ]

    untraced = job_times(False)
    wall_s = sum(untraced)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "slowest_job_s": (max(untraced), "s"),
            "median_job_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(c * calib.scale(t, w) for c, t, w in setups), "s"),
        }
    else:
        from kernels_ref import format_rows, reference

        # counts from the first traced round, whose job seeds depend only on
        # the benchmark seed; times are medians over the traced rounds
        # and each round's times are scaled by the passes around that round
        metrics = dict(traced_metrics[0][0])
        scales = [calib.scale(r0, secs) for _, r0, secs in traced_metrics]
        for name, (_, unit) in metrics.items():
            values = [tm[name][0] for tm, _, _ in traced_metrics]
            if unit == SECONDS:
                metrics[name] = (statistics.median(map(operator.mul, values, scales)), unit)
            elif unit == "1/s":
                metrics[name] = (statistics.median(map(operator.truediv, values, scales)),
                                 unit)
        traced_wall = sum(job_times(True))
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        log.append(f"trace: untraced wall {wall_s:.4f} s, traced wall "
                   f"{traced_wall:.4f} s, overhead {traced_wall - wall_s:.4f} s")
        # every job is a cli.main span, so the layers' self times add up to
        # the traced time in the tracer's own clock
        traced_total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        for layer in LAYERS:
            self_s = metrics[f"{layer}.self_s"][0]
            log.append(f"layer: {layer:<10} self {self_s:8.4f} s  "
                       f"share of traced time {100 * self_s / traced_total:5.1f}%")
        ref = reference()
        metrics["kernels.ref_pure_s"] = (
            ref["pure_s"] * calibrate.REFERENCE_S / calib.median(), "s"
        )
        log.append(f"kernels reference ({IMPL} kernels in use):")
        log.extend("  " + line for line in format_rows(ref))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        log.append(f"spans of the first traced round: {os.path.relpath(path, ROOT)} "
                   f"({len(spans['spans'])} spans)")
    for name, (value, unit) in metrics.items():
        log.append(f"metric: {name} = {value:.6g} {unit}")
    log.append(f"attempted {attempted}, failed {failed}, correct {correct}")

    print("\n".join(log))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
