"""Benchmark of the drinfeld package, measured from outside the program.

Three closed-loop workloads (one client, one request at a time, jobs=1):
atlas, stabilizer and classify; see METRICS.md for what each measures and
why.  Run from the root of a checkout:

    python3 perfbench/run.py --workload stabilizer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

--trace 0 times the workload end to end.  --trace 1 is a separate run that
rebinds the program's public functions to record spans and counts per
layer, runs every request once untraced and once traced, and checks that
both give the same bytes.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS, call_cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 9
SUBMODULES = ("errors", "field", "linalg", "points", "action", "atlas", "verify", "cli")


def fresh_import():
    "Import the drinfeld package anew, so its lazy caches start empty."
    for name in [n for n in sys.modules if n == "drinfeld" or n.startswith("drinfeld.")]:
        del sys.modules[name]
    dr = importlib.import_module("drinfeld")
    for name in SUBMODULES:
        importlib.import_module(f"drinfeld.{name}")
    return dr


def module_map(dr):
    out = {"": dr}
    out.update({name: getattr(dr, name) for name in SUBMODULES})
    return out


def percentile(values, pct):
    "Linear interpolation between closest ranks."
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_percentile(per_pass):
    "The highest percentile with ten requests of one pass beyond it."
    return 100 * (1 - 10 / per_pass)


def tail_window(latencies, passes):
    """Mean of the 6th to 15th slowest requests of each pass: the ten
    requests per pass around tail_percentile.  That single percentile can
    fall between two kinds of request and jump from run to run as their
    order swaps; the mean of the ten around it does not."""
    ranked = sorted(latencies, reverse=True)
    return statistics.fmean(ranked[5 * passes:15 * passes])


def timed_setup(name, inputs, workdir):
    "One set-up on a fresh import: (seconds, workload)."
    gc.collect()
    start = time.perf_counter()
    wl = WORKLOADS[name](fresh_import(), inputs, workdir)
    return time.perf_counter() - start, wl


def serve(wl, req, tag):
    "One request: (seconds, answer or None, errors, points handled)."
    start = time.perf_counter()
    try:
        answer = wl.run(req, tag)
    except Exception as exc:  # noqa: BLE001  (a request that raises is a failure)
        return time.perf_counter() - start, None, [f"uncaught {type(exc).__name__}: {exc}"], 0
    seconds = time.perf_counter() - start
    try:
        errors, points = wl.check(req, answer, tag)
    except Exception as exc:  # noqa: BLE001  (an answer that cannot be parsed is wrong)
        errors, points = [f"answer could not be checked: {type(exc).__name__}: {exc}"], 0
    return seconds, answer, errors, points


def run_timed(name, inputs, workdir, seconds):
    # Set-up is timed SETUP_REPS times: before the timed phase (the last of
    # these serves the requests) and after it, so the median spans the run.
    setup = []
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        dt, wl = timed_setup(name, inputs, workdir)
        setup.append(dt)
    errors = list(inputs["errors"]) + list(getattr(wl, "errors", []))
    gc.collect()
    latencies, points, failed, passes = [], 0, 0, 0
    start = time.perf_counter()
    # Whole passes only, so every run sees the same mix of requests; passes
    # start until --seconds have gone by.
    while True:
        tag = f"p{passes}"
        for req in wl.requests:
            dt, _, errs, pts = serve(wl, req, tag)
            latencies.append(dt)
            if errs:
                failed += 1
                errors.extend(errs)
            points += pts
        errors.extend(wl.end_pass(tag))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    notes = []
    if hasattr(wl, "probe_known_defects"):
        notes, probe_errors = wl.probe_known_defects()
        errors.extend(probe_errors)
    for _ in range(SETUP_REPS // 2):
        setup.append(timed_setup(name, inputs, workdir)[0])
    tail = tail_percentile(len(wl.requests))
    attempted = len(latencies)
    metrics = {
        "points_per_s": (points / sum(latencies), "1/s"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_tail_ms": (tail_window(latencies, passes) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"workload {name}: {passes} passes of {len(wl.requests)} requests in {elapsed:.1f} s",
        *(f"{key:<14} {value:.6g} {unit}" for key, (value, unit) in metrics.items()),
        f"{'failed_ratio':<14} {failed / attempted:.6g} ({failed} of {attempted})",
        f"req_tail_ms is the mean of the 6th to 15th slowest of each pass, {10 * passes} of"
        f" {attempted} requests ({len(wl.requests)} per pass); the single p{tail:.4g}"
        f" it spans is {percentile(latencies, tail) * 1e3:.6g} ms",
        f"setup_s is the median of {SETUP_REPS}, before and after the passes: "
        + " ".join(f"{s:.4f}" for s in setup),
        *notes,
    ]
    return metrics, attempted, failed, errors, lines


# --- traced run ---------------------------------------------------------------


def tiny_run(dr, workdir):
    """A small fixed run that reaches every traced function: one B point at
    (q=2, n+1=3, m=1) through both stabilizer routes, then classify, count and
    strata through the CLI."""
    ctx = dr.field.context_for(2, 1, 3, [1])
    x = dr.points.b_enumerate(ctx, 3, 1)[0]
    group = dr.action.enumerate_pgl(3, ctx)
    brute = dr.action.stabilizer_bruteforce(x, group)
    dr.action.stabilizer_predicted(x, group)
    dr.action.unipotent_elements(brute)
    path = os.path.join(workdir, "selfcheck_point.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dr.points.point_to_obj(x), fh)
    cache = os.path.join(workdir, "selfcheck_cache")
    call_cli(dr, ["classify", "--input", path, "--format", "json"])
    call_cli(dr, ["count", "--variety", "Q", "--n", "1", "--m", "2", "--format", "json",
                  "--cache-dir", cache])
    call_cli(dr, ["strata", "--variety", "Q", "--n", "1", "--m", "2", "--format", "dot",
                  "--cache-dir", cache])


def self_check(dr, workdir):
    """Check the tracer on tiny_run: each traced binding's call count must
    equal the count sys.setprofile sees for the original function, and every
    child span must lie inside its parent."""
    tracer = Tracer(module_map(dr))
    codes = tracer.originals()
    seen = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call":
            stem = codes.get(frame.f_code)
            if stem is not None:
                seen[stem] += 1

    tracer.install()
    sys.setprofile(profile)
    try:
        tiny_run(dr, workdir)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    errors = [
        f"tracer self-check: {stem} counted {tracer.calls[stem]} calls, the profiler {n}"
        for stem, n in seen.items() if tracer.calls[stem] != n
    ]
    errors += [f"tracer self-check: {e}" for e in tracer.nesting_errors()]
    missing = sorted(stem for stem, n in seen.items() if n == 0)
    lines = [f"tracer self-check: {len(seen)} bindings, {sum(seen.values())} calls, "
             f"{len(errors)} mismatches; not reached: {', '.join(missing) or 'none'}"]
    return errors, lines


def field_op_ns(fields, seed):
    """ns per multiply, inverse and inverse Frobenius, averaged over the
    workload's fields.  Inverses run on a fresh context each round, so its
    inverse cache starts empty."""
    rng = random.Random(seed)
    clock = time.perf_counter
    out = {"mul": [], "inverse": [], "inv_frobenius": []}
    for ctx in fields:
        FieldCtx = type(ctx)
        per_round = {key: [] for key in out}
        for _ in range(5):
            fresh = FieldCtx(ctx.p, ctx.e, ctx.D, ctx.modulus)
            n = min(64, ctx.p**ctx.D - 1)
            tails = set()
            while len(tails) < n:
                coeffs = tuple(rng.randrange(ctx.p) for _ in range(ctx.D))
                if any(coeffs):
                    tails.add(coeffs)
            els = [fresh.element(c) for c in sorted(tails)]
            right = els[:16]
            start = clock()
            for a in els:
                for b in right:
                    a * b
            per_round["mul"].append((clock() - start) / (len(els) * len(right)))
            start = clock()
            for a in els:
                a.inverse()
            per_round["inverse"].append((clock() - start) / len(els))
            start = clock()
            for a in els:
                fresh.inv_frobenius(a)
            per_round["inv_frobenius"].append((clock() - start) / len(els))
        for key in out:
            out[key].append(statistics.median(per_round[key]))
    return {key: statistics.fmean(vals) * 1e9 for key, vals in out.items()}


def layer_metrics(agg, overhead_ratio, op_ns):
    """(per-layer metrics for the result line, report-only times) from the
    aggregates of Tracer.per_pass."""
    c, s, t, x, inside = agg["calls"], agg["self_s"], agg["total_s"], agg["extra"], agg["inside"]
    brute_acts = inside[("action.act", "action.stabilizer_bruteforce")]
    metrics = {
        "field.mul_calls": (c["field.mul"], "count"),
        "field.inverse_calls": (c["field.inverse"], "count"),
        "field.frobenius_calls": (c["field.frobenius"], "count"),
        "field.inv_frobenius_calls": (c["field.inv_frobenius"], "count"),
        "field.mul_ns": (op_ns["mul"], "ns"),
        "field.inverse_ns": (op_ns["inverse"], "ns"),
        "field.inv_frobenius_ns": (op_ns["inv_frobenius"], "ns"),
        "field.ctx_builds": (c["field.ctx_build"], "count"),
        "field.ctx_build_s": (t["field.ctx_build"], "s"),
        "linalg.rref_calls": (c["linalg.rref"], "count"),
        "linalg.rref_self_s": (s["linalg.rref"], "s"),
        "linalg.rational_kernel_calls": (c["linalg.rational_kernel"], "count"),
        "linalg.rational_kernel_self_s": (s["linalg.rational_kernel"], "s"),
        "linalg.contains_calls": (c["linalg.contains"] + c["linalg.contains_vector"], "count"),
        "linalg.contains_self_s": (s["linalg.contains"] + s["linalg.contains_vector"], "s"),
        "linalg.all_subspaces_calls": (c["linalg.all_subspaces"], "count"),
        "linalg.all_subspaces_self_s": (s["linalg.all_subspaces"], "s"),
        "linalg.enumerate_flags_calls": (c["linalg.enumerate_flags"], "count"),
        "points.bpoint_inits": (c["points.bpoint_init"], "count"),
        "points.bpoint_init_self_s": (s["points.bpoint_init"], "s"),
        "points.b_classify_calls": (c["points.b_classify"], "count"),
        "points.b_classify_self_s": (s["points.b_classify"], "s"),
        "points.b_from_flag_data_calls": (c["points.b_from_flag_data"], "count"),
        "points.b_validate_calls": (c["points.b_validate"], "count"),
        "points.q_validate_calls": (c["points.q_validate"], "count"),
        "points.q_validate_self_s": (s["points.q_validate"], "s"),
        "points.enumerate_omega_calls": (c["points.enumerate_omega"], "count"),
        "points.point_from_obj_calls": (c["points.point_from_obj"], "count"),
        "action.act_calls": (c["action.act"], "count"),
        "action.bruteforce_calls": (c["action.stabilizer_bruteforce"], "count"),
        "action.fixpoint_check_calls": (c["action.fixpoint_check_omega"], "count"),
        "action.predicted_rational_kernel_calls": (
            inside[("linalg.rational_kernel", "action.stabilizer_predicted")], "count"),
        "action.fix_ratio": (x["stab_sum"] / brute_acts if brute_acts else 0.0, "ratio"),
        "atlas.points_counted": (x["points_counted"], "count"),
        "atlas.cache_hits": (x["cache_hits"], "count"),
        "atlas.cache_misses": (x["cache_misses"], "count"),
        "cli.main_calls": (c["cli.main"], "count"),
        "cli.exit2": (x["exit2"], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    # Times that are exactly 0 on the workloads that do not reach the layer;
    # they go to the trace report and stdout, not to the result line.
    report_only = {
        "linalg.enumerate_flags_self_s": s["linalg.enumerate_flags"],
        "points.b_from_flag_data_self_s": s["points.b_from_flag_data"],
        "points.b_validate_self_s": s["points.b_validate"],
        "points.enumerate_omega_self_s": s["points.enumerate_omega"],
        "points.point_from_obj_self_s": s["points.point_from_obj"],
        "action.act_self_s": s["action.act"],
        "action.bruteforce_s": t["action.stabilizer_bruteforce"],
        "action.predicted_s": t["action.stabilizer_predicted"],
        "action.unipotent_s": t["action.unipotent_elements"],
        "action.enumerate_pgl_s": t["action.enumerate_pgl"],
        "atlas.count_s": t["atlas.count_stratum_points"],
        "atlas.build_self_s": s["atlas.build_atlas"],
        "atlas.export_json_s": x["export_json_s"],
        "atlas.export_dot_s": x["export_dot_s"],
        "cli.main_self_s": s["cli.main"],
    }
    return metrics, report_only


def run_traced(name, inputs, workdir, seconds, seed):
    """Per-layer metrics of the set-up plus one pass.  Each request runs
    untraced and traced, and both answers must be the same bytes.  Passes
    are whole, as in the timed run, and the counts are divided by their
    number, so they compare across versions of the program."""
    errors = list(inputs["errors"])
    errors_check, lines = self_check(fresh_import(), workdir)
    errors.extend(errors_check)
    dr = fresh_import()
    tracer = Tracer(module_map(dr))
    tracer.install()
    try:
        wl = WORKLOADS[name](dr, inputs, workdir)
    finally:
        tracer.uninstall()
    errors.extend(getattr(wl, "errors", []))
    base = tracer.snapshot()
    gc.collect()
    wall = {False: 0.0, True: 0.0}
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        tags = {False: f"u{passes}", True: f"t{passes}"}
        for i, req in enumerate(wl.requests):
            digests, req_errors = {}, []
            # alternate which copy goes first, so neither gets warmer caches
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.request = attempted
                    tracer.install()
                try:
                    dt, answer, errs, _ = serve(wl, req, tags[traced])
                finally:
                    tracer.uninstall()
                wall[traced] += dt
                digests[traced] = None if answer is None else wl.digest(answer)
                req_errors.extend(errs)
            attempted += 1
            if req_errors:
                failed += 1
                errors.extend(req_errors)
            if digests[False] != digests[True]:
                errors.append(f"request {attempted}: traced and untraced answers differ")
        for tag in tags.values():
            errors.extend(wl.end_pass(tag))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    errors.extend(tracer.nesting_errors())
    op_ns = field_op_ns(list(wl.fields.values()), seed)
    metrics, report_only = layer_metrics(tracer.per_pass(base, passes), wall[True] / wall[False],
                                         op_ns)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.json")
    report = {key: value for key, (value, _) in metrics.items()}
    report.update(report_only)
    tracer.write(trace_path, report)
    lines += [
        f"workload {name} traced: {passes} passes of {len(wl.requests)} requests, each run"
        f" untraced and traced, in {elapsed:.1f} s; figures are set-up plus one pass",
        *(f"{key:<40} {value:.6g} {unit}" for key, (value, unit) in metrics.items()),
        *(f"{key:<40} {value:.6g} s (report only)" for key, value in report_only.items()),
        f"spans: {tracer.spans_total} recorded, {len(tracer.span_start)} kept, written to "
        f"{os.path.relpath(trace_path, ROOT)}",
    ]
    return metrics, attempted, failed, errors, lines


# --- command line -------------------------------------------------------------


def generate(name, seed, workdir):
    "Run the input generator in its own process."
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", name, "--seed", str(seed),
         "--out", workdir, "--src", SRC],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generator failed:\n{proc.stderr.strip()}")
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args):
    "Each workload in its own process, one after the other."
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600,
        )
        code = code or proc.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drinfeld", "__init__.py")):
        print(f"error: no drinfeld package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = generate(args.workload, args.seed, workdir)
        sys.path.insert(0, SRC)
        if args.trace:
            result = run_traced(args.workload, inputs, workdir, args.seconds, args.seed)
        else:
            result = run_timed(args.workload, inputs, workdir, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    metrics, attempted, failed, errors, lines = result
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more failed checks", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": round(value) if unit == "count" else value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
