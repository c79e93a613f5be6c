"""One benchmark process: set up hurwitz, run one workload, print the result.

Started by ``run.py`` in a fresh process per run.  It prints ``ready`` once
``hurwitz`` is imported and ``harness.resolved_conventions()`` has run (the
set-up ``run.py`` times from process start), then, unless ``--setup-only``,
runs the workload and prints one JSON line of metrics.

Untraced (``--trace 0``): passes run back to back until ``--seconds`` have
elapsed (no pass starts that would overrun by more than half its length) and
at least the workload's ``min_passes`` are done, while ``hostspeed`` samples
its reference kernel; times are reported in units of that kernel's mean time.

Traced (``--trace 1``): ``min_passes`` untraced passes, the same passes
again under the tracer, then one untraced ``run_suite(cfg, only=[id])``
call per check group of the workload.  The set-up call is traced too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl_mod
from hostspeed import HostSpeed
from hurwitz import harness
from tracer import LAYERS, Tracer

TRACED_FUNCTIONS = (
    "opcalc.first_derivative", "opcalc.second_derivative",
    "opcalc.apply_euler_op", "opcalc.wirtinger_gradients",
    "separation.wigner_d", "separation.wigner", "separation.build_h",
    "separation.coefficients", "separation.separation_roots",
    "separation.det_bisection_roots",
    "gauge.a_field_closed", "gauge.a_field_numeric", "gauge.b_functions",
    "transform.forward", "transform.extra_angles", "transform.fiber_section",
    "harness.fields_cmd", "harness.separate_cmd", "harness.sample_xi",
    "cli.main",
)
# The ROADMAP's per-call primitives; first_derivative is one stencil.
PRIMITIVES = (
    "transform.forward", "transform.extra_angles", "transform.fiber_section",
    "gauge.a_field_closed", "gauge.a_field_numeric", "separation.wigner_d",
    "opcalc.apply_euler_op", "opcalc.first_derivative",
)
END_TO_END_UNITS = {
    "run_ref": "ref", "records_per_ref": "1/ref", "tol_headroom_min": "decades",
    "tol_headroom_mean": "decades", "peak_rss_mb": "MB",
}
SETUP_PROBES = 8  # plus the worker's own set-up, timed by run.py
CHECK_GROUPS = [head for head, _ in wl_mod.prefix_groups(wl_mod.REGISTRY_IDS)]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in PRIMITIVES:
        units[f"{fn}.us_per_call_traced"] = "us"
    for head in CHECK_GROUPS:
        units[f"harness.check_s.{head}"] = "s"
    units["trace_overhead_s"] = "s"
    units["run_s"] = "s"
    units["records_per_s"] = "1/s"
    return units


def one_pass(wl, seed: int, tmp: str, span) -> wl_mod.Outcome:
    t0 = wl_mod.clock()
    try:
        out = wl.run(seed, tmp, span)
    except Exception as exc:  # a raising pass counts all its operations failed
        traceback.print_exc()
        out = wl_mod.Outcome(seconds=wl_mod.clock() - t0, attempted=wl.ops,
                             failed=wl.ops, problems=[repr(exc)])
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def time_setup() -> float:
    """Seconds from launching a fresh ``--setup-only`` worker until it is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--setup-only"],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def run_passes(wl, seed, tmp, span, seconds=0.0, probes=0, speed=None):
    """Closed loop of passes; ``probes`` set-up timings are spread over it.

    On a shared host, load from other tenants slows work in phases of
    several seconds, so the set-up probes run at even intervals between
    passes, not back to back.  ``speed``, if given, samples the host's speed
    during the passes and is paused while a set-up probe runs.
    """
    outcomes, setups = [], []
    due = [i * seconds / probes for i in range(probes)]

    def probe():
        if speed:
            speed.pause()
        setups.append(time_setup())
        if speed:
            speed.start()

    start = time.perf_counter()
    if speed:
        speed.start()
    try:
        while (len(outcomes) < wl.min_passes
               or time.perf_counter() - start + outcomes[-1].seconds / 2 < seconds):
            while due and time.perf_counter() - start >= due[0]:
                due.pop(0)
                probe()
            outcomes.append(one_pass(wl, wl_mod.derived_seed(seed, len(outcomes)), tmp, span))
        for _ in due:
            probe()
    finally:
        if speed:
            speed.stop()
    return outcomes, setups


def _tally(outcomes, problems) -> dict:
    for o in outcomes:
        problems.extend(o.problems)
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
    }


def untraced_metrics(wl, seed, tmp, seconds, problems) -> tuple[dict, dict]:
    """End-to-end metrics of one closed-loop run.

    Times are in ``ref``, the mean time of the host-speed reference kernel
    sampled through the same passes: on a shared host the speed a run gets
    drifts by 20-40% in phases longer than a run, which moved wall-clock
    figures by that much between runs, while the kernel slows with the
    workload.  ``run_ref`` is the mean pass time, ``records_per_ref`` the
    records of all passes over their time.  The headroom figures are means
    over the first ``min_passes`` passes, a fixed set of inputs for a given
    seed, of each pass's smallest and mean per-record headroom; the peak
    resident memory is read when those passes are done.  The same times in
    wall-clock seconds go under ``wall``, for the log.
    """
    speed = HostSpeed()
    wl_mod.clock = speed.clock
    try:
        outcomes, setups = run_passes(wl, seed, tmp, contextlib.nullcontext, seconds,
                                      SETUP_PROBES, speed)
    finally:
        wl_mod.clock = time.perf_counter
    first = outcomes[: wl.min_passes]
    floor = -wl_mod.HEADROOM_CAP
    ref = speed.ref_s()
    run_s = statistics.fmean(o.seconds for o in outcomes)
    records_per_s = sum(o.records for o in outcomes) / sum(o.seconds for o in outcomes)
    metrics = {
        "run_ref": run_s / ref,
        "records_per_ref": records_per_s * ref,
        "tol_headroom_min": statistics.fmean(
            min(o.headroom, default=floor) for o in first),
        "tol_headroom_mean": statistics.fmean(
            statistics.fmean(o.headroom) if o.headroom else floor for o in first),
        "peak_rss_mb": first[-1].peak_rss_mb,
    }
    wall = {"run_s": (run_s, "s"), "records_per_s": (records_per_s, "1/s"),
            "ref_s": (ref, "s"), "passes": (len(outcomes), "count"),
            "ref_samples": (len(speed.samples), "count")}
    return metrics, {**_tally(outcomes, problems), "setup_samples": setups,
                     "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()}}


def traced_metrics(wl, seed, tmp, tracer, problems) -> tuple[dict, dict]:
    plain, _ = run_passes(wl, seed, tmp, contextlib.nullcontext)
    with tracer.active():
        traced, _ = run_passes(wl, seed, tmp, tracer.span)
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest:
            problems.append(f"pass {k}: traced output differs from untraced")

    check_s = {}
    if wl.checks:
        make_cfg, ids = wl.checks
        cfg = make_cfg(seed)
        for head, members in wl_mod.prefix_groups(ids):
            t0 = time.perf_counter()
            report = harness.run_suite(cfg, only=[head])
            dt = time.perf_counter() - t0
            problems.extend(wl_mod.suite_outcome(report.to_dict(), members, dt).problems)
            check_s[head] = dt

    totals = tracer.totals()
    zero = (0, 0.0, 0.0)
    metrics = {}
    for layer in LAYERS:
        recs = [v for k, v in totals.items() if k.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(r[0] for r in recs)
        metrics[f"{layer}.self_s"] = sum(r[2] for r in recs)
    for fn in TRACED_FUNCTIONS:
        calls, _, self_s = totals.get(fn, zero)
        metrics[f"{fn}.calls"] = calls
        metrics[f"{fn}.self_s"] = self_s
    for fn in PRIMITIVES:
        calls, incl, _ = totals.get(fn, zero)
        metrics[f"{fn}.us_per_call_traced"] = incl / calls * 1e6 if calls else 0.0
    for head in CHECK_GROUPS:
        metrics[f"harness.check_s.{head}"] = check_s.get(head, 0.0)
    metrics["trace_overhead_s"] = (
        statistics.median(o.seconds for o in traced)
        - statistics.median(o.seconds for o in plain))
    metrics["run_s"] = statistics.median(o.seconds for o in plain)
    metrics["records_per_s"] = (sum(o.records for o in plain)
                                / sum(o.seconds for o in plain))

    for fn in wl.hot:
        if not totals.get(fn, zero)[0]:
            problems.append(f"{fn} was never called")
    if wl.idle_layer and metrics[f"{wl.idle_layer}.calls"]:
        problems.append(f"{wl.idle_layer} was called")
    return metrics, _tally(plain + traced, problems)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(wl_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", help="scratch directory for the workload's files")
    ap.add_argument("--spans-out", help="write the traced per-span aggregates here")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.active(), tracer.span("setup"):
            harness.resolved_conventions()
    else:
        harness.resolved_conventions()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wl = wl_mod.WORKLOADS[args.workload]
    problems: list[str] = []
    if tracer:
        metrics, counts = traced_metrics(wl, args.seed, args.tmp, tracer, problems)
        units = per_layer_units()
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({k: v for k, v in tracer.spans.items() if v}, fh,
                          indent=1, sort_keys=True)
    else:
        metrics, counts = untraced_metrics(wl, args.seed, args.tmp, args.seconds, problems)
        units = END_TO_END_UNITS
    result = {
        "correct": not problems and counts["failed"] == 0,
        **counts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
