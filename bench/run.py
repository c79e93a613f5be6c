"""Benchmark of the hurwitz library, run from the root of a source checkout.

    python3 bench/run.py --workload {verify,sweep,export} --seed N
                         --seconds S --trace {0,1}

Workloads (defined, with the reason for each, in ``workloads.py``), each a
closed loop with one caller in one single-threaded worker process:

* ``verify``: ``hurwitz verify`` over the default 48-entry suite;
* ``sweep``: every check that makes no finite-difference call, at
  ``samples=2000``;
* ``export``: ``hurwitz fields`` and ``hurwitz separate`` writing JSON lines.

End-to-end metrics (``--trace 0``):

* ``setup_s``: launch of a fresh process until ``import hurwitz`` and the
  first ``harness.resolved_conventions()`` are done; median of nine
  processes spread over the run;
* ``run_ref``: mean time of one pass of the workload body, in ``ref``: the
  mean time of the fixed reference kernel that ``hostspeed`` samples all
  through the same passes, so that drift in the speed of a shared host
  cancels;
* ``records_per_ref``: report records (verify, sweep) or JSON-lines data
  records (export) per ``ref`` of pass time;
* ``tol_headroom_min`` / ``tol_headroom_mean``: log10(tolerance/residual)
  per record (log10(value/tolerance) for the two convergence-ratio checks),
  capped at 6 decades; per pass the smallest and the mean, then averaged
  over the workload's fixed first passes;
* ``peak_rss_mb``: peak resident memory of the worker process.

Failed operations (checks, or export calls with a nonzero exit) are the
``failed`` count of the result; ``fail_share`` = failed / attempted is
printed with the table on stderr, below the same times in wall-clock
seconds (``run_s``, ``records_per_s``).  With ``--trace 1`` the
metrics are the per-layer counts and times listed in
``worker.per_layer_units``, and the per-span aggregates go to
``.bench_out/``.

Each run uses a scratch directory inside the checkout, removed afterwards,
and starts workers from ``src/`` with BLAS threads pinned to 1.  The last
line of stdout is one JSON object ``{correct, attempted, failed, metrics}``.
Exit code 0 when a result was printed, nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run(args, tmp: str) -> dict:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        argv += ["--spans-out",
                 os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                          env=child_env(tmp), cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"worker failed during set-up: {line.strip()!r}")
            out, _ = proc.communicate(timeout=t0 + DEADLINE_S - time.perf_counter())
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups = result.pop("setup_samples") + [ready]
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hurwitz benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the worker is stopped and the scratch
    # directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "hurwitz", "__init__.py")):
        print(f"error: no hurwitz sources under {ROOT}/src", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        result = run(args, tmp)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    rows = sorted(result["metrics"].items()) + list(result.pop("wall", {}).items())
    rows.append(("fail_share", {"value": result["failed"] / max(result["attempted"], 1),
                                "unit": "share"}))
    for name, m in rows:
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
