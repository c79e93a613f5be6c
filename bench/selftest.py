"""Self-test of the benchmark's tracer and metric names.

    python3 bench/selftest.py [--seed N] [workload ...]

For each workload (default: all) it makes two traced runs with one seed and
checks that:

* every ``.calls`` count is exactly equal between the two runs;
* on ``verify`` the hot counts the tracer must see through from-imports
  (``first_derivative``, ``apply_euler_op``, ``wigner_d``,
  ``a_field_closed``, ``forward``) are nonzero;
* on ``sweep`` and ``export`` every ``opcalc`` count is exactly 0;
* the traced metrics are exactly the ``per_layer`` entries of
  ``BENCHMARK.json``, with their units.

It also makes one short untraced run per workload and checks its metrics
against the ``end_to_end`` entries.  A traced ``verify`` run takes about two
minutes on a 2-core machine.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def bench_run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")

    for name in args.workloads:
        wl = WORKLOADS[name]
        plain = bench_run(name, args.seed, 0)
        check(plain["correct"], f"{name}: untraced run correct")
        check({k: m["unit"] for k, m in plain["metrics"].items()} == declared[0],
              f"{name}: untraced metrics match end_to_end")

        first, second = (bench_run(name, args.seed, 1) for _ in range(2))
        check(first["correct"] and second["correct"], f"{name}: traced runs correct")
        check({k: m["unit"] for k, m in first["metrics"].items()} == declared[1],
              f"{name}: traced metrics match per_layer")
        counts = [{k: m["value"] for k, m in run["metrics"].items() if k.endswith(".calls")}
                  for run in (first, second)]
        check(counts[0] == counts[1], f"{name}: traced counts repeat exactly")
        for fn in wl.hot:
            check(counts[0][f"{fn}.calls"] > 0, f"{name}: {fn} counted")
        if wl.idle_layer:
            busy = {k: v for k, v in counts[0].items()
                    if k.startswith(wl.idle_layer + ".") and v != 0}
            check(not busy, f"{name}: every {wl.idle_layer} count is 0 {busy or ''}")

    print(f"{'FAIL' if failures else 'PASS'}  selftest ({len(failures)} failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
