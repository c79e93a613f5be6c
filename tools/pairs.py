"""Run the benchmark on two source trees in alternating pairs and judge a claim.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N
                           --seconds S [--seed0 K] [--out FILE]

PARENT and CHANGE are each a directory or a git revision of this
repository.  A directory is run as it is and labelled by ``git describe
--always --dirty`` in it; a revision is exported with ``git archive`` into a
temporary directory, removed afterwards, and labelled by its short hash.

Pair k runs ``python3 bench/run.py --workload W --seed K+k --seconds S``
once in each tree, one run at a time; the parent goes first in even pairs
and the change in odd ones.  Before the first pair each tree's ``src`` and
``bench`` are byte-compiled, so neither side compiles a module at import
(which would show in its ``setup_s`` and ``peak_rss_mb``).  The result of a
run is the last JSON line it prints.

Prints each pair's ``run_ref``, then for every end-to-end metric that
``BENCHMARK.json`` declares each side's median and quartiles, then the
``run_ref`` win count and the verdict on a gain: the change must win at
least nine tenths of the pairs (ties count for neither) and its median must
be better than the parent's by more than the distance between the parent's
quartiles.  ``--out`` appends the series (seeds, order, every metric of
every run, host) to the ``series`` list of a JSON file, creating it.
Exit code 0 when every run gave a result, 2 when one did not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM = "run_ref"


def end_to_end() -> dict:
    """Each end-to-end metric's name and whether "lower" or "higher" is better."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def quartiles(values) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better: dict) -> dict:
    """Each metric's quartiles on both sides, and the verdict on ``run_ref``.

    ``pairs`` holds one ``{"parent": {metric: value}, "change": {...}}`` per
    pair; ``better`` maps each metric to "lower" or "higher".
    """
    sides = {m: {s: quartiles([p[s][m] for p in pairs]) for s in ("parent", "change")}
             for m in better if all(m in p[s] for p in pairs for s in ("parent", "change"))}
    sign = 1.0 if better[CLAIM] == "lower" else -1.0
    wins = sum(sign * (p["parent"][CLAIM] - p["change"][CLAIM]) > 0.0 for p in pairs)
    q1, parent_median, q3 = sides[CLAIM]["parent"]
    gap = sign * (parent_median - sides[CLAIM]["change"][1])
    return {"quartiles": sides, "wins": wins, "pairs": len(pairs), "gap": gap,
            "iqr": q3 - q1, "gain": 10 * wins >= 9 * len(pairs) and gap > q3 - q1}


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its metric values and operation counts."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py exited {proc.returncode} in {tree}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


def describe(tree: str) -> str:
    """The tree's git commit, marked when its files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def checkout(arg: str, scratch: str, repo: str = ROOT) -> tuple[str, str]:
    """(directory, label) of a PARENT or CHANGE argument: a directory as it
    is, else the git revision ``arg`` of ``repo`` exported into the new
    directory ``scratch``.  Raises ValueError for a revision git cannot
    resolve."""
    if os.path.isdir(arg):
        return arg, describe(arg)
    git = lambda *cmd: subprocess.run(["git", *cmd], cwd=repo, capture_output=True)
    proc = git("rev-parse", "--verify", "--short", f"{arg}^{{commit}}")
    if proc.returncode != 0:
        raise ValueError(f"{arg!r} is neither a directory nor a revision of {repo}")
    label = proc.stdout.decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", label).stdout)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch, label


def host() -> dict:
    import numpy

    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating benchmark pairs of two trees")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", help="JSON file whose series list gets this series")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0.0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    with tempfile.TemporaryDirectory() as scratch:
        try:
            checkouts = {side: checkout(arg, os.path.join(scratch, side))
                         for side, arg in (("parent", args.parent), ("change", args.change))}
        except ValueError as exc:
            ap.error(str(exc))
        return run(args, checkouts)


def run(args, checkouts: dict) -> int:
    """The pairs, the summary and the ``--out`` series; ``checkouts`` maps
    "parent" and "change" to (directory, label)."""
    trees = {side: tree for side, (tree, _) in checkouts.items()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                       cwd=tree, check=True)
    better = end_to_end()
    pairs = []
    try:
        for k in range(args.pairs):
            seed = args.seed0 + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {k + 1:>2} seed {seed:<8} {order[0]:<6} first  "
                  f"{CLAIM} {pair['parent'][CLAIM]:.4g} -> {pair['change'][CLAIM]:.4g}",
                  flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(pairs, better)
    print(f"{'metric':<20}{'parent q1 / median / q3':>32}{'change q1 / median / q3':>32}")
    for name, sides in summary["quartiles"].items():
        print(f"{name:<20}" + "".join(
            f"{' / '.join(f'{v:.4g}' for v in sides[s]):>32}" for s in ("parent", "change")))
    print(f"{CLAIM}: change better in {summary['wins']}/{summary['pairs']} pairs; "
          f"medians {summary['gap']:+.4g} apart (parent IQR {summary['iqr']:.4g}); "
          f"gain {'shown' if summary['gain'] else 'not shown'}")
    if args.out:
        doc = {"series": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["series"].append({
            "workload": args.workload, "seconds": args.seconds,
            "trees": {side: label for side, (_, label) in checkouts.items()},
            "host": host(), "pairs": pairs,
            "summary": {k: v for k, v in summary.items() if k != "quartiles"}})
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
