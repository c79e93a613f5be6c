"""Compare what two source trees report and export, pair by pair.

    python3 tools/gate.py PARENT_TREE CHANGE_TREE [--out DIR]

Each tree is a directory or a git revision of this repository; a revision
is exported by ``tools/pairs.py``'s ``checkout`` into a temporary
directory, removed afterwards.  For each tree one child process
(``PYTHONPATH=TREE/src``) writes

* ``hurwitz verify`` reports of the default suite at seeds 1729, 201 and 7;
* sweep reports, ``run_suite(sweep_config(s), only=SWEEP_IDS)`` with the
  tree's own ``bench/workloads.py``, at seeds 201, 1000204 and 5;
* ``hurwitz fields`` (cases A/B x shell/box/point regions x seeds 1/7/201
  at n = 300, and one shell export per case at n = 5,000, which spans
  three of the command's 2,048-record write blocks) and ``hurwitz
  separate`` (J 0..3 x cases A/B x two branches x three base points, off
  both singular half-axes, the first at p = 0 and the others at p = -J
  and p = J) outputs, with everything the commands print.

Before a command runs, its output path is filled with 256 kB of filler,
longer than every output but the two 5,000-record exports, so a command
that rewrites a file and leaves a stale tail fails the comparison.

Each verify pair must then pass ``tools/reportdiff.py`` in drift mode
(its default bound, 0.5 decades), each sweep pair ``--exact``, and the
export files must be byte-identical.  One line per pair (``ERROR`` when a
report cannot be read); a verify line ends in ``exact`` when the two
reports' digests are also equal, else in ``digests differ``.  Exit code 0
when every pair passes, 1 when one fails, 2 when an argument is neither a
directory nor a revision or a tree cannot be run.
The outputs go to ``--out`` (kept) or to a temporary directory (removed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY_SEEDS = (1729, 201, 7)
SWEEP_SEEDS = (201, 1000204, 5)
FIELDS_REGIONS = ("shell:0.5,2.0", "box:-2,2", "point:0.4,-0.7,0.2,0.5,0.3")
FIELDS_SEEDS = (1, 7, 201)
SEPARATE_POINTS = ("0.4,-0.7,0.2,0.5,0.3", "-1.1,0.3,0.8,-0.2,-0.6",
                   "0.9,1.2,-0.4,0.6,-1.5")
SEPARATE_BRANCHES = ("alternating", "m=1")


def filled(path: str) -> str:
    """``path``, after writing 256 kB of filler to it: a command that
    rewrites a file and leaves part of a longer old one behind then fails
    the byte comparison, which a fresh path could not show."""
    with open(path, "wb") as fh:
        fh.write(b"~" * 256 * 1024)
    return path


def write_outputs(out: str) -> None:
    """Write this interpreter's reports and exports into ``out`` (run in the
    child process, with the tree's ``src`` and ``bench`` on the path); each
    command's output path holds :func:`filled`'s filler before it runs."""
    import workloads
    from hurwitz import cli, harness

    os.makedirs(os.path.join(out, "export"))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for s in VERIFY_SEEDS:
            cli.main(["verify", "--seed", str(s),
                      "--json", filled(os.path.join(out, f"verify_{s}.json"))])
        for s in SWEEP_SEEDS:
            report = harness.run_suite(workloads.sweep_config(s),
                                       only=list(workloads.SWEEP_IDS))
            with open(os.path.join(out, f"sweep_{s}.json"), "w") as fh:
                fh.write(report.to_json())
        for case in "AB":
            for i, region in enumerate(FIELDS_REGIONS):
                for s in FIELDS_SEEDS:
                    path = os.path.join(out, "export", f"fields_{case}_{i}_{s}.jsonl")
                    cli.main(["fields", "--case", case, "-n", "300", "--region", region,
                              "--seed", str(s), "--out", filled(path)])
            path = os.path.join(out, "export", f"fields_{case}_large.jsonl")
            cli.main(["fields", "--case", case, "-n", "5000", "--region", FIELDS_REGIONS[0],
                      "--seed", "1", "--out", filled(path)])
            for J in range(4):
                for k, branch in enumerate(SEPARATE_BRANCHES):
                    for i, (point, p) in enumerate(zip(SEPARATE_POINTS, (0, -J, J))):
                        path = os.path.join(out, "export",
                                            f"separate_{case}_{J}_{k}_{i}.jsonl")
                        cli.main(["separate", "--j", str(J), f"--p={p}", "--case", case,
                                  f"--point={point}", "--branch", branch,
                                  "--out", filled(path)])
    with open(os.path.join(out, "export", "stdout.txt"), "w") as fh:
        fh.write("\n".join(line for line in printed.getvalue().splitlines()
                           if not line.startswith(("PASS", "FAIL"))))


def run_tree(tree: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--write", out],
                   env=env, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def compare_exports(old: str, new: str) -> list[str]:
    names = sorted(os.listdir(old))
    if names != sorted(os.listdir(new)):
        return ["the two trees wrote different export files"]
    problems = []
    for name in names:
        with open(os.path.join(old, name), "rb") as a:
            with open(os.path.join(new, name), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{name} differs")
    return problems


def compare(out_old: str, out_new: str) -> bool:
    # imported here: it puts this checkout's src and bench on the path,
    # which the child processes must not see
    sys.path.insert(0, HERE)
    import reportdiff

    ok = True
    pairs = [(f"verify_{s}.json", False) for s in VERIFY_SEEDS]
    pairs += [(f"sweep_{s}.json", True) for s in SWEEP_SEEDS]
    for name, exact in pairs:
        try:
            digests, _, problems, verdict = reportdiff.compare(
                os.path.join(out_old, name), os.path.join(out_new, name), exact)
        except reportdiff.UNREADABLE as exc:
            ok = False
            print(f"{name:<22} ERROR error: {exc}")
            continue
        ok &= not problems
        same = digests[0] == digests[1]
        suffix = "" if exact else ("; exact" if same else "; digests differ")
        print(f"{name:<22} {verdict}{suffix}")
        for p in problems:
            print(f"    FAIL  {p}")
    problems = compare_exports(os.path.join(out_old, "export"),
                               os.path.join(out_new, "export"))
    n = len(os.listdir(os.path.join(out_old, "export")))
    status = (f"FAIL  {'; '.join(problems)}" if problems
              else f"PASS  {n} files byte-identical")
    print(f"{'exports':<22} {status}")
    return ok and not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two trees' reports and exports")
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--out", help="keep the outputs in this directory")
    ap.add_argument("--write", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write:
        write_outputs(args.write)
        return 0
    if len(args.trees) != 2:
        ap.error("give PARENT_TREE and CHANGE_TREE")
    sys.path.insert(0, HERE)
    import pairs  # the one git-revision export, shared with the benchmark pairs

    # absolute: each child runs with its tree as the working directory
    out = os.path.abspath(args.out or tempfile.mkdtemp(prefix="hurwitz-gate-"))
    dirs = [os.path.join(out, tag) for tag in ("parent", "change")]
    try:
        with tempfile.TemporaryDirectory(prefix="hurwitz-gate-trees-") as scratch:
            for arg, d in zip(args.trees, dirs):
                try:
                    tree, _ = pairs.checkout(arg, os.path.join(scratch, os.path.basename(d)))
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                shutil.rmtree(d, ignore_errors=True)
                try:
                    run_tree(os.path.abspath(tree), d)
                except (OSError, subprocess.CalledProcessError) as exc:
                    print(f"error: {arg}: {exc}", file=sys.stderr)
                    return 2
        return 0 if compare(*dirs) else 1
    finally:
        if not args.out:
            shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
