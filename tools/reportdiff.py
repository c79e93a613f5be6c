"""Compare two ``hurwitz verify --json`` reports record by record.

    python3 tools/reportdiff.py OLD NEW [--exact] [--bound 0.5]

The default (drift) mode passes when

* both reports hold the same records (check id and case) in the same order,
  with equal ``n_samples`` and equal verdicts;
* every record whose residual is exactly 0.0 in OLD is exactly 0.0 in NEW;
* every record's tolerance headroom moves by at most ``--bound`` decades.
  Headroom is log10(tolerance / residual), or log10(value / tolerance) for
  a convergence ratio, capped at +-6 decades so that residuals far below
  their tolerance (say 1e-17 against 1e-4) do not read as drift.

``--exact`` passes only when the two reports are equal apart from their
``generated_at`` and ``environment`` fields (equal sha256 digests); when
they are not, its problem line names the records that differ.  Both
modes print the two digests and a table of the records.  Exit code 0 on
pass, 1 on fail, 2 when a file cannot be read as a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from hurwitz.harness import RATIO_CHECKS  # noqa: E402
# the benchmark's own headroom, so that a report and a benchmark run read alike
from workloads import headroom  # noqa: E402

# What a file that cannot be read as a report raises in ``compare``.
UNREADABLE = (OSError, ValueError, KeyError, TypeError)


def digest(report: dict) -> str:
    """sha256 of the report without its timestamp and environment."""
    stable = {k: v for k, v in report.items() if k not in ("generated_at", "environment")}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def _label(rec: dict) -> str:
    return f"{rec['check_id']}[{rec['case']}]"


def _value(rec: dict) -> float:
    """The record's residual; a report writes a non-finite one as the
    string "NaN", "Infinity" or "-Infinity", which ``float`` reads."""
    return float(rec["max_residual"])


def _head(rec: dict) -> float:
    ratio = rec["check_id"] in RATIO_CHECKS
    return headroom(_value(rec), rec["tolerance"], ratio)


def drift_problems(old: dict, new: dict, bound: float) -> tuple[list[str], list[str]]:
    """(table lines, problems) of the drift comparison."""
    olds, news = old["checks"], new["checks"]
    old_ids, new_ids = [_label(r) for r in olds], [_label(r) for r in news]
    if old_ids != new_ids:
        gone = [i for i in old_ids if i not in new_ids]
        added = [i for i in new_ids if i not in old_ids]
        return [], [f"records differ in ids or order: only in OLD {gone}, only in NEW {added}"]
    lines = [f"{'record':<40} {'old':>11} {'new':>11} {'h_old':>6} {'h_new':>6} {'dh':>6}"]
    problems = []
    for o, n in zip(olds, news):
        label = _label(o)
        h_old, h_new = _head(o), _head(n)
        lines.append(
            f"{label:<40} {_value(o):>11.3e} {_value(n):>11.3e} "
            f"{h_old:>6.2f} {h_new:>6.2f} {h_new - h_old:>+6.2f}"
        )
        if o["n_samples"] != n["n_samples"]:
            problems.append(f"{label}: n_samples {o['n_samples']} -> {n['n_samples']}")
        if o["passed"] != n["passed"]:
            problems.append(f"{label}: verdict {o['passed']} -> {n['passed']}")
        if _value(o) == 0.0 and _value(n) != 0.0:
            problems.append(f"{label}: exact 0.0 became {n['max_residual']!r}")
        if abs(h_new - h_old) > bound:
            problems.append(f"{label}: headroom moved {h_new - h_old:+.2f} decades")
    return lines, problems


def _moved(old: dict, new: dict) -> str:
    """": id, id" naming the records that differ between two reports of
    the same record ids; empty when only fields outside the records do."""
    moved = [o["check_id"] for o, n in zip(old["checks"], new["checks"]) if o != n]
    return f": {', '.join(moved)}" if moved else ""


def compare(old_path: str, new_path: str, exact: bool = False,
            bound: float = 0.5) -> tuple[list[str], list[str], list[str], str]:
    """(the two digests, table lines, problems, verdict line) of comparing
    two report files; raises one of ``UNREADABLE`` when a file cannot be
    read as a report."""
    reports = []
    for path in (old_path, new_path):
        with open(path) as fh:
            reports.append(json.load(fh))
    old, new = reports
    digests = [digest(r) for r in reports]
    lines, problems = drift_problems(old, new, bound)
    if exact and digests[0] != digests[1]:
        problems.append("reports differ (--exact)" + _moved(old, new))
    mode = "exact" if exact else f"drift bound {bound} decades"
    verdict = f"{'FAIL' if problems else 'PASS'}  {mode} ({len(problems)} problems)"
    return digests, lines, problems, verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two hurwitz verify reports")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--exact", action="store_true",
                    help="require equal reports apart from timestamp and environment")
    ap.add_argument("--bound", type=float, default=0.5,
                    help="largest allowed headroom change per record, in decades")
    args = ap.parse_args(argv)
    try:
        digests, lines, problems, verdict = compare(args.old, args.new, args.exact,
                                                    args.bound)
    except UNREADABLE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"old sha256 {digests[0]}")
    print(f"new sha256 {digests[1]}")
    print("\n".join(lines))
    for p in problems:
        print(f"FAIL  {p}")
    print(verdict)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
