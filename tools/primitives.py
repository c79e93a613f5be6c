"""Per-call and per-unit cost of the library's primitives, suite rows and exports.

    PYTHONPATH=src python3 tools/primitives.py [--sizes 1,50,2000,20000]
        [--rounds K] [--entries NAME,...] [--against REV]

Times one list of entries, each a call with a size and the units it handles:
the eight primitives the ROADMAP names at each ``--sizes`` stack of case-A
points (units: points); one-point ``sample_angles``, ``sample_xi`` and
``sample_x``; ``verify:<id>`` (each default suite row through ``run_row``),
``sweep:<id>`` (each sweep-workload row at its sample count) and
``draws:<id>`` (a default row's draws alone), each row's generator seeded
as ``run_suite`` seeds the row and kept from call to call; and the exports
``fields_cmd[A|B/shell|box]`` at each size and ``separate_cmd`` at J = 0..3,
rewriting one file as the export workload does (``separate_cmd[fresh]``: a
new path each call), whose units are the records written.

Plain mode prints the median over ``--rounds`` loops (each of at least
5 ms and one call, after a warm-up call) of one call's time (us) and per
unit (ns), and the ``tracemalloc`` peak of one more call (``peak_kB``).
``--against REV`` imports REV (a directory or a git revision, exported by
``tools/pairs.py``) under its own package name and times both trees' entries,
the primitives on the same arrays, over ``--rounds`` rounds of loops in the
order ABBA: it prints the median of this tree's time over REV's and its
interquartile range (below 1 this tree is faster), and an entry that one
tree lacks as missing.  Host speed moves both sides of a round alike.
Exit code 2 when REV cannot be exported or an entry name is unknown.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import itertools
import math
import os
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import hurwitz

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path += [HERE, os.path.join(os.path.dirname(HERE), "bench")]
import pairs  # noqa: E402  the revision export and quartiles of the benchmark pairs
import workloads  # noqa: E402  the sweep workload's rows and sample count

SIZES = (1, 50, 2000, 20000)
MIN_SAMPLE_S = 0.005
EXPORT_REGIONS = {"shell": "shell:0.5,2.0", "box": "box:-2,2"}
SEPARATE_POINT = [0.4, -0.7, 0.2, 0.5, 0.3]


def points(n: int) -> tuple:
    """``n`` fiber points of case A with their base points and angles, drawn
    by this tree's sampler from a fixed seed, for the calls of every tree."""
    transform = hurwitz.transform
    xi = hurwitz.harness.sample_xi(np.random.default_rng(n), transform.CASE_A, 0.15, size=n)
    return xi, transform.forward(xi), transform.extra_angles(xi, transform.CASE_A)


def primitives(pts: tuple, hz=hurwitz) -> dict:
    """The eight calls of the package ``hz`` on the :func:`points` ``pts``."""
    transform, gauge, opcalc, separation = hz.transform, hz.gauge, hz.opcalc, hz.separation
    CASE_A = transform.CASE_A
    xi, x, phi = pts
    gaussian = lambda z: np.exp(-np.vecdot(z, z).real)
    field = lambda phi: np.exp(1j * (phi[0] - 2.0 * phi[1])) * np.cos(phi[2])
    return {
        "forward": lambda: transform.forward(xi),
        "extra_angles": lambda: transform.extra_angles(xi, CASE_A),
        "fiber_section": lambda: transform.fiber_section(x, phi, CASE_A),
        "a_field_closed": lambda: gauge.a_field_closed(x, CASE_A),
        "a_field_numeric": lambda: gauge.a_field_numeric(xi, CASE_A, 1e-5),
        "wigner_d": lambda: separation.wigner_d(2, 1, 0, phi[2]),
        "apply_euler_op": lambda: opcalc.apply_euler_op("T1", field, phi, 1e-5),
        "_stencil": lambda: opcalc._stencil(gaussian, xi, opcalc._XI_DIRS, 1e-5),
    }


def suite_rows(hz=hurwitz) -> list:
    """(name, size, units, call) of the ``verify:``, ``sweep:`` and
    ``draws:`` entries of the package ``hz``, each family in registry order."""
    harness, rows = hz.harness, []
    for family, cfg, keep in (
            ("verify", harness.SuiteConfig(), lambda row: True),
            ("sweep", harness.SuiteConfig(samples=workloads.SWEEP_SAMPLES),
             lambda row: row.id in workloads.SWEEP_IDS),
            ("draws", harness.SuiteConfig(), lambda row: row.draws is not None)):
        for idx, row in enumerate(harness._registry(cfg)):
            if keep(row):
                rng = np.random.default_rng((cfg.seed, idx))
                call = (functools.partial(row.draws, cfg, rng, **row.kw) if family == "draws"
                        else functools.partial(harness.run_row, cfg, row, rng))
                rows.append((f"{family}:{row.id}", None, 1, call))
    return rows


def entries(stacks: dict, out: str, hz=hurwitz) -> list:
    """(name, size or None, units, call) of every entry of the package ``hz``
    on the :func:`points` ``stacks`` (by size), its exports writing ``out``."""
    harness, CASE_A = hz.harness, hz.transform.CASE_A
    rows = [(name, n, n, call) for n, pts in stacks.items()
            for name, call in primitives(pts, hz).items()]
    rng = lambda: np.random.default_rng(11)
    rows += [("sample_angles", 1, 1, functools.partial(harness.sample_angles, rng())),
             ("sample_xi", 1, 1, functools.partial(harness.sample_xi, rng(), CASE_A)),
             ("sample_x", 1, 1, functools.partial(harness.sample_x, rng(), CASE_A))]
    rows += suite_rows(hz)
    rows += [(f"fields_cmd[{case}/{name}]", n, n,
              functools.partial(harness.fields_cmd, case, n, out, region=region))
             for n in stacks for case in "AB" for name, region in EXPORT_REGIONS.items()]
    fresh = itertools.count()  # a path that no call wrote before
    for name, path in (("separate_cmd", lambda: out),
                       ("separate_cmd[fresh]", lambda: f"{out}.{next(fresh)}")):
        rows += [(name, J, 6, lambda J=J, path=path: harness.separate_cmd(
            J, 0, "A", SEPARATE_POINT, path())) for J in range(4)]
    return rows


def loop_count(call) -> int:
    """Calls per timed loop: enough for MIN_SAMPLE_S after one warm-up call."""
    start = time.perf_counter()
    call()
    return max(1, math.ceil(MIN_SAMPLE_S / max(time.perf_counter() - start, 1e-9)))


def loop_s(call, number: int) -> float:
    """Seconds per call over one loop of ``number`` calls, with the garbage
    collector off, as ``timeit`` times: a collection of the whole process's
    objects would land on whichever loop it falls in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            call()
        return (time.perf_counter() - start) / number
    finally:
        if enabled:
            gc.enable()


def ratio_quartiles(call, ref_call, rounds: int) -> tuple[float, float, float]:
    """Quartiles of ``call``'s time over ``ref_call``'s across ``rounds``
    rounds of equal loops in the order ABBA, ``call`` as A in even rounds,
    each side's faster loop: a host speed that drifts through a round, or an
    interruption of one loop, moves neither side alone."""
    number = max(loop_count(call), loop_count(ref_call))
    ratios = []
    for k in range(rounds):
        a, b = (call, ref_call) if k % 2 == 0 else (ref_call, call)
        t = [loop_s(fn, number) for fn in (a, b, b, a)]
        ratio = min(t[0], t[3]) / min(t[1], t[2])
        ratios.append(ratio if k % 2 == 0 else 1.0 / ratio)
    return pairs.quartiles(ratios)


def traced_peak_bytes(call) -> int:
    """The most memory that one call's allocations held at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_tree(src: str, name: str):
    """The ``hurwitz`` package under ``src`` imported as ``name``, layers
    and all, apart from the ``hurwitz`` already imported."""
    pkg = os.path.join(src, "hurwitz")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for layer in ("transform", "gauge", "opcalc", "separation", "harness"):
        importlib.import_module(f"{name}.{layer}")
    return module


def table(mine: dict, ref, rounds: int, label=None) -> None:
    """Print one row per entry of ``mine`` ((name, size) to (units, call)):
    its time per call and per unit and its traced peak, or, when REV's
    entries ``ref`` are given, its ratio to REV's and the ratio's IQR."""
    if ref is not None:
        print(f"this tree over {label}: median ratio of time per call and its IQR "
              f"over {rounds} rounds")
    print(f"{'entry':<36}{'size':>7}" + (f"{'us':>12}{'ns/unit':>10}{'peak_kB':>10}"
                                          if ref is None else f"{'ratio':>9}{'iqr':>9}"))
    for name, n in {**mine, **(ref or {})}:
        head = f"{name:<36}{'-' if n is None else n:>7}"
        if ref is None:
            units, call = mine[name, n]
            number = loop_count(call)
            t = statistics.median(loop_s(call, number) for _ in range(rounds))
            print(f"{head}{t * 1e6:>12.1f}{t * 1e9 / units:>10.0f}"
                  f"{traced_peak_bytes(call) / 1e3:>10.1f}")
        elif (name, n) not in mine or (name, n) not in ref:
            print(f"{head}  missing in {label if (name, n) in mine else 'this tree'}")
        else:
            q1, q2, q3 = ratio_quartiles(mine[name, n][1], ref[name, n][1], rounds)
            print(f"{head}{q2:>9.3f}{q3 - q1:>9.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time the library's primitives")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)),
                    help="comma-separated stack sizes")
    ap.add_argument("--rounds", type=int, default=21,
                    help="timed loops per entry; under --against, alternating rounds")
    ap.add_argument("--entries", help="comma-separated entry names")
    ap.add_argument("--against", metavar="REV",
                    help="time each entry against REV's in one process")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.rounds < 1 or min(sizes) < 1:
        ap.error("--rounds and every size must be at least 1")
    names = set(args.entries.split(",")) if args.entries else None
    with tempfile.TemporaryDirectory() as tmp:
        trees, label = [hurwitz], None
        if args.against:
            try:
                tree, label = pairs.checkout(args.against, os.path.join(tmp, "against"))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            trees.append(load_tree(os.path.join(tree, "src"),
                                   f"hurwitz_against_{len(sys.modules)}"))
        # one set of arrays: equal stacks can time apart by their alignment
        stacks = {n: points(n) for n in sizes}
        mine, *ref = ({(name, n): (units, call) for name, n, units, call
                       in entries(stacks, os.path.join(tmp, f"{k}.jsonl"), hz)
                       if names is None or name in names} for k, hz in enumerate(trees))
        unknown = (names or set()) - {name for side in (mine, *ref) for name, _ in side}
        if unknown:
            print(f"error: unknown entries {sorted(unknown)}", file=sys.stderr)
            return 2
        table(mine, ref[0] if ref else None, args.rounds, label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
