"""Per-call and per-point cost of the library's primitives, stack by stack.

    python3 tools/primitives.py [--repeat N] [--sizes 1,50,2000,20000]
    python3 tools/primitives.py --against REV [--rounds K] [--sizes ...]
                                [--entries NAME,...]

For each primitive and stack size, prints the median time of one call (us)
and that time per point (ns) over ``--repeat`` samples; each sample is a
loop of calls lasting at least 5 ms (one call at least), after one
untimed warm-up call.  Beside them, ``peak_kB`` is the traced peak of one
more call (``tracemalloc``: the most memory its allocations held at once,
its result included), so a megabyte temporary shows in its layer.  The
primitives are the eight the ROADMAP names:

* ``forward``, ``extra_angles`` and ``fiber_section`` (case A) over a stack
  of fiber points and their base points and angles;
* ``a_field_closed`` and ``a_field_numeric`` (case A, default steps);
* ``wigner_d`` (J = 2, q = 1, p = 0) over the points' phi3;
* ``apply_euler_op`` of T1 on a smooth field over the angle chart;
* one ``_stencil`` evaluation: the first derivatives of a Gaussian in |xi|^2
  along the 8 real directions of C^4 (32 displaced copies of each point).

A second table times four residuals at fixed inputs, with the same columns
less the per-point one: the two second-order residuals, whose angle
stencils nest, ``consistency_residual`` (J = 1, p = 0, case A, the
alternating branch) at three base points and ``laplacian_split`` (case A,
one test field of the suite's kind) at seven fiber points; and two sweep
rows, ``gauge_properties`` (the case-A row's per-point residuals) at
20,000 base points and ``wigner_ladder`` (the row, J up to 2) on its
20^3-point angle grid.

A third table times the write path: ``fields_cmd`` (case A, its default
seed) over the benchmark's shell and box regions at the same stack sizes,
in us per requested record and ``peak_kB``, writing to a temporary file.

A fourth table times the suite's draws, one call each from a generator of
a fixed seed, in us per call: the ``rotor_closure_*`` and the
``laplacian_split_A`` rows' draws (100 angle polynomials with their angles;
50 fiber points with their test fields), and one-point ``sample_angles``,
``sample_xi`` (case A) and ``sample_x`` (case A) calls at their default
exclusion, the suite's.

The points are drawn by the suite's own sampler from a fixed seed, so two
source trees time the same inputs.  Run with the tree's ``src`` on the path
(``PYTHONPATH=src``); one process, single-threaded numpy calls.

``--against REV`` compares this tree with REV (a directory or a git
revision of this repository, exported by ``tools/pairs.py``'s
``checkout``) in one process: REV's package is imported under its own
name beside ``hurwitz``, both trees' calls take the same input arrays, and
each entry of the four tables (``--entries`` picks some by name) is timed
over ``--rounds`` rounds of two loops of each tree in the order ABBA, the
tree that is A alternating.  Per entry and size it prints the median over
the rounds of this tree's time over REV's (each side's faster loop) and
the interquartile range of that ratio; a ratio below 1 means this tree is
faster.  Host speed moves both sides of a round alike, so the ratio
resolves what two launches cannot.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
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
SIZES = (1, 50, 2000, 20000)
MIN_SAMPLE_S = 0.005


def _field(phi):
    phi1, phi2, phi3 = phi
    return np.exp(1j * (phi1 - 2.0 * phi2)) * np.cos(phi3)


def points(n: int) -> tuple:
    """``n`` fiber points of case A with their base points and angles, drawn
    by this tree's sampler from a fixed seed: the one set of input arrays
    that the calls of every tree share."""
    transform = hurwitz.transform
    xi = hurwitz.harness.sample_xi(np.random.default_rng(n), transform.CASE_A, 0.15, size=n)
    return xi, transform.forward(xi), transform.extra_angles(xi, transform.CASE_A)


def primitives(pts: tuple, hz=hurwitz) -> dict:
    """The eight calls of the package ``hz`` on the stack ``pts`` of
    :func:`points`, each taking no argument."""
    transform, gauge, opcalc, separation = hz.transform, hz.gauge, hz.opcalc, hz.separation
    CASE_A = transform.CASE_A
    xi, x, phi = pts
    gaussian = lambda z: np.exp(-np.vecdot(z, z).real)
    return {
        "forward": lambda: transform.forward(xi),
        "extra_angles": lambda: transform.extra_angles(xi, CASE_A),
        "fiber_section": lambda: transform.fiber_section(x, phi, CASE_A),
        "a_field_closed": lambda: gauge.a_field_closed(x, CASE_A),
        "a_field_numeric": lambda: gauge.a_field_numeric(xi, CASE_A, 1e-5),
        "wigner_d": lambda: separation.wigner_d(2, 1, 0, phi[2]),
        "apply_euler_op": lambda: opcalc.apply_euler_op("T1", _field, phi, 1e-5),
        "_stencil": lambda: opcalc._stencil(gaussian, xi, opcalc._XI_DIRS, 1e-5),
    }


CONSISTENCY_XS = np.array([[0.5, -0.6, 0.3, 0.4, 0.35], [-0.7, 0.2, 0.9, -0.1, 0.4],
                           [1.1, 0.4, -0.3, 0.6, -0.2]])


def residual_inputs() -> tuple:
    """The second-order residuals' fiber points, test field and radial field,
    and the gauge row's base points, made by this tree from fixed seeds and
    shared as :func:`points` are."""
    harness = hurwitz.harness
    return (harness.sample_xi(np.random.default_rng(7), harness.CASE_A, 0.15, size=7),
            harness._xphi_field(np.random.default_rng(5), "gaussian"), harness._radial_field(0),
            harness.sample_x(np.random.default_rng(3), harness.CASE_A, 1e-3, size=20000))


def residuals(inputs: tuple, hz=hurwitz) -> dict:
    """The four residuals of the package ``hz`` on ``inputs``
    (:func:`residual_inputs`), (points, call taking no argument)."""
    CASE_A, cfg = hz.transform.CASE_A, hz.harness.SuiteConfig()
    xi, field, psi, x = inputs
    return {
        "consistency_residual": (len(CONSISTENCY_XS), lambda: hz.separation.consistency_residual(
            1, 0, psi, CONSISTENCY_XS, CASE_A, "alternating", 1e-4)),
        "laplacian_split": (len(xi), lambda: hz.opcalc.identity_residual(
            "laplacian_split", CASE_A, xi, field, 1e-4)),
        "gauge_properties": (len(x), lambda: hz.harness._gauge_properties(cfg, x, CASE_A)),
        "wigner_ladder": (20 ** 3, lambda: hz.harness._wigner_ladder(cfg, None)),
    }


EXPORT_REGIONS = {"shell": "shell:0.5,2.0", "box": "box:-2,2"}


def exports(n: int, out: str, hz=hurwitz) -> dict:
    """``fields_cmd`` of the package ``hz`` over each export region at ``n``
    records, writing ``out``, each a call taking no argument."""
    return {name: lambda region=region: hz.harness.fields_cmd("A", n, out, region=region)
            for name, region in EXPORT_REGIONS.items()}


def draws(hz=hurwitz) -> dict:
    """The suite's draws of the package ``hz``, each a call taking no
    argument."""
    harness, CASE_A = hz.harness, hz.transform.CASE_A
    rng, cfg = np.random.default_rng(11), harness.SuiteConfig()
    return {
        "_rotor_draws": lambda: harness._rotor_draws(cfg, rng),
        "_identity_draws": lambda: harness._identity_draws(cfg, rng, CASE_A),
        "sample_angles": lambda: harness.sample_angles(rng),
        "sample_xi": lambda: harness.sample_xi(rng, CASE_A),
        "sample_x": lambda: harness.sample_x(rng, CASE_A),
    }


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


def per_call_s(call, repeat: int) -> float:
    """Median seconds per call over ``repeat`` timed loops."""
    number = loop_count(call)
    return statistics.median(loop_s(call, number) for _ in range(repeat))


def ratio_quartiles(call, ref_call, rounds: int) -> tuple[float, float, float]:
    """Quartiles of ``call``'s time over ``ref_call``'s across ``rounds``
    rounds, all loops of one length: per round two loops of each in the
    order ABBA, ``call`` as A in the even rounds and as B in the odd ones,
    and the faster loop of each side: a host speed that drifts through a
    round, or an interruption of one loop, moves neither side alone."""
    number = max(loop_count(call), loop_count(ref_call))
    ratios = []
    for k in range(rounds):
        a, b = (call, ref_call) if k % 2 == 0 else (ref_call, call)
        t = [loop_s(fn, number) for fn in (a, b, b, a)]
        ratio = min(t[0], t[3]) / min(t[1], t[2])
        ratios.append(ratio if k % 2 == 0 else 1.0 / ratio)
    if rounds == 1:
        return (ratios[0],) * 3
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return q1, q2, q3


def entries(stacks: dict, inputs: tuple, out: str, hz=hurwitz) -> list:
    """(name, size or None, call) of every entry of the four tables for the
    package ``hz``: on the :func:`points` ``stacks`` (by size) and the
    :func:`residual_inputs` ``inputs``, exports writing ``out``."""
    sizes = list(stacks)
    rows = [(name, n, call) for n in sizes for name, call in primitives(stacks[n], hz).items()]
    rows += [(name, n, call) for name, (n, call) in residuals(inputs, hz).items()]
    rows += [(f"fields_cmd[{name}]", n, call)
             for n in sizes for name, call in exports(n, out, hz).items()]
    return rows + [(name, None, call) for name, call in draws(hz).items()]


def load_tree(src: str, name: str):
    """The ``hurwitz`` package under ``src`` imported as ``name``, with its
    layers: its modules import one another relatively, so they stay apart
    from the ``hurwitz`` already imported."""
    pkg = os.path.join(src, "hurwitz")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for layer in ("transform", "gauge", "opcalc", "separation", "harness"):
        importlib.import_module(f"{name}.{layer}")
    return module


def against(rev: str, sizes, rounds: int, names) -> int:
    """The ``--against`` table: exit code 0, or 2 when REV cannot be
    exported or an entry name is unknown."""
    sys.path.insert(0, HERE)
    import pairs  # the one git-revision export, shared with the benchmark pairs

    with tempfile.TemporaryDirectory() as tmp:
        try:
            tree, label = pairs.checkout(rev, os.path.join(tmp, "against"))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        other = load_tree(os.path.join(tree, "src"), f"hurwitz_against_{len(sys.modules)}")
        # both trees' calls take the same input arrays: two stacks of equal
        # values can still time apart by their memory alignment
        stacks, inputs = {n: points(n) for n in sizes}, residual_inputs()
        mine = entries(stacks, inputs, os.path.join(tmp, "this.jsonl"))
        ref = {(name, n): call for name, n, call
               in entries(stacks, inputs, os.path.join(tmp, "ref.jsonl"), other)}
        unknown = set(names or ()) - {name for name, _, _ in mine}
        if unknown:
            print(f"error: unknown entries {sorted(unknown)}", file=sys.stderr)
            return 2
        print(f"this tree over {label}: median ratio of time per call and its IQR "
              f"over {rounds} rounds")
        print(f"{'entry':<22}{'size':>7}{'ratio':>9}{'iqr':>9}")
        for name, n, call in mine:
            if names and name not in names:
                continue
            q1, q2, q3 = ratio_quartiles(call, ref[name, n], rounds)
            print(f"{name:<22}{'-' if n is None else n:>7}{q2:>9.3f}{q3 - q1:>9.3f}")
    return 0


def traced_peak_bytes(call) -> int:
    """The most memory that one call's allocations held at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="time the library's primitives")
    ap.add_argument("--repeat", type=int, default=7, help="timed loops per entry")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)),
                    help="comma-separated stack sizes")
    ap.add_argument("--against", metavar="REV",
                    help="time each entry against REV's in one process")
    ap.add_argument("--rounds", type=int, default=21, help="--against: alternating rounds")
    ap.add_argument("--entries", help="--against: comma-separated entry names")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeat < 1 or args.rounds < 1 or min(sizes) < 1:
        ap.error("--repeat, --rounds and every size must be at least 1")
    if args.against:
        return against(args.against, sizes, args.rounds,
                       args.entries.split(",") if args.entries else None)
    table = {n: primitives(points(n)) for n in sizes}
    print(f"{'primitive':<16}"
          + "".join(f"{f'n={n} us':>13}{'ns/pt':>9}{'peak_kB':>10}" for n in sizes))
    for name in table[sizes[0]]:
        cells = []
        for n in sizes:
            t = per_call_s(table[n][name], args.repeat)
            kb = traced_peak_bytes(table[n][name]) / 1e3
            cells.append(f"{t * 1e6:>13.1f}{t * 1e9 / n:>9.0f}{kb:>10.1f}")
        print(f"{name:<16}" + "".join(cells))
    print(f"\n{'residual':<22}{'points':>7}{'us':>11}{'peak_kB':>10}")
    for name, (n, call) in residuals(residual_inputs()).items():
        t = per_call_s(call, args.repeat)
        print(f"{name:<22}{n:>7}{t * 1e6:>11.1f}{traced_peak_bytes(call) / 1e3:>10.1f}")
    print(f"\n{'export':<11}{'region':<7}"
          + "".join(f"{f'n={n} us/rec':>15}{'peak_kB':>10}" for n in sizes))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fields.jsonl")
        calls = {n: exports(n, out) for n in sizes}
        for name in EXPORT_REGIONS:
            cells = []
            for n in sizes:
                call = calls[n][name]
                t = per_call_s(call, args.repeat)
                cells.append(f"{t * 1e6 / n:>15.2f}{traced_peak_bytes(call) / 1e3:>10.1f}")
            print(f"{'fields_cmd':<11}{name:<7}" + "".join(cells))
    print(f"\n{'draw':<16}{'us':>9}")
    for name, call in draws().items():
        print(f"{name:<16}{per_call_s(call, args.repeat) * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
