"""Per-call and per-point cost of the library's primitives, stack by stack.

    python3 tools/primitives.py [--repeat N] [--sizes 1,50,2000,20000]

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

A second table times the two second-order residuals, whose angle stencils
nest, at fixed inputs with the same columns less the per-point one:
``consistency_residual`` (J = 1, p = 0, case A, the alternating branch) at
three base points, and ``laplacian_split`` (case A, one test field of the
suite's kind) at seven fiber points.

A third table times the write path: ``fields_cmd`` (case A, its default
seed) over the benchmark's shell and box regions at the same stack sizes,
in us per requested record and ``peak_kB``, writing to a temporary file.

A fourth table times the suite's one-value draws, one call each from a
generator of a fixed seed, in us per call: an ``_angle_poly`` test
polynomial, and one-point ``sample_angles``, ``sample_xi`` (case A) and
``sample_x`` (case A) calls at their default exclusion, the suite's.

The points are drawn by the suite's own sampler from a fixed seed, so two
source trees time the same inputs.  Run with the tree's ``src`` on the path
(``PYTHONPATH=src``); one process, single-threaded numpy calls.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from hurwitz import gauge, opcalc, separation, transform
from hurwitz.harness import (CASE_A, _angle_poly, _radial_field, _xphi_field, fields_cmd,
                             sample_angles, sample_x, sample_xi)

SIZES = (1, 50, 2000, 20000)
MIN_SAMPLE_S = 0.005


def _field(phi):
    phi1, phi2, phi3 = phi
    return np.exp(1j * (phi1 - 2.0 * phi2)) * np.cos(phi3)


def primitives(n: int) -> dict:
    """The eight calls on a stack of ``n`` points, each taking no argument."""
    xi = sample_xi(np.random.default_rng(n), CASE_A, 0.15, size=n)
    x = transform.forward(xi)
    phi = transform.extra_angles(xi, CASE_A)
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


def residuals() -> dict:
    """The two second-order residuals, (points, call taking no argument)."""
    xi = sample_xi(np.random.default_rng(7), CASE_A, 0.15, size=7)
    field = _xphi_field(np.random.default_rng(5), "gaussian")
    psi = _radial_field(0)
    return {
        "consistency_residual": (len(CONSISTENCY_XS), lambda: separation.consistency_residual(
            1, 0, psi, CONSISTENCY_XS, CASE_A, "alternating", 1e-4)),
        "laplacian_split": (len(xi), lambda: opcalc.identity_residual(
            "laplacian_split", CASE_A, xi, field, 1e-4)),
    }


EXPORT_REGIONS = {"shell": "shell:0.5,2.0", "box": "box:-2,2"}


def draws() -> dict:
    """The suite's one-value draws, each a call taking no argument."""
    rng = np.random.default_rng(11)
    return {
        "_angle_poly": lambda: _angle_poly(rng),
        "sample_angles": lambda: sample_angles(rng),
        "sample_xi": lambda: sample_xi(rng, CASE_A),
        "sample_x": lambda: sample_x(rng, CASE_A),
    }


def per_call_s(call, repeat: int) -> float:
    """Median seconds per call over ``repeat`` timed loops."""
    start = time.perf_counter()
    call()
    number = max(1, math.ceil(MIN_SAMPLE_S / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


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
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeat < 1 or min(sizes) < 1:
        ap.error("--repeat and every size must be at least 1")
    table = {n: primitives(n) for n in sizes}
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
    for name, (n, call) in residuals().items():
        t = per_call_s(call, args.repeat)
        print(f"{name:<22}{n:>7}{t * 1e6:>11.1f}{traced_peak_bytes(call) / 1e3:>10.1f}")
    print(f"\n{'export':<11}{'region':<7}"
          + "".join(f"{f'n={n} us/rec':>15}{'peak_kB':>10}" for n in sizes))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fields.jsonl")
        for name, region in EXPORT_REGIONS.items():
            cells = []
            for n in sizes:
                call = lambda: fields_cmd("A", n, out, region=region)
                t = per_call_s(call, args.repeat)
                cells.append(f"{t * 1e6 / n:>15.2f}{traced_peak_bytes(call) / 1e3:>10.1f}")
            print(f"{'fields_cmd':<11}{name:<7}" + "".join(cells))
    print(f"\n{'draw':<16}{'us':>9}")
    for name, call in draws().items():
        print(f"{name:<16}{per_call_s(call, args.repeat) * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
