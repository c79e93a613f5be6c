"""The benchmark's workloads: what each runs, why, and how its output is checked.

Every workload drives the public API in a closed loop with one caller: the
worker runs one pass, waits for it to return, then starts the next.  A pass
takes a seed derived from the run's ``--seed`` and returns an ``Outcome``
carrying its own body time (output checks are not timed), the operations
it attempted and failed, the records it produced, one tolerance headroom
per record, and a digest of its deterministic output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from hurwitz import cli, harness

# Clock the passes time their bodies with; the worker swaps in the host-speed
# sampler's clock, which leaves out the time its samples take.
clock = time.perf_counter

# The 48 registry ids of the default suite, in registry order.
REGISTRY_IDS = (
    "clifford_structure", "clifford_anticommutation", "fierz_identity",
    "companion_commutation_table", "norm_identity", "quadratic_homogeneity",
    "octet_convention",
    "fiber_roundtrip_A", "section_identity_A",
    "fiber_roundtrip_B", "section_identity_B",
    "rotor_closure_T", "rotor_closure_Q", "rotor_cross_commutation",
    "casimir_equality",
    "phase_constraint_A", "phase_constraint_A_offsets", "derivative_split_A",
    "momentum_equivalence_A", "laplacian_split_A",
    "phase_constraint_B", "phase_constraint_B_offsets", "derivative_split_B",
    "momentum_equivalence_B", "laplacian_split_B",
    "fd_convergence_order",
    "gauge_properties_A", "gauge_closed_vs_numeric_A",
    "frame_x_independence_A", "gauge_angle_independence_A",
    "gauge_properties_B", "gauge_closed_vs_numeric_B",
    "frame_x_independence_B", "gauge_angle_independence_B",
    "gauge_reflection_map", "spectrum_structure", "bisection_cross_check",
    "alternating_branch_caseA", "wigner_ladder", "wigner_eigenrelations",
    "null_vector_residual",
    "angular_factor_eigen_A", "angular_factor_eigen_B",
    "oscillator_gaussian", "radial_duality",
    "separation_consistency_J0", "separation_consistency_J1",
    "consistency_refinement",
)

# Every check that makes no finite-difference call.
SWEEP_IDS = (
    "clifford_structure", "clifford_anticommutation", "fierz_identity",
    "companion_commutation_table", "norm_identity", "quadratic_homogeneity",
    "octet_convention",
    "fiber_roundtrip_A", "section_identity_A",
    "fiber_roundtrip_B", "section_identity_B",
    "gauge_properties_A", "gauge_properties_B", "gauge_reflection_map",
    "spectrum_structure", "bisection_cross_check", "alternating_branch_caseA",
    "wigner_ladder", "null_vector_residual",
)
SWEEP_SAMPLES = 2000

# Ratio checks pass on value >= tolerance; all others on value < tolerance.
RATIO_CHECKS = frozenset({"fd_convergence_order", "consistency_refinement"})
HEADROOM_CAP = 6.0
FIELDS_TOL = 1e-12


# Checks whose report records leave the case out of the check id.
CASE_SUFFIXED = frozenset({"fiber_roundtrip", "section_identity"})


def record_ids(check_id: str) -> tuple[str, ...]:
    """Keys (see ``record_key``) of the report records one registry id yields."""
    if check_id.startswith("gauge_properties_"):
        case = check_id[-1]
        return (f"gauge_transversality_{case}", f"gauge_normalization_{case}")
    return (check_id,)


def record_key(record: dict) -> str:
    if record["check_id"] in CASE_SUFFIXED:
        return f"{record['check_id']}_{record['case']}"
    return record["check_id"]


def prefix_groups(ids) -> list[tuple[str, tuple[str, ...]]]:
    """One ``run_suite(only=[head])`` call per group.

    ``only`` matches by prefix, so an id that another id extends
    (``phase_constraint_A`` and ``phase_constraint_A_offsets``) heads a
    group that holds both.
    """
    groups = []
    for head in ids:
        if any(other != head and head.startswith(other) for other in ids):
            continue
        groups.append((head, tuple(i for i in ids if i.startswith(head))))
    return groups


def headroom(value: float, tol: float, ratio: bool = False) -> float:
    """Decades between a residual and its tolerance, capped at +-6."""
    if not math.isfinite(value):
        return -HEADROOM_CAP
    if ratio:
        h = math.log10(value / tol) if value > 0 else -HEADROOM_CAP
    else:
        h = math.log10(tol / value) if value > 0 else HEADROOM_CAP
    return max(-HEADROOM_CAP, min(HEADROOM_CAP, h))


@dataclass
class Outcome:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    records: int = 0
    headroom: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: str = ""
    peak_rss_mb: float = 0.0


def _cli(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = clock()
        rc = cli.main(argv)
        dt = clock() - t0
    return rc, out.getvalue(), dt


def suite_outcome(report: dict, ids, seconds: float) -> Outcome:
    """Gate a suite report: it passed and holds exactly the expected records."""
    expected = sorted(r for i in ids for r in record_ids(i))
    checks = report["checks"]
    got = sorted(record_key(c) for c in checks)
    o = Outcome(seconds=seconds, attempted=len(expected), records=len(checks))
    o.failed = sum(not c["passed"] for c in checks) + max(0, len(expected) - len(checks))
    if got != expected:
        o.problems.append(f"records {got} != expected {expected}")
    if not report["passed"]:
        o.problems.append("report did not pass")
    o.headroom = [
        headroom(c["max_residual"], c["tolerance"], c["check_id"] in RATIO_CHECKS)
        for c in checks
    ]
    stable = {k: v for k, v in report.items() if k not in ("generated_at", "environment")}
    o.digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
    return o


def run_verify(seed: int, tmp: str, span) -> Outcome:
    path = os.path.join(tmp, "report.json")
    with span("verify"):
        rc, _, dt = _cli(["verify", "--seed", str(seed), "--json", path])
    with open(path) as fh:
        o = suite_outcome(json.load(fh), REGISTRY_IDS, dt)
    if rc != 0:
        o.problems.append(f"verify exited {rc}")
    return o


def sweep_config(seed: int):
    return harness.SuiteConfig(seed=seed, samples=SWEEP_SAMPLES)


def run_sweep(seed: int, tmp: str, span) -> Outcome:
    with span("sweep"):
        t0 = clock()
        report = harness.run_suite(sweep_config(seed), only=list(SWEEP_IDS))
        dt = clock() - t0
    return suite_outcome(report.to_dict(), SWEEP_IDS, dt)


# One export pass: a fields call for one (case, region) pair, chosen by the
# pass seed (consecutive derived seeds differ by 3 mod 4, so they take all
# four in turn), plus one separate call per (J, case).
EXPORT_FIELDS = tuple((c, r) for c in "AB" for r in ("shell:0.5,2.0", "box:-2,2"))
EXPORT_FIELDS_N = 250
EXPORT_CALLS = 1 + 4 * 2


def _separate_point(rnd: random.Random, case: str) -> list[float]:
    """A base point in the 0.5..2 shell, clear of the case's singular half-axis."""
    sign = 1.0 if case == "A" else -1.0
    while True:
        v = [rnd.gauss(0.0, 1.0) for _ in range(5)]
        norm = math.sqrt(sum(a * a for a in v))
        r = rnd.uniform(0.5, 2.0)
        x = [a / norm * r for a in v]
        if r + sign * x[4] > 0.2 * r:
            return x


def run_export(seed: int, tmp: str, span) -> Outcome:
    o = Outcome(attempted=EXPORT_CALLS)
    sha = hashlib.sha256()
    path = os.path.join(tmp, "export.jsonl")

    def call(label: str, argv: list[str]) -> list[str] | None:
        with span(label):
            rc, stdout, dt = _cli(argv)
        o.seconds += dt
        if rc != 0:
            o.failed += 1
            o.problems.append(f"{argv[0]} exited {rc}")
            return None
        with open(path) as fh:
            text = fh.read()
        sha.update(text.encode())
        if not stdout.strip():
            o.problems.append(f"{argv[0]} printed no summary line")
        return text.splitlines()

    case, region = EXPORT_FIELDS[seed % len(EXPORT_FIELDS)]
    lines = call(f"fields {case} {region.split(':')[0]}", [
        "fields", "--case", case, "-n", str(EXPORT_FIELDS_N), "--out", path,
        f"--region={region}", "--seed", str(seed),
    ])
    if lines is not None:
        meta = json.loads(lines[0])["meta"]
        if meta["written"] != len(lines) - 1:
            o.problems.append(f"fields wrote {len(lines) - 1} records, meta says {meta['written']}")
        for line in lines[1:]:
            props = json.loads(line)["props"]
            o.headroom.append(headroom(max(props.values()), FIELDS_TOL))
        o.records += len(lines) - 1

    rnd = random.Random(seed)
    for J in range(4):
        for case in "AB":
            point = ",".join(repr(v) for v in _separate_point(rnd, case))
            lines = call(f"separate J={J} {case}", [
                "separate", "--j", str(J), f"--p={rnd.randint(-J, J)}",
                "--case", case, f"--point={point}", "--out", path,
            ])
            if lines is None:
                continue
            if len(lines) != 6 or "summary" not in json.loads(lines[-1]):
                o.problems.append("separate output lacks 5 axis records and a summary")
            o.records += len(lines) - 1
    o.digest = sha.hexdigest()
    return o


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, str, Callable], Outcome]
    # passes always made, and the ones the headroom figures are taken from
    min_passes: int
    # operations one pass attempts
    ops: int
    # (config for a seed, registry ids) timed one check group at a time
    checks: tuple = ()
    # traced counts that must be nonzero / the layer whose counts must be 0
    hot: tuple = ()
    idle_layer: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        # The product, and the path the ROADMAP's 60 s suite gate times:
        # `hurwitz verify` over the default 48-entry suite.  opcalc and
        # separation do most of the work (separation_consistency_J* and
        # laplacian_split_* take ~70%), so a stencil-engine or Wigner-d
        # change shows here.
        Workload(
            "verify", run_verify,
            min_passes=1,
            ops=sum(len(record_ids(i)) for i in REGISTRY_IDS),
            checks=(harness.SuiteConfig, REGISTRY_IDS),
            hot=("opcalc.first_derivative", "opcalc.apply_euler_op",
                 "separation.wigner_d", "gauge.a_field_closed", "transform.forward"),
        ),
        # Every check that makes no finite-difference call, at samples=2000.
        # opcalc makes zero calls, so this is the bypass workload for any
        # opcalc change.  The time goes to the harness's per-point sampling
        # loops and per-point gauge.a_field_closed, to det_bisection_roots and
        # to large vectorized arrays: batching forward/a_field_closed or
        # capping the samplers shows here, in time and in memory.
        Workload(
            "sweep", run_sweep,
            min_passes=12,
            ops=sum(len(record_ids(i)) for i in SWEEP_IDS),
            checks=(sweep_config, SWEEP_IDS),
            idle_layer="opcalc",
        ),
        # The write path: `hurwitz fields` for both cases over the shell and
        # box regions, plus `hurwitz separate` over J = 0..3 and both cases.
        # Sampling, JSON encoding and file writes in fields_cmd dominate,
        # a_field_closed and the small eigen-solves follow, and opcalc is
        # never called: a closed-form gain that costs serialisation, or the
        # reverse, shows here.
        Workload(
            "export", run_export,
            min_passes=240,
            ops=EXPORT_CALLS,
            idle_layer="opcalc",
        ),
    )
}


def derived_seed(seed: int, k: int) -> int:
    """Seed of pass k of a run; pass 0 uses the run's own seed.

    The large step keeps the passes of nearby run seeds apart.
    """
    return seed + 1_000_003 * k
