import dataclasses
import json
import math
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz import cli, gauge, harness, opcalc, separation, transform
from hurwitz.cli import main
from hurwitz.errors import ConfigInvalid, SingularAxis
from hurwitz.gauge import a_field_closed
from hurwitz.harness import (
    SuiteConfig,
    fields_cmd,
    resolved_conventions,
    run_suite,
    separate_cmd,
)


def test_config_validation():
    SuiteConfig().validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(samples=0).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(J_max=9).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(cases=("A", "C")).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(fd_step=-1.0).validate()
    # no draw can clear an exclusion of 1/sqrt(2) or more
    for eps in (0.9, 1.0 / math.sqrt(2.0), math.nan):
        with pytest.raises(ConfigInvalid):
            SuiteConfig(exclusion_eps=eps).validate()
    for bad in (
        {"samples": "10"}, {"seed": 1.5}, {"J_max": True}, {"fd_step": "1e-5"},
        {"cases": "AB"}, {"tolerances": ["norm_identity"]},
        {"tolerances": {"norm_identity": None}}, {"cases": ("A", "A")},
        {"tolerances": {"norm_identiy": 1e-30}},
        {"tolerances": {"radial_duality": math.nan}},
        {"tolerances": {"radial_duality": math.inf}},
        {"tolerances": {"radial_duality": -1e-6}},
        {"tolerances": {"radial_duality": 10**400}},
        # registry ids that write their records under other ids
        {"tolerances": {"gauge_properties_A": 1e-12}},
        {"tolerances": {"fiber_roundtrip_A": 1e-10}},
        # a record id of a case the config leaves out
        {"cases": ("A",), "tolerances": {"laplacian_split_B": 1e-4}},
        {"J_max": 0}, {"J_max": 1}, {"cases": ()},
        {"samples": harness.MAX_SAMPLES + 1},
        {"fd_step": 10**400},
    ):
        with pytest.raises(ConfigInvalid):
            SuiteConfig(**bad).validate()


# Values of every kind a JSON config can carry, right and wrong: bools, NaN,
# +-inf, integers beyond the float range, lists and strings.
_ANY_VALUE = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(), st.integers(min_value=10**300, max_value=10**500),
    st.lists(st.integers(), max_size=2),
)
_RECORD_IDS = sorted({rid for row in harness._registry(SuiteConfig())
                      for rid in row.record_ids})
_CONFIG_FIELDS = {
    "seed": st.one_of(st.integers(min_value=0), _ANY_VALUE),
    "samples": st.one_of(st.integers(-2, harness.MAX_SAMPLES + 2), _ANY_VALUE),
    "fd_step": st.one_of(st.floats(), _ANY_VALUE),
    "tolerances": st.one_of(
        st.dictionaries(st.one_of(st.sampled_from(_RECORD_IDS), st.text(max_size=3)),
                        _ANY_VALUE, max_size=3),
        _ANY_VALUE,
    ),
    "cases": st.one_of(
        st.lists(st.sampled_from(["A", "B", "C"]), max_size=3).map(tuple), _ANY_VALUE
    ),
    "J_max": st.one_of(st.integers(-1, 5), _ANY_VALUE),
    "exclusion_eps": st.one_of(st.floats(0.0, 1.0), _ANY_VALUE),
}


@settings(max_examples=150, deadline=1000, derandomize=True, database=None)
@given(st.fixed_dictionaries({}, optional=_CONFIG_FIELDS))
@example({"fd_step": 10**400})
def test_validate_accepts_only_configs_with_float_convertible_numbers(values):
    # validate() either rejects a config or accepts one whose numbers all
    # convert to finite floats; the seed may be any non-negative integer
    # (it only seeds numpy's SeedSequence), so it is left out
    cfg = SuiteConfig(**values)
    try:
        cfg.validate()
    except ConfigInvalid:
        return
    numbers = [cfg.samples, cfg.fd_step, cfg.J_max, cfg.exclusion_eps,
               *cfg.tolerances.values()]
    assert all(math.isfinite(float(v)) for v in numbers)


# A cheap subset of the suite: no base-point sampling, no finite differences.
_CHEAP = ["clifford", "spectrum_structure", "bisection_cross_check"]

# Values of each field's own type, in and around its accepted range, so
# that most drawn configs are accepted.
_TYPED_FIELDS = {
    "seed": st.integers(0, 2**64),
    "samples": st.integers(0, harness.MAX_SAMPLES + 1),
    "fd_step": st.floats(0.0, 1.0),
    "tolerances": st.dictionaries(
        st.sampled_from(_RECORD_IDS),
        st.one_of(st.floats(-1e-3, 1e3), st.just(0.0), st.just(math.nan)), max_size=3,
    ),
    "cases": st.lists(st.sampled_from(["A", "B"]), max_size=2).map(tuple),
    "J_max": st.integers(1, 4),
    "exclusion_eps": st.floats(0.0, 0.75),
}


@settings(max_examples=25, deadline=2000, derandomize=True, database=None)
@given(st.fixed_dictionaries({}, optional=_TYPED_FIELDS))
@example({"J_max": 2, "cases": ["B"], "samples": harness.MAX_SAMPLES,
          "tolerances": {"spectrum_structure": 0.0}})
def test_every_accepted_config_runs_to_a_strict_report(values):
    # validate() rejects a config (the CLI's exit code 2) or the config runs
    # in-process, and its report is strict JSON
    cfg = SuiteConfig(**values)
    try:
        cfg.validate()
    except ConfigInvalid:
        return
    rep = run_suite(cfg, only=_CHEAP)
    checks = _strict_loads(rep.to_json())["checks"]
    assert [c["check_id"] for c in checks] == [
        "clifford_structure", "clifford_anticommutation", "spectrum_structure",
        "bisection_cross_check",
    ]
    assert rep.passed == all(c["passed"] for c in checks)
    assert all(c["n_samples"] > 0 for c in checks)


def test_config_accepts_record_ids_and_the_sample_cap():
    SuiteConfig(
        samples=harness.MAX_SAMPLES,
        J_max=2,
        tolerances={
            "fiber_roundtrip": 1e-9, "section_identity": 1e-9,
            "gauge_transversality_B": 1e-11, "gauge_normalization_A": 1e-11,
            "separation_consistency_J1": 1e-2, "fd_convergence_order": 7.0,
            "norm_identity": 0.0,
        },
    ).validate()


def test_declared_record_ids_match_the_report():
    cfg = SuiteConfig(samples=10)
    rows = [r for r in harness._registry(cfg)
            if r.id in ("fiber_roundtrip_B", "section_identity_A", "gauge_properties_B",
                        "norm_identity", "laplacian_split_A")]
    declared = [rid for row in rows for rid in row.record_ids]
    rep = run_suite(cfg, only=[r.id for r in rows])
    assert declared == [
        "norm_identity", "section_identity", "fiber_roundtrip", "laplacian_split_A",
        "gauge_transversality_B", "gauge_normalization_B",
    ]
    assert [c.check_id for c in rep.checks] == declared


# the records whose operators run at SuiteConfig.fd_step; every other record
# runs at a fixed step
FD_STEP_RECORDS = {
    f"{stem}_{c}"
    for stem in ("phase_constraint", "derivative_split", "momentum_equivalence",
                 "gauge_closed_vs_numeric", "frame_x_independence", "gauge_angle_independence")
    for c in "AB"
} | {"phase_constraint_A_offsets", "phase_constraint_B_offsets"}


def test_fd_step_drives_exactly_the_first_order_records():
    base, other = (run_suite(SuiteConfig(fd_step=h)).checks for h in (1e-5, 2e-5))
    assert [c.check_id for c in base] == [c.check_id for c in other]
    assert len(base) == 50 and len(FD_STEP_RECORDS) == 14
    # repr spells every float exactly, so an unmoved record is bit-identical
    moved = {a.check_id for a, b in zip(base, other) if repr(a) != repr(b)}
    assert moved == FD_STEP_RECORDS


def test_run_suite_subset_passes():
    rep = run_suite(SuiteConfig(), only=["clifford", "norm_identity"])
    ids = [c.check_id for c in rep.checks]
    assert "clifford_anticommutation" in ids and "norm_identity" in ids
    assert rep.passed
    assert rep.schema_version == 1
    assert all(line.startswith("PASS") for line in rep.summary_lines())


def test_run_suite_zero_tolerance_forces_failure():
    cfg = SuiteConfig(tolerances={"norm_identity": 0.0})
    rep = run_suite(cfg, only=["clifford_anticommutation", "norm_identity"])
    assert not rep.passed
    failed = [c.check_id for c in rep.checks if not c.passed]
    assert failed == ["norm_identity"]
    assert any(
        line.startswith("FAIL") and "norm_identity" in line
        for line in rep.summary_lines()
    )


def _strict_loads(text):
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_passing_report_json_is_unchanged_by_strict_writing():
    rep = run_suite(SuiteConfig(), only=["clifford", "norm_identity"])
    assert rep.passed
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2, sort_keys=True)


def test_report_writes_non_finite_residuals_as_strings(monkeypatch):
    monkeypatch.setattr(harness, "sample_xi", _nan_on_call(harness.sample_xi, 2))
    rep = run_suite(SuiteConfig(), only=["quadratic_homogeneity"])
    rep.checks += [
        harness.CheckResult("inf_record", "-", 1, math.inf, 1.0, False),
        harness.CheckResult("minus_inf_record", "-", 1, -math.inf, 1.0, False),
    ]
    recs = _strict_loads(rep.to_json())["checks"]
    assert [r["max_residual"] for r in recs] == ["NaN", "Infinity", "-Infinity"]
    assert recs[0]["check_id"] == "quadratic_homogeneity" and not recs[0]["passed"]
    assert math.isnan(float(recs[0]["max_residual"]))


REGISTRY_IDS = [
    "clifford_structure", "clifford_anticommutation", "fierz_identity",
    "companion_commutation_table", "norm_identity", "quadratic_homogeneity",
    "octet_convention", "fiber_roundtrip_A", "section_identity_A",
    "fiber_roundtrip_B", "section_identity_B", "rotor_closure_T",
    "rotor_closure_Q", "rotor_cross_commutation", "casimir_equality",
    "phase_constraint_A", "phase_constraint_A_offsets", "derivative_split_A",
    "momentum_equivalence_A", "laplacian_split_A", "phase_constraint_B",
    "phase_constraint_B_offsets", "derivative_split_B",
    "momentum_equivalence_B", "laplacian_split_B", "fd_convergence_order",
    "gauge_properties_A", "gauge_closed_vs_numeric_A",
    "frame_x_independence_A", "gauge_angle_independence_A",
    "gauge_properties_B", "gauge_closed_vs_numeric_B",
    "frame_x_independence_B", "gauge_angle_independence_B",
    "gauge_reflection_map", "spectrum_structure", "bisection_cross_check",
    "alternating_branch_caseA", "wigner_ladder", "wigner_eigenrelations",
    "null_vector_residual", "angular_factor_eigen_A", "angular_factor_eigen_B",
    "oscillator_gaussian", "radial_duality", "separation_consistency_J0",
    "separation_consistency_J1", "consistency_refinement",
]


def test_registry_order_is_pinned():
    # each check is seeded by its position, so a reordering reseeds the suite
    assert [row.id for row in harness._registry(SuiteConfig())] == REGISTRY_IDS


def _nan_on_call(real, k):
    """``real`` with the result of its k-th call (1-based) turned into NaN."""
    calls = [0]

    def fake(*args, **kwargs):
        calls[0] += 1
        out = real(*args, **kwargs)
        return out * math.nan if calls[0] == k else out

    return fake


def _nan_in_row(real, i):
    """``real`` whose returned stack has row ``i`` turned into NaN."""

    def fake(*args, **kwargs):
        out = real(*args, **kwargs).copy()
        out[i] = math.nan
        return out

    return fake


def _nan_in_sample(fn, call=1):
    """``fn`` whose ``call``-th call (1-based) returns one value turned into
    NaN: index 0 on every axis but the trailing sample axis, index 1 there.
    On a stencil batch that is one stencil point of the batch's second
    sample."""
    calls = [0]

    def poisoned(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        calls[0] += 1
        if calls[0] == call:
            out = out.astype(np.result_type(out, float))
            out[(0,) * (out.ndim - 1) + (1,)] = math.nan
        return out

    return poisoned


def _nan_in_first_made(make, call=1):
    """``make`` whose first made field is :func:`_nan_in_sample`'s."""
    made = [0]

    def wrapped(*args, **kwargs):
        field = make(*args, **kwargs)
        made[0] += 1
        return _nan_in_sample(field, call) if made[0] == 1 else field

    return wrapped


@pytest.mark.parametrize(
    "module, name, poison, row_id, n",
    [
        # the batch's residuals are (relation, sample): sample 2's first one
        (opcalc, "commutator_residuals", _nan_in_sample, "rotor_closure_T", 100),
        # one draw per sample: a NaN point makes the second sample's residual
        # NaN, and the stack around it is still evaluated
        (harness, "sample_xi", lambda real: _nan_on_call(real, 2),
         "quadratic_homogeneity", 50),
        # the row draws its points as one stack: its second row is the NaN
        (harness, "sample_xi", lambda real: _nan_in_row(real, 1), "fiber_roundtrip_A", 100),
        (harness, "sample_x", lambda real: _nan_on_call(real, 2), "section_identity_B", 60),
    ],
    ids=["finite_difference", "algebraic", "fiber_roundtrip", "section_identity"],
)
def test_nan_residual_after_the_first_sample_fails(
    monkeypatch, module, name, poison, row_id, n
):
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    (r,) = harness.run_row(SuiteConfig(), row_id, np.random.default_rng(3))
    assert r.passed is False
    assert math.isnan(r.max_residual)
    assert r.n_samples == n


def _nan_in_first_offset(offsets):
    return (_nan_in_sample(offsets[0]), *offsets[1:])


def _nan_in_second_row(gradients):
    """``fiber_phase_gradients`` whose first call returns one NaN entry in
    row 1 of its batch's D: sample 2's angle gradients."""
    calls = [0]

    def poisoned(*args, **kwargs):
        D, Dbar = gradients(*args, **kwargs)
        calls[0] += 1
        if calls[0] == 1:
            D = D.copy()
            D[1, 0, 0] = math.nan
        return D, Dbar

    return poisoned


# Each batched check meets its NaN at one stencil point of sample 2 of its
# first batch: in the stacked test field (the rotor rows and
# casimir_equality: their stacked angle polynomials), the angular factor,
# the first angle offset or (after the value at the points) the radial field.  The gauge checks meet it in
# one entry of sample 2's angle gradients in their first stacked frame or
# coupling.
@pytest.mark.parametrize(
    "module, name, poison, row_id",
    [
        (harness._Draws, "polys", _nan_in_first_made, "rotor_closure_Q"),
        (harness._Draws, "polys", _nan_in_first_made, "casimir_equality"),
        (harness._Draws, "fields", _nan_in_first_made, "laplacian_split_B"),
        (harness._Draws, "fields", _nan_in_first_made, "momentum_equivalence_A"),
        (harness._Draws, "polys", _nan_in_first_made, "rotor_cross_commutation"),
        (separation, "angular_factor", _nan_in_sample, "wigner_eigenrelations"),
        (separation, "angular_factor", _nan_in_sample, "angular_factor_eigen_A"),
        (harness, "_TEST_OFFSETS", _nan_in_first_offset, "phase_constraint_B_offsets"),
        (harness, "_radial_field", lambda make: _nan_in_first_made(make, call=2),
         "separation_consistency_J1"),
        (gauge, "fiber_phase_gradients", _nan_in_second_row, "gauge_closed_vs_numeric_A"),
        (gauge, "fiber_phase_gradients", _nan_in_second_row, "frame_x_independence_B"),
        (gauge, "fiber_phase_gradients", _nan_in_second_row, "gauge_angle_independence_A"),
    ],
    ids=["rotor_closure_Q", "casimir_equality", "laplacian_split_B",
         "momentum_equivalence_A", "rotor_cross_commutation", "wigner_eigenrelations",
         "angular_factor_eigen_A", "phase_constraint_B_offsets",
         "separation_consistency_J1", "gauge_closed_vs_numeric_A",
         "frame_x_independence_B", "gauge_angle_independence_A"],
)
def test_nan_at_one_stencil_point_fails_the_check(monkeypatch, module, name, poison, row_id):
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    (r,) = harness.run_row(SuiteConfig(), row_id, np.random.default_rng(3))
    assert r.passed is False
    assert math.isnan(r.max_residual)


_BATCH_CFG = SuiteConfig(samples=10)
_DRAWN_ROWS = [row for row in harness._registry(_BATCH_CFG) if row.draws]


def _count(drawn):
    """The number of samples in a row's draws: a list's or a sample-first
    array's length, a test field stack's sample count, a tuple's first
    part's."""
    if isinstance(drawn, tuple):
        return _count(drawn[0])
    if isinstance(drawn, harness._AnglePoly):
        return drawn.amp.shape[-1]
    if isinstance(drawn, harness._XPhiField):
        return len(drawn.gaussian)
    return len(drawn)


def _one_draw(row, drawn, i, n):
    """Draw i of the ``n`` in a row's draws, as draws of one sample: a list
    or a sample-first array sliced, angles (3, n) and a test field stack's
    parameters sliced on their trailing sample axis, a tuple part by part.
    casimir_equality's polynomial stack holds its odd samples alone."""
    if row.id == "casimir_equality":
        keys, phi, polys = drawn
        k = keys[:i].count(None)
        take = slice(k, k + (keys[i] is None))
        return (keys[i:i + 1], phi[:, i:i + 1],
                harness._AnglePoly(*(p[..., take] for p in (polys.amp, polys.freq, polys.phase))))
    if isinstance(drawn, list):
        return drawn[i:i + 1]
    if isinstance(drawn, tuple):
        return tuple(_one_draw(row, d, i, n) for d in drawn)
    if isinstance(drawn, (harness._AnglePoly, harness._XPhiField)):
        return type(drawn)(*(_one_draw(row, getattr(drawn, f.name), i, n)
                             for f in dataclasses.fields(drawn)))
    return drawn[i:i + 1] if len(drawn) == n else drawn[..., i:i + 1]


@pytest.mark.parametrize("row", _DRAWN_ROWS, ids=[row.id for row in _DRAWN_ROWS])
def test_batched_residuals_equal_one_sample_calls(row):
    # row i of a row's residual array is its evaluation of draw i alone, and
    # the runner's record is the worst of the array over every draw
    cfg = _BATCH_CFG
    drawn = row.draws(cfg, np.random.default_rng(3), **row.kw)
    out = row.evaluate(cfg, drawn, **row.kw)
    recs = harness.run_row(cfg, row, np.random.default_rng(3))
    multi = len(row.record_ids) > 1
    batches = out if multi else (out,)
    assert [rec.check_id for rec in recs] == list(row.record_ids)
    if isinstance(out, harness.Measured):
        # one pre-reduced value over all draws: no per-draw rows to compare
        assert (recs[0].n_samples, recs[0].max_residual) == (out.n, float(out.value))
        return
    n = _count(drawn)
    singles = [row.evaluate(cfg, _one_draw(row, drawn, i, n), **row.kw) for i in range(n)]
    for k, (rec, batch) in enumerate(zip(recs, batches)):
        single = np.concatenate([s[k] if multi else s for s in singles])
        assert len(batch) == n and np.isfinite(batch).all()
        assert np.array_equal(batch, single)
        assert rec.n_samples == len(batch)
        assert rec.max_residual == np.max(batch)


# The one-sample loops that the stacked algebraic checks replaced, kept as
# references: each draws and evaluates one sample at a time.

def _loop_column(rng):
    """One potential column as the per-sample loops drew it."""
    a = harness._uniform(rng, -1.2, 1.2, 3)
    return (float(a[0]), 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))


def _worst_of_samples(cfg, check_id, case, residuals, default_tol, detail=""):
    """The record over per-sample residuals of any shape: the worst of each
    sample's own maximum, over the samples."""
    per_sample = [np.max(r) for r in residuals]
    return harness._worst_of(cfg, check_id, case, per_sample, default_tol, detail)


def _loop_homogeneity(cfg, rng):
    def residuals():
        for _ in range(50):
            xi = harness.sample_xi(rng, harness.CASE_A, cfg.exclusion_eps)
            c = rng.uniform(0.3, 2.0)
            yield np.abs(transform.forward(c * xi) - c * c * transform.forward(xi))
    return _worst_of_samples(cfg, "quadratic_homogeneity", "-", residuals(), 1e-12)


def _octet_row(u):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    return np.array([
        u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4 - u5 * u5 - u6 * u6 - u7 * u7 - u8 * u8,
        2.0 * (u1 * u5 + u2 * u6 - u3 * u7 - u4 * u8),
        2.0 * (u1 * u6 - u2 * u5 + u3 * u8 - u4 * u7),
        2.0 * (u1 * u7 + u2 * u8 + u3 * u5 + u4 * u6),
        2.0 * (u1 * u8 - u2 * u7 - u3 * u6 + u4 * u5),
    ])


def _loop_octet(cfg, rng):
    conv = transform.OCTET_CONVENTION
    u = rng.standard_normal((1000, 8))
    target = np.stack([_octet_row(row) for row in u])
    res = float(np.abs(target - conv.mapped_complex_x(u)).max())
    return harness._result(cfg, "octet_convention", "-", 1000, res, 1e-12,
                           json.dumps(conv.describe()))


def _scalar_angle_gap(a, b):
    delta = abs(a - b)
    return min(delta % harness.TWO_PI, harness.TWO_PI - delta % harness.TWO_PI)


def _loop_fiber_roundtrip(cfg, rng, case):
    def residuals():
        for _ in range(100):
            xi = harness.sample_xi(rng, case, max(cfg.exclusion_eps, 0.1))
            x = transform.forward(xi)
            phi = transform.extra_angles(xi, case)
            xi2 = transform.fiber_section(x, phi, case)
            phi2 = transform.extra_angles(xi2, case)
            yield (
                float(np.abs(transform.forward(xi2) - x).max())
                / transform._row_norms(x)[()],
                _scalar_angle_gap(phi[0], phi2[0]),
                _scalar_angle_gap(phi[1], phi2[1]),
                abs(phi[2] - phi2[2]),
            )
    return _worst_of_samples(cfg, "fiber_roundtrip", case.tag, residuals(), 1e-10)


def _loop_section_identity(cfg, rng, case):
    def residuals():
        for _ in range(60):
            x = harness.sample_x(rng, case, max(cfg.exclusion_eps, 0.1))
            phi = harness.sample_angles(rng, margin=0.15)
            xi = transform.fiber_section(x, phi, case)
            yield (float(np.abs(transform.forward(xi) - x).max())
                   / float(np.linalg.norm(x)))
    return _worst_of_samples(cfg, "section_identity", case.tag, residuals(), 1e-10)


def _loop_spectrum(cfg, rng):
    def residuals():
        for J in range(cfg.J_max + 1):
            for _ in range(20):
                col = _loop_column(rng)
                s = math.sqrt(col[0] ** 2 + (col[1] + col[2]).real ** 2
                              + (1j * (col[1] - col[2])).real ** 2)
                roots = separation.separation_roots(J, col)
                expected = np.array([m * s for m in range(-J, J + 1)])
                yield (np.abs(roots - expected).max(),
                       np.abs(roots + roots[::-1]).max())
    return _worst_of_samples(cfg, "spectrum_structure", "-", residuals(), 1e-10,
                             "ladder m*|A| and symmetry about zero")


def _loop_bisection(cfg, rng):
    def residuals():
        for J in range(2, min(3, cfg.J_max) + 1):
            for _ in range(6):
                col = _loop_column(rng)
                eig = separation.separation_roots(J, col)
                bis = separation.det_bisection_roots(J, col)
                yield np.abs(eig - bis) if len(bis) == len(eig) else math.inf
    return _worst_of_samples(cfg, "bisection_cross_check", "-", residuals(), 1e-10)


_STACKED = [
    ("quadratic_homogeneity", _loop_homogeneity, {}),
    ("octet_convention", _loop_octet, {}),
    *((f"{stem}_{c.tag}", loop, {"case": c})
      for c in (harness.CASE_A, harness.CASE_B)
      for stem, loop in (("fiber_roundtrip", _loop_fiber_roundtrip),
                         ("section_identity", _loop_section_identity))),
    ("spectrum_structure", _loop_spectrum, {}),
    ("bisection_cross_check", _loop_bisection, {}),
]


@pytest.mark.parametrize("seed", [1729, 3, 201])
@pytest.mark.parametrize("row_id, loop, kwargs", _STACKED, ids=[row[0] for row in _STACKED])
def test_stacked_check_equals_its_one_sample_loop(row_id, loop, kwargs, seed):
    cfg = SuiteConfig()
    (got,) = harness.run_row(cfg, row_id, np.random.default_rng(seed))
    want = loop(cfg, np.random.default_rng(seed), **kwargs)
    assert got.max_residual == want.max_residual
    assert got.n_samples == want.n_samples
    assert got == want


def test_separation_consistency_j0_is_an_exact_cancellation():
    for seed in (1729, 201, 7):
        rep = run_suite(SuiteConfig(seed=seed), only=["separation_consistency_J0"])
        (rec,) = rep.checks
        assert rec.max_residual < 1e-15, (seed, rec.max_residual)


def _one_poly(stack, i):
    """Polynomial i of a stack, without a sample axis."""
    return harness._AnglePoly(stack.amp[:, i], stack.freq[..., i], stack.phase[:, i])


def test_angle_poly_batch_equals_its_rows():
    rng = np.random.default_rng(8)
    draws = harness._Draws(rng)
    for _ in range(40):
        draws.poly()
    stack = draws.polys()
    polys = [_one_poly(stack, i) for i in range(40)]
    angles = [harness.sample_angles(rng) for _ in range(40)]
    batch = np.stack(angles, axis=-1)
    stacked = stack(batch)
    rows = np.array([g(phi) for g, phi in zip(polys, angles)])
    assert np.array_equal(stacked, rows)
    # and one polynomial on a 40-row batch of angles against each angle alone
    assert np.array_equal(polys[0](batch), [polys[0](phi) for phi in angles])


@pytest.mark.parametrize("case", [harness.CASE_A, harness.CASE_B], ids=["A", "B"])
def test_gauge_properties_equal_the_batch_first_sums_bit_for_bit(case):
    cfg = SuiteConfig(samples=2000)
    pts = harness.sample_x(np.random.default_rng(5), case, cfg.exclusion_eps,
                           size=10 * cfg.samples)
    A = a_field_closed(pts, case)
    r, s = np.linalg.norm(pts, axis=1), case.axis_sign * pts[:, 4]
    gram = np.einsum("nlk,nlj->nkj", A, A)
    gram -= ((r - s) / (r * r * (r + s)))[:, None, None] * np.eye(3)
    trans, norm = harness._gauge_properties(cfg, pts, case)
    # each point's largest entry of the batch-first sums
    assert trans.shape == norm.shape == (len(pts),)
    assert np.array_equal(trans, np.abs(np.einsum("nl,nlk->nk", pts, A)).max(axis=1))
    assert np.array_equal(norm, np.abs(gram).max(axis=(1, 2)))


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 20000])
@pytest.mark.parametrize("case", [harness.CASE_A, harness.CASE_B], ids=["A", "B"])
def test_gauge_properties_equal_the_one_block_kernel_bit_for_bit(case, n):
    pts = harness.sample_x(np.random.default_rng(n), case, 1e-3, size=n)
    trans, norm = harness._gauge_properties(SuiteConfig(), pts, case)
    # the one-block kernel's (3, n) and (3, 3, n) residuals, folded per point
    t, g = harness._gauge_kernel(pts, case)
    for blocked, whole in zip((trans, norm), (t.max(axis=0), g.max(axis=(0, 1)))):
        assert blocked.shape == whole.shape == (n,)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(np.signbit(blocked), np.signbit(whole))


def test_gauge_properties_peak_below_a_megabyte_above_their_outputs():
    pts = harness.sample_x(np.random.default_rng(3), harness.CASE_A, 1e-3, size=20000)
    harness._gauge_properties(SuiteConfig(), pts, harness.CASE_A)
    tracemalloc.start()
    try:
        trans, norm = harness._gauge_properties(SuiteConfig(), pts, harness.CASE_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the outputs are 320 kB; a whole-stack evaluation peaks 4.2 MB above them
    assert peak - (trans.nbytes + norm.nbytes) < 1e6


@pytest.mark.parametrize("case", ["A", "B"])
def test_gauge_nan_point_in_the_last_block_fails_both_records(monkeypatch, case):
    # 5,000 points are three blocks; the NaN is the last block's last point
    monkeypatch.setattr(harness, "sample_x", _nan_in_row(harness.sample_x, -1))
    records = harness.run_row(SuiteConfig(samples=500), f"gauge_properties_{case}",
                              np.random.default_rng(3))
    assert [r.check_id for r in records] == [f"gauge_transversality_{case}",
                                             f"gauge_normalization_{case}"]
    for r in records:
        assert r.passed is False and math.isnan(r.max_residual) and r.n_samples == 5000


def test_gauge_fold_keeps_one_nan_entry_of_a_point(monkeypatch):
    # one NaN entry of the last block's residuals, the point's other entries
    # finite: the fold gives that point NaN and leaves every other point alone
    kernel = harness._gauge_kernel

    def poisoned(pts, case):
        t, g = kernel(pts, case)
        if len(pts) < 2048:
            t[1, -1] = g[2, 0, -1] = math.nan
        return t, g

    pts = harness.sample_x(np.random.default_rng(4), harness.CASE_A, 1e-3, size=5000)
    trans, norm = harness._gauge_properties(SuiteConfig(), pts, harness.CASE_A)
    monkeypatch.setattr(harness, "_gauge_kernel", poisoned)
    nan_trans, nan_norm = harness._gauge_properties(SuiteConfig(), pts, harness.CASE_A)
    for clean, folded in ((trans, nan_trans), (norm, nan_norm)):
        assert math.isnan(folded[-1])
        assert np.array_equal(folded[:-1], clean[:-1])


def _loop_wigner_ladder(cfg):
    """The ladder row as one loop per (J, q, p, sign), its target evaluated
    per ladder: the reference for the row's one evaluation per target."""
    beta = np.linspace(0.12, math.pi - 0.12, 20)
    phi = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    grid = (phi[None, None, :], phi[None, :, None], beta[:, None, None])
    maxima = []
    for J in range(min(2, cfg.J_max) + 1):
        for q in range(-J, J + 1):
            for p in range(-J, J + 1):
                for sign in (1, -1):
                    diff = separation.ladder_apply(sign, J, q, p, grid)
                    if abs(q + sign) <= J:
                        coef = math.sqrt((J - sign * q) * (J + sign * q + 1))
                        diff = diff - coef * separation.wigner(J, q + sign, p, grid)
                    maxima.append(np.abs(diff).max())
    return harness.Measured(len(maxima) * beta.size * phi.size ** 2, np.max(maxima))


@pytest.mark.parametrize("J_max, targets", [(1, 9), (2, 34), (3, 34)])
def test_wigner_ladder_equals_the_per_ladder_loop(monkeypatch, J_max, targets):
    cfg = SuiteConfig(J_max=J_max)
    ref = _loop_wigner_ladder(cfg)
    calls = []
    wigner = separation.wigner
    monkeypatch.setattr(separation, "wigner",
                        lambda J, q, p, grid: calls.append((J, q, p)) or wigner(J, q, p, grid))
    got = harness._wigner_ladder(cfg, None)
    assert got.n == ref.n and np.array_equal(got.value, ref.value)
    # each target once: every phi^J_{q,p} with J >= 1 that a ladder lands on
    assert len(calls) == len(set(calls)) == targets


@pytest.mark.parametrize("samples", [1, 2000])
def test_norm_draws_equal_the_complex_quotient(samples):
    # a product by 0.5 and the quotient by 2 + 0j round alike; only an exactly
    # zero draw could differ, and then only in the sign of the zero
    cfg = SuiteConfig(samples=samples)
    for seed in range(200):
        gen = np.random.default_rng(seed)
        want = (gen.standard_normal((10 * samples, 4))
                + 1j * gen.standard_normal((10 * samples, 4))) / 2.0
        assert np.array_equal(harness._norm_draws(cfg, np.random.default_rng(seed)), want)


def test_gauge_reflection_counts_only_evaluated_draws(monkeypatch):
    real = harness.sample_x
    drawn = []

    def sample_x(*args, **kwargs):
        # every fourth row lands on the x5 axis, which the check skips
        x = real(*args, **kwargs)
        x[3::4] = [0.0, 0.0, 0.0, 0.0, 1.0]
        drawn.append(len(x))
        return x

    monkeypatch.setattr(harness, "sample_x", sample_x)
    (r,) = harness.run_row(SuiteConfig(), "gauge_reflection_map", np.random.default_rng(5))
    assert drawn == [200]
    assert r.n_samples == 150 and r.passed


@pytest.mark.parametrize(
    "row_id, calls",
    [
        # the polynomials' real call and the Wigner functions' complex one
        ("casimir_equality", {"casimir_residual": 2}),
        ("wigner_eigenrelations", {"apply_euler_op": 1, "casimir": 1}),
        ("angular_factor_eigen_A", {"apply_euler_op": 1, "casimir": 1}),
    ],
)
def test_grouped_rows_make_one_engine_call_per_operator(monkeypatch, row_id, calls):
    # the (J, q, p) and (J, p) groups share one call, each group's function
    # evaluated on its own samples
    seen = dict.fromkeys(calls, 0)
    for name in calls:
        def counted(*args, real=getattr(opcalc, name), name=name):
            seen[name] += 1
            return real(*args)

        monkeypatch.setattr(opcalc, name, counted)
    (r,) = harness.run_row(SuiteConfig(), row_id, np.random.default_rng(3))
    assert r.passed and r.n_samples > 0
    assert seen == calls


def test_check_that_evaluates_no_sample_fails():
    # J_max = 0 leaves the spin >= 1 and spin >= 2 loops of these checks
    # empty; validate() rejects it, so the checks are called directly
    cfg = SuiteConfig(J_max=0)
    rng = np.random.default_rng(0)
    checks = [
        *harness.run_row(cfg, "bisection_cross_check", rng),
        *harness.run_row(cfg, "angular_factor_eigen_A", rng),
    ]
    ids = [c.check_id for c in checks]
    assert ids == ["bisection_cross_check", "angular_factor_eigen_A"]
    for c in checks:
        assert c.n_samples == 0 and not c.passed
        assert c.detail == "no sample evaluated"
    assert not all(c.passed for c in checks)


def test_consistency_check_draws_only_configured_cases(monkeypatch):
    real = harness.sample_x
    seen = []

    def sample_x(rng, case, *args, **kwargs):
        seen.append(case.tag)
        return real(rng, case, *args, **kwargs)

    monkeypatch.setattr(harness, "sample_x", sample_x)
    (r,) = harness.run_row(SuiteConfig(cases=("B",)), "separation_consistency_J0",
                           np.random.default_rng(4))
    assert seen == ["B"] * 20
    assert r.n_samples == 20 and r.passed


class _BoundedRng:
    """A generator that raises once it has served ``limit`` draws, so a
    sampler that never gives up fails the test instead of hanging it."""

    def __init__(self, rng, limit=100_000):
        self._rng = rng
        self._left = limit

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            self._left -= 1
            if self._left < 0:
                raise RuntimeError("the sampler did not give up")
            return method(*args, **kwargs)

        return draw


@pytest.mark.parametrize(
    "sampler, eps, kwargs",
    [
        (harness.sample_xi, 0.9, {}),
        # a sample_xi batch gives up after MAX_DRAWS rejections in a row, a
        # sample_x batch after a number of candidates proportional to its size
        (harness.sample_xi, 0.9, {"size": 100_000}),
        (harness.sample_x, 2.5, {}),
        (harness.sample_x, 2.5, {"size": 100_000}),
    ],
    ids=["sample_xi-0.9", "sample_xi_batch-0.9", "sample_x-2.5", "sample_x_batch-2.5"],
)
def test_samplers_give_up_on_an_infeasible_exclusion(sampler, eps, kwargs):
    rng = _BoundedRng(np.random.default_rng(0))
    with pytest.raises(ConfigInvalid):
        sampler(rng, harness.CASE_A, eps, **kwargs)


def _scalar_sample_x(rng, case, exclusion_eps, rmin=0.6, rmax=2.5):
    """The one-draw-at-a-time loop that sample_x batches."""
    for _ in range(harness.MAX_DRAWS):
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        x = v * rng.uniform(rmin, rmax)
        r = float(np.linalg.norm(x))
        if r + case.axis_sign * x[4] > exclusion_eps * r:
            return x
    raise ConfigInvalid("no draw cleared the exclusion")


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.7])
@pytest.mark.parametrize("case", [harness.CASE_A, harness.CASE_B], ids=["A", "B"])
def test_one_point_sample_x_draws_what_the_scalar_loop_draws(case, eps):
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    got = np.array([harness.sample_x(rng, case, eps) for _ in range(200)])
    want = np.array([_scalar_sample_x(ref, case, eps) for _ in range(200)])
    assert got.shape == (200, 5)
    assert np.array_equal(got, want)
    # both generators stand at the same place in their streams
    assert rng.random() == ref.random()


def _scalar_sample_xi(rng, case, exclusion_eps, scale=1.0):
    """The one-point loop with two draws of four normals per candidate: the
    reference that one-point calls and stacks of sample_xi must equal."""
    ia, ib = case.pair
    for _ in range(harness.MAX_DRAWS):
        xi = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2.0
        norm = np.linalg.norm(xi)
        if norm < 1e-3:
            continue
        if min(abs(xi[ia]), abs(xi[ib])) > exclusion_eps * norm:
            return xi
    raise ConfigInvalid("no draw cleared the exclusion")


def _scalar_sample_angles(rng, margin):
    return np.array([rng.uniform(0.0, harness.TWO_PI), rng.uniform(0.0, harness.TWO_PI),
                     rng.uniform(margin, math.pi - margin)])


def _same_stream(rng, ref):
    """Both generators stand at the same place in their streams."""
    return rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "eps, scale",
    # eps 0.6 accepts about 2% of the candidates, so most rounds keep only
    # some of theirs; eps 0.65 accepts about 0.4%, so 100 points take some
    # 27,000 candidates, more than MAX_DRAWS in all but fewer per point
    [(0.0, 1.0), (0.0, 1.4), (0.05, 1.0), (0.05, 1.4), (0.6, 1.0), (0.6, 1.4),
     (0.65, 1.0)],
)
@pytest.mark.parametrize("case", [harness.CASE_A, harness.CASE_B], ids=["A", "B"])
def test_sample_xi_stack_draws_what_one_point_calls_draw(case, eps, scale):
    for seed, n in ((8, 1), (9, 7), (10, 100)):
        rng, ref, old = (np.random.default_rng(seed) for _ in range(3))
        stack = harness.sample_xi(rng, case, eps, scale, size=n)
        points = [harness.sample_xi(ref, case, eps, scale) for _ in range(n)]
        loop = [_scalar_sample_xi(old, case, eps, scale) for _ in range(n)]
        assert stack.shape == (n, 4) and points[0].shape == (4,)
        assert stack.tobytes() == np.array(points).tobytes() == np.array(loop).tobytes()
        assert _same_stream(rng, ref) and _same_stream(rng, old)


@pytest.mark.parametrize("margin", [0.15, 0.25, 0.3])
def test_sample_angles_stack_draws_what_one_point_calls_draw(margin):
    for seed, n in ((8, 1), (9, 7), (10, 300)):
        rng, ref, old = (np.random.default_rng(seed) for _ in range(3))
        stack = harness.sample_angles(rng, margin, size=n)
        points = [harness.sample_angles(ref, margin) for _ in range(n)]
        loop = [_scalar_sample_angles(old, margin) for _ in range(n)]
        assert stack.shape == (3, n) and points[0].shape == (3,)
        assert stack.dtype == points[0].dtype == float
        # row phi_k of the stack holds the phi_k of the one-point calls
        for k, row in enumerate(stack):
            assert row.tobytes() == np.array([p[k] for p in points]).tobytes()
            assert row.tobytes() == np.array([p[k] for p in loop]).tobytes()
        assert _same_stream(rng, ref) and _same_stream(rng, old)


# Every bound pair the library draws between: angles (with the margins
# 0.15, 0.25, 0.3 and separation's 0.5), radii, field and column
# coefficients, homogeneity factors and the default and gate export regions.
_UNIFORM_BOUNDS = [
    (0.0, harness.TWO_PI),
    *((m, math.pi - m) for m in (0.15, 0.25, 0.3, 0.5)),
    (0.6, 2.5), (0.9, 2.0), (0.8, 2.0), (1.0, 1.6), (0.2, 0.6), (0.3, 2.0),
    (-0.3, 0.3), (-1.2, 1.2), (0.5, 2.0), (-2.0, 2.0),
]


@pytest.mark.parametrize("lo, hi", _UNIFORM_BOUNDS)
def test_uniform_draws_what_rng_uniform_draws(lo, hi):
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    for size in (None, 1, 5, (4000, 3)):
        got, want = harness._uniform(rng, lo, hi, size), ref.uniform(lo, hi, size)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # array bounds broadcast against the trailing axis, as in sample_angles
    lo3, hi3 = np.array([lo, 0.0, lo]), np.array([hi, harness.TWO_PI, hi])
    got, want = harness._uniform(rng, lo3, hi3, (50, 3)), ref.uniform(lo3, hi3, (50, 3))
    assert got.tobytes() == want.tobytes()
    assert _same_stream(rng, ref)


# Every (lo, hi) the library draws an integer between: _angle_poly's
# frequencies, casimir_equality's J, q and p, null_vector_residual's J and
# root index, and angular_factor_eigen's p.
_INTEGER_BOUNDS = [
    (-2, 3), (0, 3),
    *((-J, J + 1) for J in range(4)), *((0, 2 * J + 1) for J in range(4)),
    *((0, J_max + 1) for J_max in range(1, 5)),
]


def _state(rng):
    """The bit generator's state, arrays included, as one comparable string."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64,
                                           np.random.MT19937])
def test_scalar_draws_equal_generator_draws(bit_generator):
    uniform, integer = transform._scalar_draws(np.random.Generator(bit_generator(23)))
    # the Generator the draws came from is gone; they keep its bit generator
    rng, ref = np.random.Generator(integer.bit_generator), np.random.Generator(bit_generator(23))
    assert uniform.bit_generator is integer.bit_generator
    parities = set()
    for k in range(120):
        # a varying count of integer draws leaves next_uint32's half-word
        # buffer full or empty before the next draw
        for lo, hi in _INTEGER_BOUNDS[:k % len(_INTEGER_BOUNDS) + 1]:
            got = integer(lo, hi)
            assert type(got) is int and got == ref.integers(lo, hi)
        parities.add(rng.bit_generator.state.get("has_uint32"))
        lo, hi = _UNIFORM_BOUNDS[k % len(_UNIFORM_BOUNDS)]
        got = uniform(lo, hi)
        assert type(got) is float and got.hex() == ref.uniform(lo, hi).hex()
        # the helper and the Generator share one stream
        shape = [(), (3,), (2, 3)][k % 3]
        assert rng.standard_normal(shape).tobytes() == ref.standard_normal(shape).tobytes()
        assert rng.random((k % 4, 3)).tobytes() == ref.random((k % 4, 3)).tobytes()
        assert _state(rng) == _state(ref)
    assert parities == ({None} if bit_generator is np.random.MT19937 else {0, 1})


@pytest.mark.parametrize("lo, hi", sorted(set(_INTEGER_BOUNDS)))
def test_bounded_rejects_exactly_the_low_words_below_the_threshold(lo, hi):
    def run(words):
        stream, used = iter(words), []
        value = transform._bounded(lambda _: used.append(next(stream)) or used[-1], None)(lo, hi)
        return value, used

    span, top = hi - lo, 2**32 - 1
    threshold = 2**32 % span
    if span == 1:
        assert run([]) == (lo, [])
        return
    # a zero word leaves a zero low word: rejected unless span is a power of two
    assert run([0, top]) == ((hi - 1, [0, top]) if threshold else (lo, [0]))
    if span % 2:
        # the words whose low words are threshold - 1 and threshold
        inverse = pow(span, -1, 2**32)
        below, at = ((t * inverse) % 2**32 for t in (threshold - 1, threshold))
        assert run([below, at]) == (lo + (at * span >> 32), [below, at])


def test_angle_poly_draws_what_generator_calls_draw():
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    draws = harness._Draws(rng)
    for _ in range(50):
        draws.poly()
    stack = draws.polys()
    for i in range(50):
        poly = _one_poly(stack, i)
        for t in range(3):
            assert poly.amp[t] == ref.uniform(0.2, 0.6)
            assert poly.freq[t].tolist() == ref.integers(-2, 3, size=3).tolist()
            assert poly.phase[t] == ref.uniform(0.0, harness.TWO_PI)
        assert poly.freq.dtype == float
    assert _same_stream(rng, ref)


@pytest.mark.parametrize("case", [harness.CASE_A, harness.CASE_B], ids=["A", "B"])
def test_sample_x_stack_lies_in_the_shell_and_clears_the_exclusion(case):
    eps, rmin, rmax = 0.6, 0.9, 2.0
    x = harness.sample_x(np.random.default_rng(2), case, eps, rmin, rmax, size=5000)
    assert x.shape == (5000, 5)
    r = np.linalg.norm(x, axis=1)
    assert r.min() >= rmin * (1 - 1e-15) and r.max() <= rmax * (1 + 1e-15)
    assert np.all(r + case.axis_sign * x[:, 4] > eps * r)


def test_batched_and_one_point_sample_x_agree_in_distribution():
    n, eps, case = 20_000, 0.5, harness.CASE_B
    batch = harness.sample_x(np.random.default_rng(3), case, eps, size=n)
    rng = np.random.default_rng(4)
    single = np.array([harness.sample_x(rng, case, eps) for _ in range(n)])

    def stats(x):
        r = np.linalg.norm(x, axis=1)
        return r, case.axis_sign * x[:, 4] / r

    for a, b in zip(stats(batch), stats(single)):
        se = math.sqrt((a.var() + b.var()) / n)
        assert abs(a.mean() - b.mean()) < 5 * se
        pooled = np.concatenate([a, b])
        for q in (0.1, 0.5, 0.9):
            # the standard error of a quantile, sqrt(q (1 - q) / n) / density,
            # with the density read off the pooled quantiles at q -+ 0.02
            spread = np.quantile(pooled, q + 0.02) - np.quantile(pooled, q - 0.02)
            se = math.sqrt(2 * q * (1 - q) / n) * spread / 0.04
            assert abs(np.quantile(a, q) - np.quantile(b, q)) < 5 * se


def test_conventions_are_recorded():
    conv = resolved_conventions()
    assert conv["companion_matrix"]["origin"] == "direct"
    assert conv["companion_matrix"]["commutation_with_generators"]["1"] == "anticommutes"
    assert "xi" in conv["octet_map"]
    assert any("u6" in f for f in conv["octet_map"]["octet_forms"])
    assert "ladder index" in conv["angular_expansion_index_order"]
    assert "structure_sign" in conv["rotor_algebra"]


# --- exports -------------------------------------------------------------------

def test_fields_export_north_pole(tmp_path):
    out = tmp_path / "fields.jsonl"
    meta = fields_cmd("A", 1, str(out), region="point:0,0,0,0,1.5", seed=3)
    assert meta["written"] == 1 and meta["skipped"] == 0
    lines = out.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["meta"]["written"] == 1
    rec = json.loads(lines[1])
    assert np.abs(np.array(rec["A"])).max() == 0.0
    assert rec["props"]["transversality"] == 0.0


def test_fields_export_shell(tmp_path):
    out = tmp_path / "fields.jsonl"
    meta = fields_cmd("A", 1000, str(out), region="shell:0.5,2.0", seed=5)
    assert meta["written"] == 1000
    worst = 0.0
    for line in out.read_text().splitlines()[1:]:
        rec = json.loads(line)
        worst = max(
            worst,
            rec["props"]["transversality"],
            rec["props"]["normalization_residual"],
        )
    assert worst < 1e-12


def test_fields_export_skips_singular_axis(tmp_path):
    out = tmp_path / "fields.jsonl"
    meta = fields_cmd("A", 3, str(out), region="point:0,0,0,0,-1.0", seed=1)
    assert meta["skipped"] == 3 and meta["written"] == 0


def _fields_reference(case_tag, n, out_path, region, seed):
    """fields_cmd as one closed-form call per point: the reference the
    stacked export must match byte for byte."""
    case = harness.CASE_A if case_tag == "A" else harness.CASE_B
    reg = harness._parse_region(region)
    rng = np.random.default_rng(seed)
    records, skipped = [], 0
    for _ in range(n):
        if reg[0] == "shell":
            v = rng.standard_normal(5)
            x = v / np.linalg.norm(v) * rng.uniform(reg[1], reg[2])
        elif reg[0] == "box":
            x = rng.uniform(reg[1], reg[2], size=5)
        else:
            x = reg[1].copy()
        try:
            A = a_field_closed(x, case)
        except SingularAxis:
            skipped += 1
            continue
        r = float(np.linalg.norm(x))
        s = case.axis_sign
        scale = (r - s * x[4]) / (r * r * (r + s * x[4]))
        records.append({
            "x": [float(v) for v in x],
            "A": [[float(a) for a in row] for row in A],
            "props": {
                "transversality": float(np.abs(x @ A).max()),
                "normalization_residual": float(np.abs(A.T @ A - scale * np.eye(3)).max()),
            },
        })
    meta = {"meta": {"case": case_tag, "requested": n, "written": len(records),
                     "skipped": skipped, "region": region, "seed": seed}}
    with open(out_path, "w") as fh:
        for rec in [meta, *records]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


_EXPORT_REGIONS = {"shell": "shell:0.5,2.0", "box": "box:-2,2",
                   "point": "point:0.3,-0.2,0,-0.0,0.7", "axis_minus": "point:0,0,0,0,-1",
                   "axis_plus": "point:0,0,0,0,1", "origin": "shell:0,0"}


@pytest.mark.parametrize(
    "case, region, n",
    [pytest.param(case, region, 300, id=f"{name}-{case}")
     for name, region in _EXPORT_REGIONS.items() for case in "AB"]
    # 5,000 rows span three write blocks, the last one partial
    + [pytest.param("B", "shell:0.5,2.0", 5000, id="shell-B-5000")],
)
def test_fields_export_matches_per_point_reference(tmp_path, case, region, n):
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    for seed in (11, 1729):
        fields_cmd(case, n, str(got), region=region, seed=seed)
        _fields_reference(case, n, str(want), region, seed)
        assert got.read_bytes() == want.read_bytes()


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 2.0, 1e16,
                1.7976931348623157e+308]


def test_fields_lines_spell_the_sorted_json_record():
    values = _EDGE_FLOATS + [-v for v in _EDGE_FLOATS]
    for case in (harness.CASE_A, harness.CASE_B):
        # closed-form rows: A = sign * q[src], the padded source reading +0.0
        ref, _, templates = harness._fields_layout(case)
        src, sign = gauge._CLOSED_SRC, gauge._CLOSED_SIGN[case.tag]
        table, patterns, want = [], [], []
        for signs in range(16):
            # every value in every quotient (with each sign), prop and x column
            for k in range(len(values)):
                row = [values[(k + j) % len(values)] for j in range(11)]
                q = [math.copysign(v, -1.0 if signs >> j & 1 else 1.0)
                     for j, v in enumerate(row[:4])]
                A = sign * np.array(q + [math.nan, 0.0])[src]
                table.append([abs(v) for v in q] + row[4:])
                patterns.append(int(np.signbit(A.ravel()[ref]) @ (1 << np.arange(4))))
                want.append(json.dumps({"A": A.tolist(),
                                        "props": {"normalization_residual": row[4],
                                                  "transversality": row[5]},
                                        "x": row[6:]}, sort_keys=True) + "\n")
        assert sorted(src.ravel()[ref]) == [0, 1, 2, 3] and sorted(set(patterns)) == list(range(16))
        assert list(harness._fields_lines(np.array(table), np.array(patterns), templates)) == want


def test_fields_export_writes_each_case_signed_zero_as_the_x5_row(tmp_path, monkeypatch):
    out = tmp_path / "f.jsonl"
    for case, row in (("A", "[0.0, 0.0, 0.0]"), ("B", "[-0.0, -0.0, -0.0]")):
        fields_cmd(case, 50, str(out), region="box:-2,2")
        records = out.read_text().splitlines()[1:]
        assert len(records) == 50
        assert all(line.startswith('{"A": [[') and f"], {row}]," in line for line in records)
    # the x5 row of case B's table reaches the bytes
    written = out.read_bytes()
    table = {tag: signs.copy() for tag, signs in gauge._CLOSED_SIGN.items()}
    table["B"][4, 0] *= -1.0
    monkeypatch.setattr(gauge, "_CLOSED_SIGN", table)
    fields_cmd("B", 50, str(out), region="box:-2,2")
    assert out.read_bytes() == written.replace(b"[-0.0, -0.0, -0.0]", b"[0.0, -0.0, -0.0]")


def test_fields_export_peak_stays_near_its_table(tmp_path):
    out = str(tmp_path / "f.jsonl")
    fields_cmd("A", 10_000, out, region="box:-2,2")
    tracemalloc.start()
    try:
        fields_cmd("A", 10_000, out, region="box:-2,2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table is 1.76 MB and the export peaks at about 5 MB; with every
    # record held as Python objects at once it peaked at 18 MB
    assert peak < 8e6


# --- the output writer ------------------------------------------------------------

def _one_check_verify(monkeypatch):
    """``hurwitz verify`` over its first check alone, keeping each report the
    CLI writes."""
    reports = []

    def run_suite(cfg):
        reports.append(harness.run_suite(cfg, only=["clifford_structure"]))
        return reports[-1]

    monkeypatch.setattr(cli, "run_suite", run_suite)
    return reports


def test_shorter_rewrite_over_a_longer_file_equals_a_fresh_write(tmp_path, monkeypatch):
    old, fresh = tmp_path / "old.jsonl", tmp_path / "fresh.jsonl"
    fields_cmd("A", 300, str(old))
    fields_cmd("A", 5, str(old))
    fields_cmd("A", 5, str(fresh))
    assert old.read_bytes() == fresh.read_bytes()
    x = [0.4, -0.7, 0.2, 0.5, 0.3]
    separate_cmd(3, 0, "A", x, str(old))
    separate_cmd(0, 0, "A", x, str(old))
    separate_cmd(0, 0, "A", x, str(fresh))
    assert old.read_bytes() == fresh.read_bytes()
    reports = _one_check_verify(monkeypatch)
    old.write_bytes(b"~" * 256 * 1024)
    assert main(["verify", "--json", str(old)]) == 0
    assert old.read_bytes() == (reports[0].to_json() + "\n").encode()


def test_a_raising_writer_leaves_the_bytes_written_before_it(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"~" * 256 * 1024)

    def lines():
        yield "first\n"
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        harness._write_text(str(out), "head\n", lines())
    assert out.read_bytes() == b"head\nfirst\n"


def test_a_write_that_fails_leaves_no_byte_of_the_old_file(tmp_path):
    # a file-size limit below the export's length makes the flush of the
    # buffered export fail with EFBIG, the buffer still holding bytes that
    # fail again: the cut must not wait on them
    out, fresh = tmp_path / "out.jsonl", tmp_path / "fresh.jsonl"
    argv = ["separate", "--j", "3", "--p", "0", "--case", "A",
            "--point", "0.4,-0.7,0.2,0.5,0.3", "--out"]
    assert main([*argv, str(fresh)]) == 0
    limit = 1024
    assert fresh.stat().st_size > limit
    out.write_bytes(b"~" * 256 * 1024)
    child = (
        "import resource, signal, sys\n"
        "from hurwitz import cli\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        f"sys.exit(cli.main({[*argv, str(out)]!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr.startswith("io error: "), proc.stderr
    assert 0 < out.stat().st_size <= limit
    assert fresh.read_bytes().startswith(out.read_bytes())


_WRITING_COMMANDS = {
    "verify": ["verify", "--json"],
    "fields": ["fields", "--case", "A", "-n", "5", "--out"],
    "separate": ["separate", "--j", "1", "--p", "0", "--case", "A",
                 "--point", "0.4,-0.7,0.2,0.5,0.3", "--out"],
}


@pytest.mark.parametrize("command", list(_WRITING_COMMANDS))
def test_every_command_writes_a_stream_uncut(monkeypatch, capsys, command):
    # /dev/null cannot be truncated (ftruncate raises EINVAL)
    _one_check_verify(monkeypatch)
    assert main([*_WRITING_COMMANDS[command], "/dev/null"]) == 0


@pytest.mark.parametrize("command", list(_WRITING_COMMANDS))
def test_every_command_keeps_a_symlink_and_the_mode(tmp_path, monkeypatch, capsys, command):
    _one_check_verify(monkeypatch)
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    target.write_bytes(b"~" * 256 * 1024)
    target.chmod(0o604)
    link.symlink_to(target)
    assert main([*_WRITING_COMMANDS[command], str(link)]) == 0
    assert main([*_WRITING_COMMANDS[command], str(fresh)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert stat.S_IMODE(target.stat().st_mode) == 0o604
    if command != "verify":  # a report carries its own timestamp
        assert target.read_bytes() == fresh.read_bytes()
    else:
        assert json.loads(target.read_text())["checks"] == json.loads(fresh.read_text())["checks"]


@pytest.mark.parametrize("command", list(_WRITING_COMMANDS))
def test_every_command_refuses_a_directory_output(tmp_path, monkeypatch, capsys, command):
    _one_check_verify(monkeypatch)
    assert main([*_WRITING_COMMANDS[command], str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("io error: ")


def test_fields_export_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    fields_cmd("B", 50, str(a), seed=42)
    fields_cmd("B", 50, str(b), seed=42)
    assert a.read_bytes() == b.read_bytes()


def test_separate_export_spin_one(tmp_path):
    out = tmp_path / "sep.jsonl"
    x = [0.4, -0.7, 0.2, 0.5, 0.3]
    separate_cmd(1, 0, "A", x, str(out))
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    recs = [l for l in lines if "lambda" in l]
    assert [r["lambda"] for r in recs] == [1, 2, 3, 4, 5]
    r = np.linalg.norm(x)
    for rec in recs:
        roots = np.array(rec["roots"])
        # ladder structure: {-s, 0, +s}
        assert abs(roots[1]) < 1e-12
        assert abs(roots[0] + roots[2]) < 1e-12
        g = np.array([complex(re, im) for re, im in rec["g"]])
        assert np.linalg.norm(g) == pytest.approx(1.0)
        assert rec["centrifugal"] == pytest.approx(1.0 / r**2)
    summary = [l for l in lines if "summary" in l][0]["summary"]
    cmp = summary["closed_form_comparison"]
    assert cmp["max_magnitude_residual"] < 1e-12
    assert cmp["fifth_axis_root"] == 0.0


def test_separate_export_spin_zero(tmp_path):
    out = tmp_path / "sep.jsonl"
    separate_cmd(0, 0, "B", [0.1, 0.2, 0.3, 0.4, -0.5], str(out))
    recs = [json.loads(l) for l in out.read_text().splitlines() if "lambda" in json.loads(l)]
    for rec in recs:
        assert rec["roots"] == [0.0]
        assert rec["a_selected"] == 0.0


def test_separate_export_builds_h0_once(tmp_path, monkeypatch):
    # the roots' and the null vectors' decompositions share one h(0) stack
    calls = []
    real = separation.build_h
    monkeypatch.setattr(separation, "build_h", lambda *a: calls.append(a) or real(*a))
    separate_cmd(2, 0, "A", [0.4, -0.7, 0.2, 0.5, 0.3], str(tmp_path / "sep.jsonl"))
    assert len(calls) == 1


def test_separate_export_singular_point():
    with pytest.raises(SingularAxis):
        separate_cmd(1, 0, "A", [0, 0, 0, 0, -1.0], "/dev/null")


# --- CLI -----------------------------------------------------------------------

def test_cli_fields_and_exit_codes(tmp_path):
    out = tmp_path / "f.jsonl"
    assert main(["fields", "--case", "A", "-n", "5", "--out", str(out)]) == 0
    assert out.exists()
    # singular separate point -> input error
    code = main(
        ["separate", "--j", "1", "--p", "0", "--case", "A",
         "--point", "0,0,0,0,-1", "--out", str(tmp_path / "s.jsonl")]
    )
    assert code == 2
    # malformed region -> config error
    code = main(
        ["fields", "--case", "A", "-n", "2", "--out", str(out),
         "--region", "blob:1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fields", "--case", "A", "-n", "5", "--region", "shell:nan,1"],
        ["fields", "--case", "B", "-n", "5", "--region", "box:-inf,1"],
        ["fields", "--case", "A", "-n", "5", "--region", "point:1,0,0,nan,0.5"],
        ["separate", "--j", "1", "--p", "7", "--case", "A",
         "--point", "0.4,-0.7,0.2,0.5,0.3"],
        ["separate", "--j", "2", "--p", "-3", "--case", "B",
         "--point", "0.4,-0.7,0.2,0.5,0.3"],
        ["separate", "--j", "1", "--p", "0", "--case", "A",
         "--point", "0.4,inf,0.2,0.5,0.3"],
        # finite coordinates whose squared norm overflows
        ["separate", "--j", "1", "--p", "0", "--case", "A",
         "--point", "1e200,0.1,0.2,0.3,0.4"],
        # finite coordinates whose squared norm underflows to zero
        ["separate", "--j", "1", "--p", "0", "--case", "A",
         "--point", "1e-170,0,0,0,1e-170"],
        # 10**12 points would not fit in memory; the cap is checked before
        # anything is allocated
        ["fields", "--case", "A", "-n", str(10 * harness.MAX_SAMPLES + 1)],
        ["fields", "--case", "B", "-n", "1000000000000"],
    ],
    ids=["shell_nan", "box_inf", "point_nan", "p_above_j", "p_below_minus_j",
         "point_inf", "point_overflows", "point_underflows", "n_above_cap",
         "n_far_above_cap"],
)
def test_cli_rejects_bad_export_input(tmp_path, capsys, argv):
    # an input error exits 2 with a message and writes no file; exit 1 is
    # reserved for a failed check
    out = tmp_path / "out.jsonl"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "region",
    ["shell:-2,-1", "shell:-1,1", "shell:2,1", "box:2,-2", "shell:1", "box:1,2,3",
     # finite bounds whose points' squared norms overflow
     "box:-1e308,1e308", "box:-1e200,1e200", "shell:1e200,1e300",
     "point:1e200,0,0,0,0.5",
     # finite squared norms whose potential arithmetic leaves the float range
     "box:-1e150,1e150", "point:1e-170,0,0,0,1e-170"],
    ids=["shell_negative", "shell_straddles_zero", "shell_reversed",
         "box_reversed", "shell_one_bound", "box_three_bounds",
         "box_span_overflows", "box_overflows", "shell_overflows", "point_overflows",
         "box_potential_overflows", "point_underflows"],
)
def test_cli_rejects_bad_region(tmp_path, capsys, region):
    out = tmp_path / "out.jsonl"
    argv = ["fields", "--case", "A", "-n", "3", f"--region={region}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and region in err
    assert not out.exists()
    with pytest.raises(ConfigInvalid):
        fields_cmd("A", 3, str(out), region=region)


def test_export_functions_reject_non_finite_input(tmp_path):
    with pytest.raises(ConfigInvalid):
        fields_cmd("A", 5, str(tmp_path / "f.jsonl"), region="shell:nan,1")
    with pytest.raises(ConfigInvalid):
        separate_cmd(1, 0, "A", [0.4, math.nan, 0.2, 0.5, 0.3],
                     str(tmp_path / "s.jsonl"))


def test_cli_separate(tmp_path):
    out = tmp_path / "s.jsonl"
    code = main(
        ["separate", "--j", "1", "--p", "0", "--case", "A",
         "--point", "0.4,-0.7,0.2,0.5,0.3", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


def test_cli_env_seed_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("HURWITZ_SEED", "99")
    main(["fields", "--case", "A", "-n", "20", "--out", str(a)])
    monkeypatch.delenv("HURWITZ_SEED")
    main(["fields", "--case", "A", "-n", "20", "--out", str(b), "--seed", "99"])
    assert a.read_bytes() == b.read_bytes()


def test_cli_calls_in_one_process_share_no_state(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each call parses afresh
    monkeypatch.delenv("HURWITZ_SEED", raising=False)
    seeded, default, want = (tmp_path / f"{k}.jsonl" for k in ("s", "d", "w"))
    assert main(["fields", "--case", "A", "-n", "20", "--seed", "99",
                 "--out", str(seeded)]) == 0
    assert main(["fields", "--case", "A", "-n", "20", "--out", str(default)]) == 0
    fields_cmd("A", 20, str(want), seed=1729)
    assert default.read_bytes() == want.read_bytes() != seeded.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["fields", "--case", "C", "-n", "20", "--out", str(default)])
    assert exc.value.code == 2
    assert main(["verify"]) == 0
    assert main(["separate", "--j", "1", "--p", "0", "--case", "A",
                 "--point", "0.4,-0.7,0.2,0.5,0.3", "--out", str(tmp_path / "s.jsonl")]) == 0
    assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 6


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_cli_verify_forced_failure_writes_report(tmp_path, capsys):
    # a zero tolerance can never be beaten, so the named check must fail
    # and the exit code must flip to 1; the JSON report names the check
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"tolerances": {"clifford_anticommutation": 0.0}, "samples": 200})
    )
    report_file = tmp_path / "report.json"
    code = main(
        ["verify", "--config", str(cfg_file), "--json", str(report_file)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "clifford_anticommutation" in out
    rep = json.loads(report_file.read_text())
    assert rep["passed"] is False
    failing = [c for c in rep["checks"] if not c["passed"]]
    assert [c["check_id"] for c in failing] == ["clifford_anticommutation"]
    assert rep["conventions"]["companion_matrix"]["origin"] == "direct"


def test_cli_verify_rejects_bad_config(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"samples": -5}))
    assert main(["verify", "--config", str(cfg_file)]) == 2
    cfg_file.write_text(json.dumps({"bogus_key": 1}))
    assert main(["verify", "--config", str(cfg_file)]) == 2


def test_cli_verify_accepts_every_config_field(tmp_path, capsys):
    # the accepted keys are SuiteConfig's fields, no more and no fewer
    settings = dataclasses.asdict(SuiteConfig())
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(settings))
    assert main(["verify", "--config", str(cfg_file)]) in (0, 1)
    cfg_file.write_text(json.dumps({**settings, "J_maximum": 3}))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_file)]) == 2
    assert "J_maximum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings",
    [
        {"samples": "10"},
        {"cases": 5},
        {"tolerances": {"norm_identity": None}},
        {"exclusion_eps": 0.9},
        {"cases": ["A", "A"]},
        {"tolerances": {"norm_identiy": 1e-30}},
        {"tolerances": {"radial_duality": math.nan}},
        {"tolerances": {"radial_duality": -1.0}},
        {"fd_step": math.inf},
        {"tolerances": {"radial_duality": -math.inf}},
        {"J_max": 1},
        {"samples": 10**9},
        {"fd_step": 10**400},
        {"cases": []},
        [1, 2],
        5,
    ],
    ids=["samples_str", "cases_int", "tolerance_null", "infeasible_eps",
         "repeated_case", "tolerance_unknown_id", "tolerance_nan",
         "tolerance_negative", "fd_step_infinity", "tolerance_minus_infinity",
         "j_max_one", "samples_above_cap",
         "fd_step_400_digits", "cases_empty", "array", "number"],
)
def test_cli_verify_rejects_config_before_sampling(
    tmp_path, monkeypatch, capsys, settings
):
    # rejection must come before the first draw: an infeasible exclusion
    # would otherwise loop in the sampler, which this stub turns into a failure
    def no_draw(*args, **kwargs):
        raise AssertionError("a bad config reached the sampler")

    monkeypatch.setattr(harness, "sample_xi", no_draw)
    monkeypatch.setattr(harness, "sample_x", no_draw)
    cfg_file = tmp_path / "cfg.json"
    text = json.dumps(settings)
    cfg_file.write_text(text)
    assert main(["verify", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if not isinstance(settings, dict):
        assert "JSON object" in err
    # json.dumps writes non-finite floats as NaN / Infinity / -Infinity
    # literals, which the config loader refuses before validation
    if "NaN" in text or "Infinity" in text:
        assert "strict JSON" in err


def test_cli_verify_gives_up_on_a_nearly_infeasible_exclusion(
    tmp_path, monkeypatch
):
    # valid, but below one accepted draw in 1e5: the sampler's cap ends the run
    real = harness.sample_xi
    monkeypatch.setattr(
        harness, "sample_xi",
        lambda rng, *args, **kwargs: real(_BoundedRng(rng), *args, **kwargs),
    )
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"exclusion_eps": 0.705}))
    assert main(["verify", "--config", str(cfg_file)]) == 2
