import copy
import importlib.util
import json
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "reportdiff.py")
_spec = importlib.util.spec_from_file_location("reportdiff", _PATH)
reportdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reportdiff)


def _record(check_id, case, n, value, tol, passed):
    return {"check_id": check_id, "case": case, "n_samples": n,
            "max_residual": value, "tolerance": tol, "passed": passed, "detail": ""}


BASE = {
    "schema_version": 1,
    "passed": True,
    "generated_at": "2026-01-01T00:00:00+00:00",
    "environment": {"python": "3.11"},
    "config": {"seed": 1729},
    "conventions": {},
    "checks": [
        _record("clifford_anticommutation", "-", 25, 0.0, 1e-14, True),
        _record("laplacian_split_A", "A", 50, 4.2e-7, 1e-4, True),
        _record("fiber_roundtrip", "A", 100, 3.0e-12, 1e-10, True),
        _record("fd_convergence_order", "-", 3, 15.8, 8.0, True),
        _record("separation_consistency_J0", "-", 20, 2.8e-17, 1e-4, True),
    ],
}


def _diff(tmp_path, new, *flags, old=BASE):
    paths = []
    for name, rep in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(rep))
        paths.append(str(path))
    return reportdiff.main([*paths, *flags])


def _changed(edits):
    """BASE with {(record index, key): value} applied."""
    rep = copy.deepcopy(BASE)
    for (idx, key), value in edits.items():
        rep["checks"][idx][key] = value
    return rep


def test_identical_reports_pass_both_modes(tmp_path, capsys):
    other = copy.deepcopy(BASE)
    other["generated_at"] = "2026-02-02T00:00:00+00:00"
    other["environment"] = {"python": "3.12"}
    assert _diff(tmp_path, other) == 0
    assert _diff(tmp_path, other, "--exact") == 0
    out = capsys.readouterr().out
    assert "laplacian_split_A[A]" in out and out.rstrip().endswith("(0 problems)")


def test_in_bound_drift_passes_drift_mode_only(tmp_path):
    new = _changed({(1, "max_residual"): 1.0e-6, (3, "max_residual"): 16.1})
    # 4.2e-7 -> 1e-6 is 0.38 decades; the J0 record stays capped at 6 decades
    new["checks"][4]["max_residual"] = 3.0e-14
    assert _diff(tmp_path, new) == 0
    assert _diff(tmp_path, new, "--exact") == 1


@pytest.mark.parametrize(
    "edits",
    [
        {(1, "check_id"): "laplacian_split_B"},
        {(2, "case"): "B"},
        {(1, "passed"): False},
        {(1, "n_samples"): 49},
        {(0, "max_residual"): 1e-30},
        {(1, "max_residual"): 2.0e-6},
        {(3, "max_residual"): 4.0},
        {(1, "max_residual"): float("nan")},
        # how a strict report writes non-finite residuals
        {(1, "max_residual"): "NaN"},
        {(0, "max_residual"): "Infinity"},
        {(3, "max_residual"): "-Infinity"},
    ],
    ids=["renamed_id", "changed_case", "changed_verdict", "changed_count",
         "zero_became_nonzero", "drift_out_of_bound", "ratio_drift", "nan",
         "nan_string", "infinity_string", "minus_infinity_string"],
)
def test_drift_mode_fails(tmp_path, edits):
    assert _diff(tmp_path, _changed(edits)) == 1


def test_reordered_or_dropped_records_fail(tmp_path):
    new = copy.deepcopy(BASE)
    new["checks"].reverse()
    assert _diff(tmp_path, new) == 1
    new["checks"] = new["checks"][1:]
    assert _diff(tmp_path, new) == 1


def test_bound_is_configurable(tmp_path):
    new = _changed({(1, "max_residual"): 2.0e-6})  # 0.68 decades
    assert _diff(tmp_path, new) == 1
    assert _diff(tmp_path, new, "--bound", "0.7") == 0


def test_exact_fails_on_one_changed_bit(tmp_path):
    value = BASE["checks"][1]["max_residual"]
    bumped = math.nextafter(value, 1.0)  # the last bit of the mantissa
    new = _changed({(1, "max_residual"): bumped})
    assert _diff(tmp_path, new) == 0
    assert _diff(tmp_path, new, "--exact") == 1


def test_exact_names_the_records_that_differ(tmp_path, capsys):
    new = _changed({(1, "max_residual"): 4.3e-7, (3, "max_residual"): 15.9})
    assert _diff(tmp_path, new, "--exact") == 1
    out = capsys.readouterr().out
    assert "FAIL  reports differ (--exact): laplacian_split_A, fd_convergence_order\n" in out
    # a difference outside the records names none
    other = copy.deepcopy(BASE)
    other["config"] = {"seed": 7}
    assert _diff(tmp_path, other, "--exact") == 1
    assert "FAIL  reports differ (--exact)\n" in capsys.readouterr().out


def test_unreadable_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASE))
    assert reportdiff.main([str(good), str(bad)]) == 2
    assert reportdiff.main([str(good), str(tmp_path / "missing.json")]) == 2


def test_non_finite_strings_read_as_numbers(tmp_path, capsys):
    rep = _changed({(1, "max_residual"): "NaN", (2, "max_residual"): "Infinity",
                    (1, "passed"): False, (2, "passed"): False})
    assert _diff(tmp_path, rep, "--exact", old=rep) == 0
    out = capsys.readouterr().out
    assert "nan" in out and "inf" in out


def test_headroom_is_the_benchmarks_own():
    # loading reportdiff put bench on the path
    import workloads

    assert reportdiff.headroom is workloads.headroom
