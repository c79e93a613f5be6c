import contextlib
import importlib.util
import io
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "primitives", os.path.join(ROOT, "tools", "primitives.py"))
primitives = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(primitives)

NAMES = ["forward", "extra_angles", "fiber_section", "a_field_closed", "a_field_numeric",
         "wigner_d", "apply_euler_op", "_stencil"]


def test_primitives_prints_a_time_per_call_and_per_point_for_every_entry():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert primitives.main(["--repeat", "1", "--sizes", "1,50"]) == 0
    table, second, third, fourth = printed.getvalue().split("\n\n")
    header, *rows = table.splitlines()
    assert header.split() == ["primitive", "n=1", "us", "ns/pt", "peak_kB",
                              "n=50", "us", "ns/pt", "peak_kB"]
    assert [row.split()[0] for row in rows] == NAMES
    for row in rows:
        us_1, ns_1, kb_1, us_50, ns_50, kb_50 = map(float, row.split()[1:])
        assert all(math.isfinite(v) and v > 0.0
                   for v in (us_1, ns_1, kb_1, us_50, ns_50, kb_50))
        assert ns_1 == pytest.approx(1e3 * us_1, rel=0.02)
    # each call's result is allocated in the call, so it is in the peak:
    # forward's x, a float (n, 5) stack, holds 2 kB at 50 points
    assert float(rows[0].split()[6]) >= 2.0
    # the two second-order residuals at their fixed inputs, whatever the sizes
    header, *rows = second.splitlines()
    assert header.split() == ["residual", "points", "us", "peak_kB"]
    assert [row.split()[:2] for row in rows] == [["consistency_residual", "3"],
                                                 ["laplacian_split", "7"]]
    for row in rows:
        assert all(math.isfinite(v) and v > 0.0 for v in map(float, row.split()[2:]))
    # the export table, at the same sizes
    header, *rows = third.splitlines()
    assert header.split() == ["export", "region", "n=1", "us/rec", "peak_kB",
                              "n=50", "us/rec", "peak_kB"]
    assert [row.split()[:2] for row in rows] == [["fields_cmd", "shell"],
                                                 ["fields_cmd", "box"]]
    for row in rows:
        us_1, kb_1, us_50, kb_50 = map(float, row.split()[2:])
        assert all(math.isfinite(v) and v > 0.0 for v in (us_1, kb_1, us_50, kb_50))
        # the n-point float table alone holds 22 x 8 x n bytes
        assert kb_1 >= 22 * 8 * 1 / 1e3
        assert kb_50 >= 22 * 8 * 50 / 1e3
    # the one-value draws, one call each, whatever the sizes
    header, *rows = fourth.splitlines()
    assert header.split() == ["draw", "us"]
    assert [row.split()[0] for row in rows] == ["_angle_poly", "sample_angles", "sample_xi",
                                                "sample_x"]
    for row in rows:
        assert len(row.split()) == 2 and 0.0 < float(row.split()[1]) < math.inf


@pytest.mark.parametrize("argv", [["--repeat", "0"], ["--sizes", "0,50"]])
def test_primitives_rejects_an_empty_sample(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        primitives.main(argv)
    assert exc.value.code == 2
