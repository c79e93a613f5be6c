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
    # the two second-order residuals and two sweep rows at their fixed
    # inputs, whatever the sizes
    header, *rows = second.splitlines()
    assert header.split() == ["residual", "points", "us", "peak_kB"]
    assert [row.split()[:2] for row in rows] == [["consistency_residual", "3"],
                                                 ["laplacian_split", "7"],
                                                 ["gauge_properties", "20000"],
                                                 ["wigner_ladder", "8000"]]
    for row in rows:
        assert all(math.isfinite(v) and v > 0.0 for v in map(float, row.split()[2:]))
    # the export table: fields at the same sizes, separate at each spin,
    # rewriting one file and then writing a new one each call
    header, *rows = third.splitlines()
    assert header.split() == ["export", "region", "n=1", "us/rec", "peak_kB",
                              "n=50", "us/rec", "peak_kB"]
    rows, separate = rows[:2], rows[2:]
    assert [row.split()[:2] for row in rows] == [["fields_cmd", "shell"],
                                                 ["fields_cmd", "box"]]
    assert [row.split()[:2] for row in separate] == [[name, f"J={J}"]
                                                     for name in ("separate_cmd",
                                                                  "separate_cmd[fresh]")
                                                     for J in range(4)]
    for row in separate:
        us, kb = map(float, row.split()[2:])
        assert math.isfinite(us) and us > 0.0 and math.isfinite(kb) and kb > 0.0
    for row in rows:
        us_1, kb_1, us_50, kb_50 = map(float, row.split()[2:])
        assert all(math.isfinite(v) and v > 0.0 for v in (us_1, kb_1, us_50, kb_50))
        # the n-point float table alone holds 22 x 8 x n bytes
        assert kb_1 >= 22 * 8 * 1 / 1e3
        assert kb_50 >= 22 * 8 * 50 / 1e3
    # the one-value draws, one call each, whatever the sizes
    header, *rows = fourth.splitlines()
    assert header.split() == ["draw", "us"]
    assert [row.split()[0] for row in rows] == ["_rotor_draws", "_identity_draws",
                                                "sample_angles", "sample_xi", "sample_x"]
    for row in rows:
        assert len(row.split()) == 2 and 0.0 < float(row.split()[1]) < math.inf


def _against(argv, capsys):
    """The ``--against`` rows as (entry, size, ratio, iqr)."""
    assert primitives.main(["--against", *argv]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith("this tree over ")
    assert header.split() == ["entry", "size", "ratio", "iqr"]
    return [(name, size, float(ratio), float(iqr))
            for name, size, ratio, iqr in map(str.split, rows)]


def test_primitives_against_head_times_one_entry_at_one_size(capsys):
    ((name, size, ratio, iqr),) = _against(
        ["HEAD", "--sizes", "50", "--entries", "forward", "--rounds", "3"], capsys)
    assert (name, size) == ("forward", "50")
    assert 0.0 < ratio < math.inf and 0.0 <= iqr < math.inf


def test_primitives_against_its_own_tree_reads_each_ratio_near_one(capsys):
    # the same code under two package names: each median ratio within 3%.
    # The draw entries: a NumPy-bound entry (a_field_closed at 2,000 points)
    # can read several percent off in one process, however many rounds
    rows = _against([ROOT, "--sizes", "50", "--rounds", "15",
                     "--entries", "_rotor_draws,_identity_draws"], capsys)
    assert [row[:2] for row in rows] == [("_rotor_draws", "-"), ("_identity_draws", "-")]
    for name, _, ratio, _ in rows:
        assert abs(ratio - 1.0) <= 0.03, (name, ratio)


def test_primitives_against_refuses_an_unknown_entry_or_revision(capsys):
    assert primitives.main(["--against", ROOT, "--entries", "no_such_entry"]) == 2
    assert primitives.main(["--against", "no-such-revision-xyz"]) == 2


@pytest.mark.parametrize("argv", [["--repeat", "0"], ["--sizes", "0,50"],
                                  ["--rounds", "0"]])
def test_primitives_rejects_an_empty_sample(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        primitives.main(argv)
    assert exc.value.code == 2
