import contextlib
import importlib.util
import io
import math
import os

import numpy as np
import pytest

from hurwitz import harness, transform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "primitives", os.path.join(ROOT, "tools", "primitives.py"))
primitives = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(primitives)

FAMILIES = ["forward", "sample_xi", "verify:fiber_roundtrip_A", "sweep:gauge_reflection_map",
            "draws:rotor_closure_T", "fields_cmd[A/shell]", "fields_cmd[B/box]", "separate_cmd",
            "separate_cmd[fresh]"]


def test_entries_hold_one_entry_per_registry_row_of_each_family(tmp_path):
    # built, not timed
    rows = primitives.entries({1: primitives.points(1)}, str(tmp_path / "out.jsonl"))
    cfg = harness.SuiteConfig()
    registry = harness._registry(cfg)
    workloads = primitives.workloads

    def family(prefix):
        return [(name.split(":")[1], size, units, call) for name, size, units, call in rows
                if name.startswith(prefix + ":")]

    assert [row[0] for row in family("verify")] == [row.id for row in registry]
    assert [row[0] for row in family("sweep")] == list(workloads.SWEEP_IDS)
    assert [row[0] for row in family("draws")] == [row.id for row in registry if row.draws]
    assert (len(registry), len(workloads.SWEEP_IDS), len(family("draws"))) == (48, 19, 41)
    ids = [row.id for row in registry]
    for prefix, samples in (("verify", cfg.samples), ("sweep", workloads.SWEEP_SAMPLES),
                            ("draws", cfg.samples)):
        for row_id, size, units, call in family(prefix):
            # each row's generator starts where run_suite's does for that row
            row_cfg, rng = call.args[0], call.args[-1]
            assert (size, units, row_cfg.samples) == (None, 1, samples)
            assert rng.bit_generator.state == np.random.default_rng(
                (cfg.seed, ids.index(row_id))).bit_generator.state
    assert [row[0] for row in rows if ":" not in row[0]] == (
        ["forward", "extra_angles", "fiber_section", "a_field_closed", "a_field_numeric",
         "wigner_d", "apply_euler_op", "_stencil", "sample_angles", "sample_xi", "sample_x",
         "fields_cmd[A/shell]", "fields_cmd[A/box]", "fields_cmd[B/shell]", "fields_cmd[B/box]"]
        + ["separate_cmd"] * 4 + ["separate_cmd[fresh]"] * 4)


def test_primitives_prints_a_time_per_call_and_per_point_for_every_entry():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert primitives.main(["--rounds", "1", "--sizes", "1,50",
                                "--entries", ",".join(FAMILIES)]) == 0
    header, *rows = printed.getvalue().splitlines()
    assert header.split() == ["entry", "size", "us", "ns/unit", "peak_kB"]
    table = {(name, size): tuple(map(float, cells))
             for name, size, *cells in map(str.split, rows)}
    assert list(table) == [("forward", "1"), ("forward", "50"), ("sample_xi", "1"),
                           ("verify:fiber_roundtrip_A", "-"),
                           ("sweep:gauge_reflection_map", "-"),
                           ("draws:rotor_closure_T", "-"), ("fields_cmd[A/shell]", "1"),
                           ("fields_cmd[B/box]", "1"), ("fields_cmd[A/shell]", "50"),
                           ("fields_cmd[B/box]", "50")] + [
        (name, str(J)) for name in ("separate_cmd", "separate_cmd[fresh]") for J in range(4)]
    for (name, size), (us, ns, kb) in table.items():
        assert all(math.isfinite(v) and v > 0.0 for v in (us, ns, kb))
        units = 6 if name.startswith("separate_cmd") else 1 if size == "-" else int(size)
        # us to 0.1, ns to 1: a unit's ns is 1e3 us / units to their rounding
        assert ns == pytest.approx(1e3 * us / units, abs=50.0 / units + 0.5), name
    # each call's result is allocated in the call, so it is in the peak:
    # forward's x, a float (n, 5) stack, holds 2 kB at 50 points
    assert table["forward", "50"][2] >= 2.0
    # the n-point potential and the written float table, 15 and 11 floats a
    # point, are held together
    for name in ("fields_cmd[A/shell]", "fields_cmd[B/box]"):
        for n in (1, 50):
            assert table[name, str(n)][2] >= 26 * 8 * n / 1e3


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


class _Clock:
    """A ``time`` whose ``perf_counter`` only the timed calls move: a
    ``fiber_section`` call of this tree takes 3 ticks (7 in the second loop
    of a round, which the ratio must not read), one of REV's 2, 3 and 4
    ticks in turn by round, so a round reads 3/2, 1 or 3/4."""

    TICK = 1 / 256  # one call is one loop: 2 ticks exceed MIN_SAMPLE_S

    def __init__(self):
        self.now, self.calls = 0.0, []

    def perf_counter(self):
        return self.now

    def fiber_section(self, transform):
        def call(x, phi, case):
            # one warm-up call per side, then two loops a round
            mine = transform.__name__ == "hurwitz.transform"
            k, second = divmod(sum(side == mine for side, _, _ in self.calls) - 1, 2)
            self.now += self.TICK * ((3 + 4 * second) if mine else (2 + k % 3))
            self.calls.append((mine, transform.__name__, x))
        return call


def test_primitives_against_its_own_tree_reads_each_ratio_near_one(capsys, monkeypatch):
    # the --against mechanics on a deterministic clock; how closely a tree
    # agrees with itself on the host's clock is measured outside Tier-1
    clock = _Clock()
    monkeypatch.setattr(primitives, "time", clock)
    monkeypatch.setattr(transform, "fiber_section", clock.fiber_section(transform))
    load_tree = primitives.load_tree

    def load(src, name):
        tree = load_tree(src, name)
        monkeypatch.setattr(tree.transform, "fiber_section", clock.fiber_section(tree.transform))
        return tree

    monkeypatch.setattr(primitives, "load_tree", load)
    rounds = 15
    ((name, size, ratio, iqr),) = _against(
        [ROOT, "--sizes", "50", "--rounds", str(rounds), "--entries", "fiber_section"], capsys)
    # both packages, under their own names, on the same arrays
    mine, names, xs = zip(*clock.calls)
    (other,) = set(names) - {"hurwitz.transform"}
    assert other.startswith("hurwitz_against_") and other.endswith(".transform")
    assert all(x is xs[0] for x in xs) and xs[0].shape == (50, 5)
    # a warm-up call each, then the rounds in the order ABBA, this tree first
    # in even rounds
    abba = [True, False, False, True]
    assert list(mine) == [True, False] + [
        side ^ (k % 2 == 1) for k in range(rounds) for side in abba]
    # each faster loop: rounds read 3/2, 1 and 3/4 five times each, so the
    # median is 1 and the quartiles 3/4 and 3/2
    assert (name, size, ratio, iqr) == ("fiber_section", "50", 1.0, 0.75)


def test_primitives_against_prints_an_entry_one_tree_lacks_as_missing(capsys):
    # a row the change adds, a row it removes and one both trees have
    call = lambda: None
    primitives.table({("both", None): (1, call), ("added", None): (1, call)},
                     {("both", None): (1, call), ("removed", 1): (1, call)}, 1, "REV")
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["both", "-"], ["added", "-"],
                                                 ["removed", "1"]]
    assert rows[1].endswith("missing in REV") and rows[2].endswith("missing in this tree")


def test_primitives_against_refuses_an_unknown_entry_or_revision(capsys):
    assert primitives.main(["--against", ROOT, "--entries", "no_such_entry"]) == 2
    assert primitives.main(["--against", "no-such-revision-xyz"]) == 2


def test_primitives_refuses_an_unknown_entry(capsys):
    assert primitives.main(["--entries", "forward,no_such_entry"]) == 2
    assert "no_such_entry" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--sizes", "0,50"], ["--rounds", "0"]])
def test_primitives_rejects_an_empty_sample(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        primitives.main(argv)
    assert exc.value.code == 2
