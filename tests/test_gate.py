import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(ROOT, "tools", "gate.py")
_spec = importlib.util.spec_from_file_location("gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """This tree's outputs, written once by the gate's child process, and a
    copy of them as the change side."""
    out = tmp_path_factory.mktemp("gate")
    gate.run_tree(ROOT, str(out / "parent"))
    shutil.copytree(out / "parent", out / "change")
    return out


def _printed(capsys):
    return capsys.readouterr().out.splitlines()


def test_equal_outputs_pass(outputs, capsys):
    assert gate.compare(str(outputs / "parent"), str(outputs / "change")) is True
    lines = _printed(capsys)
    assert len(lines) == 7 and all(line.split()[1] == "PASS" for line in lines)
    # equal verify reports are also reported exact
    assert all(line.endswith("; exact") for line in lines[:3])
    assert [line.split()[0] for line in lines] == [
        "verify_1729.json", "verify_201.json", "verify_7.json",
        "sweep_201.json", "sweep_1000204.json", "sweep_5.json", "exports",
    ]
    assert len(os.listdir(outputs / "parent" / "export")) == 67


def test_main_needs_two_trees(capsys):
    with pytest.raises(SystemExit) as exc:
        gate.main([ROOT])
    assert exc.value.code == 2
    assert "PARENT_TREE and CHANGE_TREE" in capsys.readouterr().err


def test_a_tree_that_cannot_run_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such-tree")
    assert gate.main([missing, ROOT, "--out", str(tmp_path / "out")]) == 2
    assert missing in capsys.readouterr().err


def _doctored(out, tmp_path, name, edit):
    """A copy of the change side's outputs with ``edit`` applied to one file."""
    new = tmp_path / "change"
    shutil.copytree(out / "change", new)
    path = new / name
    path.write_text(edit(path.read_text()))
    return str(new)


def _scale_residual(factor, check_id=None):
    """Scale one record's residual: ``check_id``'s, or the first nonzero."""
    def edit(text):
        report = json.loads(text)
        rec = next(r for r in report["checks"] if r["check_id"] == check_id
                   or (check_id is None and r["max_residual"]))
        rec["max_residual"] *= factor
        return json.dumps(report)
    return edit


@pytest.mark.parametrize(
    "name, edit",
    [
        # a verify record moved by one decade exceeds the 0.5 decade bound
        ("verify_201.json", _scale_residual(10.0, "laplacian_split_A")),
        # a sweep record moved in its last bits fails --exact
        ("sweep_5.json", _scale_residual(1.0 + 2.0**-52)),
        # one byte of one export
        ("export/separate_B_2_0_1.jsonl", lambda t: t.replace("0", "1", 1)),
    ],
    ids=["verify_drift", "sweep_exact", "export_bytes"],
)
def test_a_changed_output_fails(outputs, tmp_path, capsys, name, edit):
    new = _doctored(outputs, tmp_path, name, edit)
    assert gate.compare(str(outputs / "parent"), new) is False
    failed = [line for line in _printed(capsys) if line.split()[1] == "FAIL"]
    assert [line.split()[0] for line in failed] == [os.path.basename(name)
                                                    if name.endswith(".json")
                                                    else "exports"]
    if name.startswith("verify_"):
        # a moved record is not an exact pair
        assert failed[0].endswith("; digests differ")


def test_an_unreadable_report_is_one_error_line(outputs, tmp_path, capsys):
    new = tmp_path / "change"
    shutil.copytree(outputs / "change", new)
    os.remove(new / "verify_201.json")
    assert gate.compare(str(outputs / "parent"), str(new)) is False
    lines = _printed(capsys)
    # every pair still gets its line
    assert len(lines) == 7
    assert [line.split()[:2] for line in lines if line.split()[1] != "PASS"] == [
        ["verify_201.json", "ERROR"]]


def _files(tree):
    return sorted(os.path.relpath(os.path.join(d, f), tree)
                  for d, _, names in os.walk(tree) for f in names)


def test_a_relative_out_is_written_outside_both_trees(tmp_path, monkeypatch, capsys):
    # each child runs with its tree as the working directory, so a relative
    # --out (and relative trees) must be resolved against the caller's
    trees = ["parent_tree", "change_tree"]
    for tree in trees:
        for sub in ("src", "bench"):
            shutil.copytree(os.path.join(ROOT, sub), tmp_path / tree / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
    before = [_files(tmp_path / tree) for tree in trees]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert gate.main([*trees, "--out", "gate_out"]) == 0
    assert [_files(tmp_path / tree) for tree in trees] == before
    assert sorted(os.listdir(tmp_path / "gate_out")) == ["change", "parent"]
    assert all(line.split()[1] == "PASS" for line in _printed(capsys))
