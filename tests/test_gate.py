import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(ROOT, "tools", "gate.py")
_spec = importlib.util.spec_from_file_location("gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _files(tree):
    return sorted(os.path.relpath(os.path.join(d, f), tree)
                  for d, _, names in os.walk(tree) for f in names)


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """One ``gate.main`` run over two copies of this tree's ``src`` and
    ``bench``, named by relative paths with a relative ``--out``, from a
    temporary working directory; each child runs with its tree as the
    working directory, so both must be resolved against the caller's."""
    base = tmp_path_factory.mktemp("gate")
    trees = ["parent_tree", "change_tree"]
    for tree in trees:
        for sub in ("src", "bench"):
            shutil.copytree(os.path.join(ROOT, sub), base / tree / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
    before = [_files(base / tree) for tree in trees]
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(printed):
        mp.chdir(base)
        mp.setenv("PYTHONDONTWRITEBYTECODE", "1")
        code = gate.main([*trees, "--out", "gate_out"])
    return SimpleNamespace(
        code=code, lines=printed.getvalue().splitlines(), out=base / "gate_out",
        before=before, after=[_files(base / tree) for tree in trees])


@pytest.fixture(scope="module")
def outputs(gate_run):
    """The two trees' outputs, written by the gate's child processes."""
    return gate_run.out


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
    assert len(os.listdir(outputs / "parent" / "export")) == 69


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


def test_a_relative_out_is_written_outside_both_trees(gate_run):
    assert gate_run.code == 0
    assert gate_run.after == gate_run.before
    assert sorted(os.listdir(gate_run.out)) == ["change", "parent"]
    assert all(line.split()[1] == "PASS" for line in gate_run.lines)


def _in_git_checkout():
    return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs this repository's git history")
def test_a_revision_is_exported_and_an_unknown_one_exits_2(monkeypatch, tmp_path, capsys):
    # run_tree and compare stubbed: no child process runs
    trees = []

    def run_tree(tree, out):
        trees.append((tree, os.path.isfile(os.path.join(tree, "src", "hurwitz", "__init__.py"))))

    monkeypatch.setattr(gate, "run_tree", run_tree)
    monkeypatch.setattr(gate, "compare", lambda old, new: True)
    assert gate.main(["HEAD", ROOT, "--out", str(tmp_path / "out")]) == 0
    # the revision is exported into a directory of its own, removed afterwards;
    # a directory runs in place
    (exported, has_package), here = trees
    assert has_package and exported != ROOT and not os.path.exists(exported)
    assert here == (os.path.abspath(ROOT), True)
    assert gate.main(["no-such-revision", ROOT]) == 2
    assert "'no-such-revision' is neither a directory nor a revision" in capsys.readouterr().err
