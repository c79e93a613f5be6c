import importlib.util
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"run_ref": "lower", "records_per_ref": "higher"}


def _pairs(parent, change):
    return [{"parent": {"run_ref": p, "records_per_ref": 1.0 / p},
             "change": {"run_ref": c, "records_per_ref": 1.0 / c}}
            for p, c in zip(parent, change)]


def test_summary_quartiles_wins_and_gain():
    parent = [11.0, 11.2, 11.4, 11.6, 11.8, 12.0, 12.2, 12.4, 12.6, 12.8]
    change = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 12.8]
    s = pairs.summarize(_pairs(parent, change), BETTER)
    assert s["quartiles"]["run_ref"]["parent"] == pytest.approx((11.45, 11.9, 12.35))
    assert s["quartiles"]["run_ref"]["change"] == pytest.approx((10.225, 10.45, 10.675))
    # the tie in the last pair counts for neither side
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["gap"] == pytest.approx(1.45) and s["iqr"] == pytest.approx(0.9)
    assert s["gain"]
    assert set(s["quartiles"]) == set(BETTER)


def test_summary_refuses_a_gain_below_nine_tenths_or_inside_the_spread():
    parent = [11.0, 11.2, 11.4, 11.6, 11.8, 12.0, 12.2, 12.4, 12.6, 12.8]
    eight = pairs.summarize(_pairs(parent, [p - 1.5 for p in parent[:8]] + parent[8:]),
                            BETTER)
    assert eight["wins"] == 8 and not eight["gain"]
    # wins every pair, but the medians are 0.5 apart inside a 0.9 spread
    close = pairs.summarize(_pairs(parent, [p - 0.5 for p in parent]), BETTER)
    assert close["wins"] == 10 and close["gap"] == pytest.approx(0.5)
    assert not close["gain"]
    # a slower change shows a negative gap and no wins
    slower = pairs.summarize(_pairs(parent, [p + 2.0 for p in parent]), BETTER)
    assert slower["wins"] == 0 and slower["gap"] < 0.0 and not slower["gain"]


def test_summary_of_one_pair_and_a_metric_missing_from_a_run():
    one = _pairs([12.0], [10.0])
    del one[0]["change"]["records_per_ref"]
    s = pairs.summarize(one, BETTER)
    assert s["quartiles"] == {"run_ref": {"parent": (12.0,) * 3, "change": (10.0,) * 3}}
    assert (s["wins"], s["gap"], s["iqr"], s["gain"]) == (1, 2.0, 0.0, True)


@pytest.mark.parametrize("argv", [["a", "b", "--workload", "sweep", "--pairs", "0",
                                   "--seconds", "20"],
                                  ["a", "b", "--workload", "sweep", "--pairs", "10",
                                   "--seconds", "0"]])
def test_pairs_rejects_an_empty_series(argv):
    with pytest.raises(SystemExit) as exc:
        pairs.main(argv)
    assert exc.value.code == 2


def _git(repo, *cmd):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *cmd],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def test_checkout_labels_a_revision_by_its_hash_and_a_directory_as_described(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("first\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "first")
    first = _git(repo, "rev-parse", "--short", "HEAD")
    (repo / "a.txt").write_text("second\n")
    _git(repo, "commit", "-q", "-am", "second")
    # a revision is exported as it was committed, and named by its short hash
    tree, label = pairs.checkout("HEAD~1", str(tmp_path / "old"), repo=str(repo))
    assert (tree, label) == (str(tmp_path / "old"), first)
    assert (tmp_path / "old" / "a.txt").read_text() == "first\n"
    # a directory is run in place and labelled by git describe, dirty or not
    assert pairs.checkout(str(repo), str(tmp_path / "x"), repo=str(repo)) == (
        str(repo), _git(repo, "rev-parse", "--short", "HEAD"))
    (repo / "a.txt").write_text("edited\n")
    assert pairs.checkout(str(repo), str(tmp_path / "x"), repo=str(repo))[1].endswith("-dirty")
    assert not (tmp_path / "x").exists()
    with pytest.raises(ValueError, match="neither a directory nor a revision"):
        pairs.checkout("no-such-ref", str(tmp_path / "y"), repo=str(repo))
