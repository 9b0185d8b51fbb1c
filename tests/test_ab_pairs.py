"""The in-process A/B instrument, tools/ab_pairs.py."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_against_a_reports_every_field(capsys):
    # the working tree against itself, so no git revision is extracted
    tool = _tool()
    report = tool.main([str(tool.WORKING_TREE), "--level", "1", "--pairs", "4"])
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert printed == report
    assert report["base"] == str(tool.WORKING_TREE) and report["element"] == "rt0" and report["level"] == 1
    assert report["pairs"] == 4 and 0 <= report["wins"] <= 4
    assert 0 < report["q1_ratio"] <= report["median_ratio"] <= report["q3_ratio"]
    low, high = report["ci95_median"]
    assert 0 < low <= high
    assert report["base_median_s"] > 0 and report["change_median_s"] > 0
    for side in ("base", "change"):
        faults = report[f"{side}_median_minflt"]
        assert isinstance(faults, int) and faults >= 0
    # both aliases are gone again, so the next load imports afresh
    assert not [name for name in sys.modules if name.startswith(("_ab_base", "_ab_change"))]


def test_report_counts_wins_and_brackets_the_median():
    report = _tool().report([1.0, 1.0, 1.0, 1.0], [0.5, 0.9, 1.1, 2.0], [10, 20, 30, 40], [0, 1, 2, 3])
    assert report["wins"] == 2 and report["median_ratio"] == 1.0
    assert (report["base_median_minflt"], report["change_median_minflt"]) == (25, 2)
    low, high = report["ci95_median"]
    assert 0.5 <= low <= report["median_ratio"] <= high <= 2.0


def _has_git_head() -> bool:
    if shutil.which("git") is None:
        return False
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True).returncode == 0


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a repository with a commit")
def test_extract_gives_the_package_of_a_revision(tmp_path):
    package = _tool().extract("HEAD", tmp_path)
    assert package == tmp_path / "src" / "oseenstress"
    committed = subprocess.run(["git", "-C", str(ROOT), "show", "HEAD:src/oseenstress/__init__.py"], capture_output=True, check=True).stdout
    assert (package / "__init__.py").read_bytes() == committed
    assert (package / "assembly.py").is_file()
