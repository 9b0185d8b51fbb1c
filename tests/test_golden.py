"""Golden outputs: five small CLI runs against stored files.

`tests/golden/<case>/` holds the files the CLI wrote for each case below:
the first four before the discrete fields were given one cellwise-linear
representation, and p2-uniform, whose errors.csv measures the exact
solution on the cells red-split at the singular corner, before that split
became one array operation.  A restructuring must reproduce the tables,
the adaptive history and the final mesh byte for byte; the coefficient
dumps may move by round-off only.
"""

from pathlib import Path

import numpy as np
import pytest

from oseenstress.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "p1-rt0": ["--problem", "p1", "--element", "rt0", "--levels", "4"],
    "p1-bdm1": ["--problem", "p1", "--element", "bdm1", "--levels", "3"],
    "p2-uniform": ["--problem", "p2", "--levels", "3"],
    "p2-adaptive": ["--problem", "p2", "--mode", "adaptive", "--levels", "4"],
    "p3-adaptive": ["--problem", "p3", "--mode", "adaptive", "--levels", "3"],
}
EXACT = ("errors.csv", "orders.csv", "history.csv", "mesh_final.txt")
FIELD_RTOL = 1e-10


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_reproduces_golden_outputs(case, tmp_path, capsys):
    assert main(["solve", *CASES[case], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    want_dir = GOLDEN / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        got, want = (tmp_path / name).read_text(), (want_dir / name).read_text()
        if name in EXACT:
            assert got == want, name
            continue
        assert name.startswith("field_"), name
        assert got.splitlines()[0] == want.splitlines()[0], name
        a = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        b = np.loadtxt(want_dir / name, delimiter=",", skiprows=1)
        assert a.shape == b.shape, name
        scale = np.abs(b).max(axis=0)
        assert np.all(np.abs(a - b).max(axis=0) <= FIELD_RTOL * scale), name
