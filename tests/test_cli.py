"""Command-line interface and report formatting."""

import numpy as np
import pytest

from oseenstress import cli
from oseenstress.adaptive import adaptive_solve
from oseenstress.cli import (
    emit,
    emit_history,
    emit_orders,
    format_sci,
    main,
    run_convergence,
)
from oseenstress.mesh import load_mesh, make_square_piecewise_uniform, save_mesh
from oseenstress.problems import get_problem


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------


def test_format_sci_representative_values():
    assert format_sci(None) == ""
    assert format_sci(float("nan")) == "nan"
    assert format_sci(0.0) == "0.000e0"
    assert format_sci(2.032e-2) == "2.032e-2"
    assert format_sci(-1500.0) == "-1.500e3"
    assert format_sci(1.0) == "1.000e0"


def test_format_sci_round_trips_to_three_digits():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        s = format_sci(x)
        assert float(s) == pytest.approx(x, rel=5e-4)


@pytest.fixture(scope="module")
def tiny_rows():
    rows, _ = run_convergence(get_problem("p1"), kind="rt0", levels=3)
    return rows


def test_emit_csv_and_table(tiny_rows):
    csv = emit(tiny_rows, fmt="csv")
    lines = csv.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:3] == ["level", "nt", "dofs"]
    assert "err_u" in header and "err_sigmastar" in header
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "19"
    assert float(first[header.index("err_u")]) > 0
    table = emit(tiny_rows, fmt="table")
    assert table.splitlines()[0].split() == header
    with pytest.raises(ValueError):
        emit(tiny_rows, fmt="bogus")


def test_emit_orders_formats_and_validates(tiny_rows):
    csv = emit_orders(tiny_rows, fmt="csv")
    lines = csv.strip().split("\n")
    assert lines[0] == "column,order"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "err_u" in names and "err_sigma" in names
    with pytest.raises(ValueError):
        emit_orders(tiny_rows[:2], fmt="csv")
    with pytest.raises(ValueError):
        emit_orders(tiny_rows, fmt="bogus")


def test_emit_history_shape():
    history = adaptive_solve(get_problem("p2"), theta=0.5, max_iters=2)
    text = emit_history(history)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,nt,dofs,estimator,true_error,effectivity,marked"
    assert len(lines) == 1 + history.niter
    last = lines[-1].split(",")
    assert last[-1] == "0"  # final record marks nothing


def test_run_convergence_validation():
    with pytest.raises(ValueError, match="closed-form"):
        run_convergence(get_problem("p3"), levels=2)
    with pytest.raises(ValueError):
        run_convergence(get_problem("p1"), levels=0)


# ----------------------------------------------------------------------
# end-to-end command runs
# ----------------------------------------------------------------------


def test_solve_uniform_end_to_end(tmp_path, capsys):
    out1 = tmp_path / "run1"
    code = main(
        ["solve", "--problem", "p1", "--mode", "uniform", "--levels", "3", "--out", str(out1)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fitted orders" in stdout and "wrote:" in stdout

    errors = (out1 / "errors.csv").read_text().strip().split("\n")
    assert len(errors) == 4
    assert (out1 / "orders.csv").exists()
    assert (out1 / "field_pseudostress.csv").exists()
    assert (out1 / "field_recovered.csv").exists()
    velocity = (out1 / "field_velocity.csv").read_text().strip().split("\n")
    nt_final = int(errors[-1].split(",")[1])
    assert len(velocity) == 1 + 2 * nt_final

    # byte-identical determinism
    out2 = tmp_path / "run2"
    main(["solve", "--problem", "p1", "--mode", "uniform", "--levels", "3", "--out", str(out2)])
    capsys.readouterr()
    assert (out1 / "errors.csv").read_bytes() == (out2 / "errors.csv").read_bytes()
    assert (out1 / "field_pseudostress.csv").read_bytes() == (
        out2 / "field_pseudostress.csv"
    ).read_bytes()


def test_solve_uniform_without_orders_for_short_runs(tmp_path, capsys):
    out = tmp_path / "short"
    code = main(["solve", "--problem", "p1", "--levels", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert (out / "errors.csv").exists()
    assert not (out / "orders.csv").exists()


def test_solve_adaptive_end_to_end(tmp_path, capsys):
    out = tmp_path / "adaptive"
    code = main(
        [
            "solve",
            "--problem",
            "p2",
            "--mode",
            "adaptive",
            "--levels",
            "3",
            "--theta",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    history = (out / "history.csv").read_text().strip().split("\n")
    assert len(history) == 5  # header + 4 iterations
    final_mesh = load_mesh(out / "mesh_final.txt")
    assert final_mesh.nt == int(history[-1].split(",")[1])
    assert (out / "field_recovered.csv").exists()


def test_solve_adaptive_coerces_bdm1_to_rt0(tmp_path, capsys):
    out = tmp_path / "coerce"
    code = main(
        [
            "solve",
            "--problem",
            "p2",
            "--mode",
            "adaptive",
            "--element",
            "bdm1",
            "--levels",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "overriding --element" in captured.err
    assert "element=rt0" in captured.out


def test_solve_uniform_rejects_problem_without_closed_form(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "p3", "--mode", "uniform", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "adaptive", "--theta", "1.5"], "--theta"),
        (["--mode", "uniform", "--levels", "0"], "--levels"),
        (["--mode", "adaptive", "--levels", "-1"], "--levels"),
        (["--mode", "adaptive", "--max-dofs", "0"], "--max-dofs"),
        pytest.param(["--mesh", "empty.txt"], "no triangles", id="mesh-empty"),
        pytest.param(["--mesh", "unused.txt"], "vertex 4 belongs to no triangle", id="mesh-unused-vertex"),
        pytest.param(["--mesh", "missing.txt"], "--mesh", id="mesh-missing"),
        pytest.param(["--mesh", "hanging.txt"], "vertex 4 lies inside boundary edge (0, 2)", id="mesh-hanging-node"),
    ],
)
def test_solve_rejects_bad_input_before_solving(tmp_path, capsys, monkeypatch, args, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the input was checked")

    (tmp_path / "empty.txt").write_text("0 0\n")
    # the unit square in two triangles plus a point at (5, 5) that no triangle uses
    (tmp_path / "unused.txt").write_text("5 2\n0 0\n1 0\n1 1\n0 1\n5 5\n0 1 2 0\n0 2 3 0\n")
    # the unit square with one half bisected at (0.5, 0.5) and the other not
    (tmp_path / "hanging.txt").write_text("5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 2 0\n0 4 3 0\n4 2 3 0\n")
    args = [str(tmp_path / a) if a.endswith(".txt") else a for a in args]

    monkeypatch.setattr(cli, "run_convergence", no_solve)
    monkeypatch.setattr(cli, "adaptive_solve", no_solve)
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "p2", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_with_explicit_mesh_file(tmp_path, capsys):
    mesh_file = tmp_path / "start.txt"
    save_mesh(make_square_piecewise_uniform(), mesh_file)
    out = tmp_path / "meshrun"
    code = main(
        [
            "solve",
            "--problem",
            "p1",
            "--levels",
            "1",
            "--mesh",
            str(mesh_file),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    errors = (out / "errors.csv").read_text().strip().split("\n")
    assert errors[1].split(",")[1] == "19"
