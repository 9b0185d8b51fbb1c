"""Command-line interface and report formatting."""

import warnings
from itertools import chain

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import refine_bisecting_green_halves_again

from oseenstress import adaptive, cli
from oseenstress.adaptive import adaptive_solve
from oseenstress.cli import (
    emit,
    emit_history,
    emit_orders,
    format_sci,
    main,
    run_convergence,
)
from oseenstress.mesh import MeshQualityError, build_mesh, load_mesh, make_square_piecewise_uniform, save_mesh
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

FIELD_FILES = ["field_pseudostress.csv", "field_velocity.csv", "field_recovered.csv"]


def assert_wrote(stdout, out, names):
    """The ``wrote:`` line lists `names` in `out` in that order, and `out` holds nothing else."""
    assert stdout.splitlines()[-1] == "wrote: " + " ".join(str(out / name) for name in names)
    assert sorted(path.name for path in out.iterdir()) == sorted(names)


def test_solve_uniform_end_to_end(tmp_path, capsys):
    out1 = tmp_path / "run1"
    code = main(
        ["solve", "--problem", "p1", "--mode", "uniform", "--levels", "3", "--out", str(out1)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fitted orders" in stdout
    assert_wrote(stdout, out1, ["errors.csv", "orders.csv", *FIELD_FILES])

    errors = (out1 / "errors.csv").read_text().strip().split("\n")
    assert len(errors) == 4
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
    assert_wrote(capsys.readouterr().out, out, ["errors.csv", *FIELD_FILES])


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
    assert_wrote(capsys.readouterr().out, out, ["history.csv", "mesh_final.txt", *FIELD_FILES])
    history = (out / "history.csv").read_text().strip().split("\n")
    assert len(history) == 5  # header + 4 iterations
    final_mesh = load_mesh(out / "mesh_final.txt")
    assert final_mesh.nt == int(history[-1].split(",")[1])


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
        pytest.param(["--mesh", "nonfinite.txt"], "vertex 2 has a non-finite coordinate", id="mesh-nonfinite"),
        pytest.param(["--mesh", "huge.txt"], "triangle at index 0 cannot be represented", id="mesh-huge"),
        pytest.param(["--mesh", "missing.txt"], "--mesh", id="mesh-missing"),
        pytest.param(["--mesh", "hanging.txt"], "vertex 4 lies inside boundary edge (0, 2)", id="mesh-hanging-node"),
        pytest.param(["--mesh", "twice.txt"], "triangle 0 is in two green pairs", id="mesh-green-pair-twice"),
        pytest.param(["--mesh", "diagonal.txt"], "(0, 1) has no shared vertex at the midpoint", id="mesh-green-unsplit"),
        pytest.param(["--mesh", "two.txt"], "2 edge-connected pieces; triangle 1 is not", id="mesh-two-pieces"),
        pytest.param(["--mode", "adaptive", "--mesh", "bowtie.txt"], "2 edge-connected pieces", id="mesh-bowtie"),
        pytest.param(["--mesh", "overflow.txt"], "overflow.txt: an integer does not fit in int64", id="mesh-int64-overflow"),
        pytest.param(["--mesh", "row.txt"], "row.txt: not an integer: '1.5', the region of triangle 0", id="mesh-bad-triangle-row"),
        pytest.param(["--mesh", "coord.txt"], "coord.txt: not a number: 'abc', the y coordinate of vertex 1", id="mesh-bad-coordinate"),
        pytest.param(["--mesh", "header.txt"], "header.txt: not an integer: 'x', the triangle count", id="mesh-bad-header"),
    ],
)
def test_solve_rejects_bad_input_before_solving(tmp_path, capsys, monkeypatch, args, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the input was checked")

    (tmp_path / "empty.txt").write_text("0 0\n")
    # the unit square in two triangles plus a point at (5, 5) that no triangle uses
    (tmp_path / "unused.txt").write_text("5 2\n0 0\n1 0\n1 1\n0 1\n5 5\n0 1 2 0\n0 2 3 0\n")
    # the unit square in two triangles with one coordinate not a number
    (tmp_path / "nonfinite.txt").write_text("4 2\n0 0\n1 0\n1 nan\n0 1\n0 1 2 0\n0 2 3 0\n")
    # the unit square scaled by 1e200: its area overflows
    (tmp_path / "huge.txt").write_text("4 2\n0 0\n1e200 0\n1e200 1e200\n0 1e200\n0 1 2 0\n0 2 3 0\n")
    # the unit square with one half bisected at (0.5, 0.5) and the other not
    (tmp_path / "hanging.txt").write_text("5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 2 0\n0 4 3 0\n4 2 3 0\n")
    # a triangle bisected at its hypotenuse's midpoint, the pair listed twice
    (tmp_path / "twice.txt").write_text("4 2\n0 0\n1 0\n0 1\n0.5 0.5\n0 1 3 0\n0 3 2 0\n2\n0 1\n0 1\n")
    # the unit square's two diagonal halves listed as a pair
    (tmp_path / "diagonal.txt").write_text("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2 0\n0 2 3 0\n1\n0 1\n")
    # two triangles apart, and two that share only the vertex (0, 0)
    (tmp_path / "two.txt").write_text("6 2\n0 0\n1 0\n0 1\n3 0\n4 0\n3 1\n0 1 2 0\n3 4 5 0\n")
    (tmp_path / "bowtie.txt").write_text("5 2\n0 0\n1 0\n0 1\n-1 0\n0 -1\n0 1 2 0\n0 3 4 0\n")
    # one triangle whose region tag is beyond int64
    (tmp_path / "overflow.txt").write_text("3 1\n0 0\n1 0\n0 1\n0 1 2 99999999999999999999\n")
    # one triangle with a token that does not parse: in a triangle row, a coordinate and the header
    (tmp_path / "row.txt").write_text("3 1\n0 0\n1 0\n0 1\n0 1 2 1.5\n")
    (tmp_path / "coord.txt").write_text("3 1\n0 0\n1 abc\n0 1\n0 1 2 0\n")
    (tmp_path / "header.txt").write_text("3 x\n0 0\n1 0\n0 1\n0 1 2 0\n")
    args = [str(tmp_path / a) if a.endswith(".txt") else a for a in args]

    monkeypatch.setattr(cli, "run_convergence", no_solve)
    monkeypatch.setattr(cli, "adaptive_solve", no_solve)
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "p2", *args, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


def test_solve_rejects_an_out_path_that_is_a_file(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the output directory was made")

    monkeypatch.setattr(cli, "run_convergence", no_solve)
    out = tmp_path / "taken"
    out.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "p1", "--levels", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--out: [Errno 17] File exists: '{out}'" in err and "Traceback" not in err


def test_an_output_file_that_cannot_be_written_is_one_error_line(tmp_path, capsys):
    # a directory where errors.csv goes: the solve runs, then the write fails
    out = tmp_path / "run"
    (out / "errors.csv").mkdir(parents=True)
    code = main(["solve", "--problem", "p1", "--levels", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'errors.csv'}: Is a directory\n"


def one_shot_rows(header, row_format, columns):
    """The oracle of a field file: one ``%``-format over every row at once."""
    columns = [np.asarray(column).tolist() for column in columns]
    return header + "\n" + (row_format + "\n") * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def test_field_files_streamed_in_pieces_equal_the_one_shot_format(tmp_path, capsys, monkeypatch):
    # pieces of 7 rows, which divide none of the three row counts
    bundles = []

    def keep_bundle(*args, **kwargs):
        rows, bundle = run_convergence(*args, **kwargs)
        bundles.append(bundle)
        return rows, bundle

    monkeypatch.setattr(cli, "_FIELD_ROWS", 7)
    monkeypatch.setattr(cli, "run_convergence", keep_bundle)
    out = tmp_path / "run"
    assert main(["solve", "--problem", "p1", "--levels", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    solution, sigmastar = bundles[0]["solution"], bundles[0]["sigmastar"]
    sigma, u, mesh = solution.sigma.coeffs, solution.u.coeffs, sigmastar.mesh
    expected = {
        "field_pseudostress.csv": one_shot_rows(
            "dof_index,row,value", "%d,0,%.17g\n%d,1,%.17g", [range(sigma.shape[1]), sigma[0], range(sigma.shape[1]), sigma[1]]
        ),
        "field_velocity.csv": one_shot_rows(
            "tri_index,comp,value", "%d,0,%.17g\n%d,1,%.17g", [range(u.shape[1]), u[0], range(u.shape[1]), u[1]]
        ),
        "field_recovered.csv": one_shot_rows(
            "vertex,x,y,s11,s12,s21,s22",
            "%d" + ",%.17g" * 6,
            [range(mesh.nv), *mesh.vertices.T, *sigmastar.values.reshape(-1, 4).T],
        ),
    }
    assert all(n % 7 for n in (sigma.shape[1], u.shape[1], mesh.nv))
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode()


def test_a_field_file_that_cannot_be_written_is_one_error_line(tmp_path, capsys):
    # a directory where the first streamed file goes: the files before it stay, none after it is written
    out = tmp_path / "run"
    (out / "field_pseudostress.csv").mkdir(parents=True)
    code = main(["solve", "--problem", "p1", "--levels", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out / 'field_pseudostress.csv'}: Is a directory\n"
    assert "wrote:" not in captured.out
    assert sorted(path.name for path in out.iterdir()) == ["errors.csv", "field_pseudostress.csv"]


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


@pytest.mark.parametrize(
    "mode, failure, expected",
    [
        ("uniform", RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"), "error: sparse LU ran out of memory"),
        ("adaptive", RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"), "error: sparse LU ran out of memory"),
        ("uniform", RuntimeError("factor is exactly singular"), "error: Oseen solve failed"),
        ("uniform", MemoryError("Unable to allocate 3.00 GiB for an array with shape (4, 100663296)"), "error: Unable"),
        ("adaptive", MemoryError(), "error: MemoryError"),
        ("adaptive", MeshQualityError("conformity restoration did not converge in 64 passes"), "error: conformity"),
    ],
    ids=[
        "malloc-uniform",
        "malloc-adaptive",
        "singular-uniform",
        "numpy-uniform",
        "numpy-adaptive",
        "conformity-adaptive",
    ],
)
def test_solve_failure_is_one_error_line(tmp_path, capsys, monkeypatch, mode, failure, expected):
    # SuperLU failures, and a numpy allocation or the conformity loop
    # failing in the refinement after the first solve, end the command
    # with exit status 1 and one line on stderr (the type name for an
    # empty message), not a traceback; nothing is allocated for real.
    def fail(*args, **kwargs):
        raise failure

    if type(failure) is RuntimeError:  # SuperLU signals singularity and failed mallocs this way
        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
    elif mode == "uniform":
        monkeypatch.setattr(cli, "uniform_quad_refine", fail)
    else:
        monkeypatch.setattr(adaptive, "refine_marked", fail)
    code = main(["solve", "--problem", "p1", "--mode", mode, "--levels", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and str(failure) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "warn, expected",
    [
        (lambda: warnings.warn("the data look odd"), "error: the data look odd\n"),
        (lambda: np.float64(1e300) * 1e300, "error: overflow encountered in scalar multiply\n"),
    ],
    ids=["user-warning", "overflow"],
)
def test_a_warning_raised_as_an_error_is_one_error_line(tmp_path, capsys, monkeypatch, warn, expected):
    # pytest raises every warning, as python -W error does; the command
    # ends with the warning's message on one line and status 1
    def refine(mesh):
        warn()
        return mesh

    monkeypatch.setattr(cli, "uniform_quad_refine", refine)
    code = main(["solve", "--problem", "p1", "--levels", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("mode", ["uniform", "adaptive"])
@pytest.mark.parametrize(
    "scale, levels, cause",
    [(1.0, 2, None), (1e60, 2, "net flux"), (1e-60, 2, None), (1e-50, 5, None), (1e150, 2, "net flux"), (1e-150, 2, None)],
    ids=["valid", "1e60", "1e-60", "1e-50", "1e150", "1e-150"],
)
def test_the_start_mesh_at_any_scale_solves_or_names_the_cause(tmp_path, capsys, mode, scale, levels, cause):
    # the p1 start mesh scaled by s, under pytest's warnings-as-errors:
    # either every output file is finite, or one error line names the
    # cause (the p1 boundary data far from the unit square have a net flux)
    start = get_problem("p1").initial_mesh()
    mesh_file = tmp_path / "start.txt"
    save_mesh(build_mesh(scale * start.vertices, start.triangles, start.region), mesh_file)
    out = tmp_path / "run"
    argv = ["solve", "--problem", "p1", "--mode", mode, "--levels", str(levels), "--mesh", str(mesh_file), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    if cause is not None:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1 and cause in err
        return
    assert code == 0 and err == ""
    for path in out.iterdir():
        if path.suffix == ".csv":  # orders.csv names each fitted column in its first field
            usecols = 1 if path.name == "orders.csv" else None
            assert np.all(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols)))
        else:
            assert np.all(np.isfinite(load_mesh(path).vertices))


def test_a_refinement_that_loses_shape_regularity_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(adaptive, "refine_marked", refine_bisecting_green_halves_again)
    code = main(["solve", "--problem", "p2", "--mode", "adaptive", "--levels", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refinement 1 left a triangle") and "Traceback" not in err
    assert err.count("\n") == 1
