"""Command-line harness.

``oseenstress solve`` runs either a uniform-refinement convergence study
(error table + fitted orders) or the adaptive loop (per-iteration
history), writing CSV files into an output directory and printing
aligned tables.  Each mode yields its files as (name, content) pairs,
the content a text, a mesh, or text pieces (the field files, formatted
a bounded number of rows at a time), and every file goes through one
loop, which writes it into ``--out``; the closing ``wrote:`` line lists
the files in the order they were written.  All output is deterministic: rerunning a configuration
reproduces the files byte for byte.  A solve that fails (a singular
system or out of memory), or an adaptive refinement that loses shape
regularity, ends the command with a one-line ``error:`` message on
stderr (the exception's type name if it has no message) and exit
status 1; so does a warning raised as an error (``python -W error``),
and an output file that cannot be written, with the files before it
left in place.
"""

import argparse
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveHistory, adaptive_solve
from .assembly import solve_oseen
from .errors import ErrorRow, fit_orders, hdiv_error, l2_error, supercloseness
from .mesh import Mesh, MeshQualityError, load_mesh, save_mesh, uniform_quad_refine
from .postprocess import postprocess_velocity, recover_pseudostress
from .problems import ProblemSpec, get_problem, problem_names
from .spaces import interpolate_pseudostress, project_exact, project_velocity
from .sparsela import SingularMatrixError

__all__ = ["run_convergence", "emit", "format_sci", "main"]

_FIELD_ROWS = 2**14  # rows of a field file formatted at a time


def format_sci(value: Optional[float]) -> str:
    """Four significant digits with a compact exponent, e.g. ``2.032e-2``.

    Empty string for missing values, ``nan`` for undefined ones; every
    non-empty result round-trips through ``float``.
    """
    if value is None:
        return ""
    v = float(value)
    if not np.isfinite(v):
        return "nan"
    if v == 0.0:
        return "0.000e0"
    mantissa, exponent = f"{v:.3e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def run_convergence(
    problem: ProblemSpec,
    kind: str = "rt0",
    levels: int = 6,
    initial_mesh: Optional[Mesh] = None,
) -> Tuple[List[ErrorRow], dict]:
    """Solve on `levels` uniformly refined meshes and measure all errors.

    Returns the per-level rows and a bundle with the finest-level mesh,
    solution, lifted velocity, and (RT0) recovered pseudostress.
    """
    if not problem.has_exact:
        raise ValueError(
            f"problem {problem.name!r} has no closed-form solution; "
            "a convergence table cannot be formed"
        )
    if levels < 1:
        raise ValueError("levels must be >= 1")

    mesh = initial_mesh if initial_mesh is not None else problem.initial_mesh()
    rows: List[ErrorRow] = []
    for level in range(levels):
        if level > 0:
            mesh = uniform_quad_refine(mesh)
        bundle: dict = {}  # release the coarser level's fields before this level's solve
        row, bundle = _measure_level(problem, kind, level, mesh)
        rows.append(row)
    return rows, bundle


def _measure_level(problem: ProblemSpec, kind: str, level: int, mesh: Mesh) -> Tuple[ErrorRow, dict]:
    """Solve on one mesh; its error row and its bundle for :func:`run_convergence`."""
    corner = problem.singular_corner
    solution = solve_oseen(problem, mesh, kind=kind)
    space = solution.sigma.space

    ustar = postprocess_velocity(solution.sigma, solution.u)
    # one projection of each exact field serves all its l2_error calls, and P_h u
    exact_u_proj = project_exact(mesh, problem.exact_u, singular_corner=corner)
    exact_sigma_proj = project_exact(mesh, problem.exact_sigma, singular_corner=corner)
    proj_u = project_velocity(exact_u_proj)
    interp_sigma = interpolate_pseudostress(space, problem.exact_sigma)

    sigmastar = None
    err_sigmastar = None
    if kind == "rt0":
        sigmastar = recover_pseudostress(solution.sigma)
        err_sigmastar = l2_error(sigmastar, exact_sigma_proj)

    err_div = None
    if problem.exact_div_sigma is not None:
        err_div = hdiv_error(solution.sigma, problem.exact_div_sigma)

    row = ErrorRow(
        level=level,
        nt=mesh.nt,
        ndofs=solution.ndofs,
        err_u=l2_error(solution.u, exact_u_proj),
        err_eh=supercloseness(proj_u, solution.u),
        err_ustar=l2_error(ustar, exact_u_proj),
        err_sigma=l2_error(solution.sigma, exact_sigma_proj),
        err_xih=supercloseness(interp_sigma, solution.sigma),
        err_sigmastar=err_sigmastar,
        err_div=err_div,
        err_rho=l2_error(proj_u, exact_u_proj),
        err_zeta=l2_error(interp_sigma, exact_sigma_proj),
    )
    return row, {"mesh": mesh, "solution": solution, "ustar": ustar, "sigmastar": sigmastar}


def _present_columns(rows: Sequence[ErrorRow]) -> List[str]:
    cols = []
    for name in ErrorRow.ERROR_COLUMNS:
        if all(getattr(row, name) is not None for row in rows):
            cols.append(name)
    return cols


def emit(rows: Sequence[ErrorRow], fmt: str = "csv") -> str:
    """Render error rows as ``csv`` or an aligned ``table`` string."""
    cols = _present_columns(rows)
    header = ["level", "nt", "dofs"] + cols
    body = [
        [str(row.level), str(row.nt), str(row.ndofs)] + [format_sci(getattr(row, c)) for c in cols]
        for row in rows
    ]
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(line) for line in body]) + "\n"
    if fmt == "table":
        widths = [max(len(header[j]), *(len(line[j]) for line in body)) for j in range(len(header))]
        out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for line in body:
            out.append("  ".join(v.rjust(w) for v, w in zip(line, widths)))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_orders(rows: Sequence[ErrorRow], fmt: str = "csv") -> str:
    """Render least-squares convergence orders for every error column."""
    orders = fit_orders(rows)
    if fmt == "csv":
        lines = ["column,order"] + [f"{name},{order:.4f}" for name, order in orders.items()]
        return "\n".join(lines) + "\n"
    if fmt == "table":
        width = max(len(name) for name in orders)
        lines = [f"{name.rjust(width)}  {order:7.4f}" for name, order in orders.items()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_history(history: AdaptiveHistory) -> str:
    """Render the adaptive history as CSV."""
    lines = ["iter,nt,dofs,estimator,true_error,effectivity,marked"]
    for rec in history.records:
        lines.append(
            f"{rec.iteration},{rec.nt},{rec.dofs},"
            f"{format_sci(rec.estimator)},{format_sci(rec.true_error)},"
            f"{format_sci(rec.effectivity)},{rec.marked}"
        )
    return "\n".join(lines) + "\n"


def _format_rows(header: str, row_format: str, columns) -> Iterator[str]:
    """`header`, then one line per row: `row_format` applied to that row of the arrays `columns`.

    The text comes in pieces of at most :data:`_FIELD_ROWS` rows, each one
    ``%``-format over that slice of the columns, flattened row-major; the
    integer columns turn into ``int`` for ``%d``.  Only one piece's values
    exist as Python objects at a time.
    """
    yield header + "\n"
    for start in range(0, len(columns[0]), _FIELD_ROWS):
        piece = [column[start : start + _FIELD_ROWS].tolist() for column in columns]
        yield (row_format + "\n") * len(piece[0]) % tuple(chain.from_iterable(zip(*piece)))


def _field_files(solution, sigmastar) -> Iterator[Tuple[str, Iterator[str]]]:
    """``(file name, text pieces)`` of each final field, every piece built only when asked for.

    The pseudostress and the velocity list ``j,r,value`` for column j and
    row r of their (2, n) coefficients; the recovered pseudostress, when
    there is one (RT0), lists each vertex with its four values.
    """
    for name, header, coeffs in (
        ("field_pseudostress.csv", "dof_index,row,value", solution.sigma.coeffs),
        ("field_velocity.csv", "tri_index,comp,value", solution.u.coeffs),
    ):
        index = np.arange(coeffs.shape[1])
        yield name, _format_rows(header, "%d,0,%.17g\n%d,1,%.17g", [index, coeffs[0], index, coeffs[1]])
    if sigmastar is not None:
        mesh = sigmastar.mesh
        columns = [np.arange(mesh.nv), *mesh.vertices.T, *sigmastar.values.reshape(-1, 4).T]
        yield "field_recovered.csv", _format_rows("vertex,x,y,s11,s12,s21,s22", "%d" + ",%.17g" * 6, columns)


def _cmd_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.theta is not None and not 0.0 <= args.theta <= 1.0:
        parser.error(f"--theta must lie in [0, 1], got {args.theta}")
    min_levels = 1 if args.mode == "uniform" else 0
    if args.levels is not None and args.levels < min_levels:
        parser.error(f"--levels must be >= {min_levels} in {args.mode} mode, got {args.levels}")
    if args.max_dofs <= 0:
        parser.error(f"--max-dofs must be positive, got {args.max_dofs}")
    problem = get_problem(args.problem)
    kind = args.element
    if args.mode == "adaptive" and kind != "rt0":
        print("note: adaptive mode uses rt0 elements (pseudostress recovery); overriding --element", file=sys.stderr)
        kind = "rt0"
    if args.mode == "uniform" and not problem.has_exact:
        parser.error(
            f"problem {args.problem!r} has no closed-form solution; use --mode adaptive"
        )

    try:
        initial_mesh = load_mesh(args.mesh) if args.mesh else None
    except (ValueError, OSError) as exc:
        parser.error(f"--mesh: {exc}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out: {exc}")

    if args.mode == "uniform":
        levels = args.levels if args.levels is not None else 6
        rows, bundle = run_convergence(problem, kind=kind, levels=levels, initial_mesh=initial_mesh)
        files = [("errors.csv", emit(rows, fmt="csv"))]
        print(f"problem={args.problem} element={kind} mode=uniform levels={levels}")
        print(emit(rows, fmt="table"), end="")
        if len(rows) >= 3:
            files.append(("orders.csv", emit_orders(rows, fmt="csv")))
            print("fitted orders (least squares on all but the coarsest level):")
            print(emit_orders(rows, fmt="table"), end="")
        solution, sigmastar = bundle["solution"], bundle["sigmastar"]
    else:
        max_iters = args.levels if args.levels is not None else 30
        theta = args.theta if args.theta is not None else problem.default_theta
        history = adaptive_solve(
            problem,
            mesh=initial_mesh,
            theta=theta,
            max_iters=max_iters,
            max_dofs=args.max_dofs,
        )
        files = [("history.csv", emit_history(history)), ("mesh_final.txt", history.final_mesh)]
        print(
            f"problem={args.problem} element={kind} mode=adaptive "
            f"theta={theta:g} max_iters={max_iters} max_dofs={args.max_dofs}"
        )
        print(files[0][1], end="")  # the history.csv text
        solution, sigmastar = history.final_solution, history.final_sigmastar

    written = []
    for name, content in chain(files, _field_files(solution, sigmastar)):
        path = out_dir / name
        try:
            if isinstance(content, Mesh):
                save_mesh(content, path)
            else:
                with path.open("w") as fh:
                    fh.writelines([content] if isinstance(content, str) else content)
        except OSError as exc:  # a directory in the way, a full disk
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        written.append(str(path))
    print("wrote: " + " ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseenstress",
        description="Mixed pseudostress-velocity solver for the Oseen equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a convergence study or the adaptive loop")
    solve.add_argument("--problem", required=True, choices=problem_names())
    solve.add_argument("--element", default="rt0", choices=["rt0", "bdm1"])
    solve.add_argument("--mode", default="uniform", choices=["uniform", "adaptive"])
    solve.add_argument(
        "--levels",
        type=int,
        default=None,
        help="uniform: number of mesh levels (default 6); adaptive: refinement iterations (default 30)",
    )
    solve.add_argument("--theta", type=float, default=None, help="maximum-marking threshold in [0, 1]")
    solve.add_argument("--max-dofs", type=int, default=200_000, help="adaptive: stop once the system reaches this size")
    solve.add_argument("--mesh", default=None, help="optional initial mesh file (text format)")
    solve.add_argument("--out", default="out", help="output directory (created if missing)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        try:
            return _cmd_solve(args, parser)
        except (SingularMatrixError, MemoryError, MeshQualityError, Warning) as exc:  # a warning raised under -W error
            print("error: " + (" ".join(str(exc).split()) or type(exc).__name__), file=sys.stderr)
            return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
