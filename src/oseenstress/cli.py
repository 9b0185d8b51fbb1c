"""Command-line harness.

``oseenstress solve`` runs either a uniform-refinement convergence study
(error table + fitted orders) or the adaptive loop (per-iteration
history), writing CSV files into an output directory and printing
aligned tables.  All output is deterministic: rerunning a configuration
reproduces the files byte for byte.  A solve that fails (a singular
system or SuperLU out of memory) ends the command with a one-line
``error:`` message on stderr and exit status 1.
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveHistory, adaptive_solve
from .assembly import solve_oseen
from .errors import ErrorRow, fit_orders, hdiv_error, l2_error, supercloseness
from .mesh import Mesh, load_mesh, save_mesh, uniform_quad_refine
from .postprocess import postprocess_velocity, recover_pseudostress
from .problems import ProblemSpec, get_problem, problem_names
from .spaces import interpolate_pseudostress, project_exact, project_velocity
from .sparsela import SingularMatrixError, SolverMemoryError

__all__ = ["run_convergence", "emit", "format_sci", "main"]


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
    proj_u = project_velocity(mesh, problem.exact_u)
    interp_sigma = interpolate_pseudostress(space, problem.exact_sigma)
    # one projection of each exact field serves all its l2_error calls
    exact_u_proj = project_exact(mesh, problem.exact_u, singular_corner=corner)
    exact_sigma_proj = project_exact(mesh, problem.exact_sigma, singular_corner=corner)

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


def _write_rows(path: Path, header: str, row_format: str, columns) -> None:
    """`header`, then one line per row: `row_format` applied to that row of `columns`.

    The whole body is one ``%``-format over the row-major flattened
    columns; integer columns stay ``int`` for ``%d``.
    """
    n = len(columns[0])
    flat = [None] * (n * len(columns))
    for i, column in enumerate(columns):
        flat[i :: len(columns)] = column
    path.write_text(header + "\n" + (row_format + "\n") * n % tuple(flat))


def _write_coeffs_csv(path: Path, header: str, coeffs: np.ndarray) -> None:
    """One line per column j and row r of the (2, n) `coeffs`: ``j,r,value``."""
    index = range(coeffs.shape[1])
    _write_rows(path, header, "%d,0,%.17g\n%d,1,%.17g", [index, coeffs[0].tolist(), index, coeffs[1].tolist()])


def _write_recovered_csv(path: Path, recovered) -> None:
    verts = recovered.mesh.vertices
    vals = recovered.values.reshape(-1, 4)
    columns = [range(verts.shape[0])] + [verts[:, i].tolist() for i in range(2)] + [vals[:, i].tolist() for i in range(4)]
    _write_rows(path, "vertex,x,y,s11,s12,s21,s22", "%d" + ",%.17g" * 6, columns)


def _dump_fields(out_dir: Path, bundle: dict) -> List[Path]:
    written = []
    solution = bundle["solution"]
    path = out_dir / "field_pseudostress.csv"
    _write_coeffs_csv(path, "dof_index,row,value", solution.sigma.coeffs)
    written.append(path)
    path = out_dir / "field_velocity.csv"
    _write_coeffs_csv(path, "tri_index,comp,value", solution.u.coeffs)
    written.append(path)
    if bundle.get("sigmastar") is not None:
        path = out_dir / "field_recovered.csv"
        _write_recovered_csv(path, bundle["sigmastar"])
        written.append(path)
    return written


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
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    if args.mode == "uniform":
        levels = args.levels if args.levels is not None else 6
        rows, bundle = run_convergence(problem, kind=kind, levels=levels, initial_mesh=initial_mesh)
        errors_path = out_dir / "errors.csv"
        errors_path.write_text(emit(rows, fmt="csv"))
        written.append(errors_path)
        print(f"problem={args.problem} element={kind} mode=uniform levels={levels}")
        print(emit(rows, fmt="table"), end="")
        if len(rows) >= 3:
            orders_path = out_dir / "orders.csv"
            orders_path.write_text(emit_orders(rows, fmt="csv"))
            written.append(orders_path)
            print("fitted orders (least squares on all but the coarsest level):")
            print(emit_orders(rows, fmt="table"), end="")
        written.extend(_dump_fields(out_dir, bundle))
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
        history_path = out_dir / "history.csv"
        history_path.write_text(emit_history(history))
        written.append(history_path)
        mesh_path = out_dir / "mesh_final.txt"
        save_mesh(history.final_mesh, mesh_path)
        written.append(mesh_path)
        print(
            f"problem={args.problem} element={kind} mode=adaptive "
            f"theta={theta:g} max_iters={max_iters} max_dofs={args.max_dofs}"
        )
        print(emit_history(history), end="")
        written.extend(
            _dump_fields(
                out_dir,
                {"solution": history.final_solution, "sigmastar": history.final_sigmastar},
            )
        )

    print("wrote: " + " ".join(str(p) for p in written))
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
        except (SingularMatrixError, SolverMemoryError) as exc:
            print("error: " + " ".join(str(exc).split()), file=sys.stderr)
            return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
