"""Recovery-driven adaptive refinement loop.

Each iteration solves the mixed system, postprocesses the velocity and
recovers the pseudostress, and measures per-element indicators

    eta_K^2 = ||sigma* - sigma_h||_K^2 + ||u* - u_h||_K^2 ,

i.e. the distance between the discrete solution and its superconvergent
improvements.  All four fields are of degree <= 1 on each element, so the
indicators are exact cellwise Gram norms.  The maximum strategy marks
every element whose indicator reaches a fraction theta of the largest
one; marked elements are red-refined with red-green closure.  The loop
stops after `max_iters` refinements, once the system size reaches
`max_dofs`, or when no element is marked (a zero estimator).
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import OseenSolution, solve_oseen
from .errors import l2_error
from .mesh import Mesh, MeshQualityError, max_ratio_bound, mesh_stats, refine_marked
from .postprocess import RecoveredTensorField, postprocess_velocity, recover_pseudostress
from .problems import ProblemSpec
from .spaces import project_exact

__all__ = ["AdaptiveRecord", "AdaptiveHistory", "compute_indicators", "mark_max", "adaptive_solve"]


@dataclass
class AdaptiveRecord:
    """One adaptive iteration: sizes, estimator, errors, marking count."""

    iteration: int
    nt: int
    dofs: int
    estimator: float
    true_error: float  # nan when the problem has no closed form
    effectivity: float  # estimator / true_error, nan likewise
    marked: int


@dataclass
class AdaptiveHistory:
    """Per-iteration records plus the final discrete fields."""

    records: List[AdaptiveRecord] = field(default_factory=list)
    final_mesh: Optional[Mesh] = None
    final_solution: Optional[OseenSolution] = None
    final_sigmastar: Optional[RecoveredTensorField] = None

    @property
    def niter(self) -> int:
        return len(self.records)


def compute_indicators(sigma_h, sigma_star, u_h, u_star) -> np.ndarray:
    """Recovery-based indicators eta (nt,) on every element, as exact Gram norms."""
    eta2 = (sigma_star.cellwise() - sigma_h.cellwise()).sq_norms()
    eta2 += (u_star.cellwise() - u_h.cellwise()).sq_norms()
    return np.sqrt(eta2)


def mark_max(eta: np.ndarray, theta: float) -> np.ndarray:
    """Maximum marking: elements with ``eta >= theta * max(eta)``.

    Ties at the threshold are included.  For theta = 0 every element is
    marked; theta = 1 marks (at least) the largest one.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    eta_max = float(eta.max(initial=0.0))
    if eta_max == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(eta >= theta * eta_max)


def _true_error(problem: ProblemSpec, solution: OseenSolution) -> float:
    """Combined L2 error matching the indicator's content."""
    if not problem.has_exact:
        return float("nan")
    mesh, corner = solution.u.mesh, problem.singular_corner
    es = l2_error(solution.sigma, project_exact(mesh, problem.exact_sigma, singular_corner=corner))
    eu = l2_error(solution.u, project_exact(mesh, problem.exact_u, singular_corner=corner))
    return float(np.hypot(es, eu))


def adaptive_solve(
    problem: ProblemSpec,
    mesh: Optional[Mesh] = None,
    theta: Optional[float] = None,
    max_iters: int = 30,
    max_dofs: int = 200_000,
) -> AdaptiveHistory:
    """Run SOLVE -> ESTIMATE -> MARK -> REFINE with RT0 elements.

    Parameters
    ----------
    problem : ProblemSpec
    mesh : Mesh, optional
        Starting mesh; defaults to the problem's initial mesh.
    theta : float, optional
        Maximum-marking threshold; defaults to the problem's value.
    max_iters : int
        Number of refinement steps (the history then holds
        ``max_iters + 1`` records unless it stops earlier).
    max_dofs : int
        Stop once the solved system size reaches this.

    The run also stops when marking selects no element, which happens
    only for a zero estimator; refining would return the same mesh.  The
    last record always has ``marked == 0`` and describes the final fields.

    Raises
    ------
    MeshQualityError
        If a refinement raises ``mesh_stats`` max_ratio above the bound
        of the start mesh's shapes (:func:`~oseenstress.mesh.max_ratio_bound`),
        with a relative slack of 1e-9 for rounding.
    """
    if mesh is None:
        mesh = problem.initial_mesh()
    if theta is None:
        theta = problem.default_theta
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    history = AdaptiveHistory()
    bound = max_ratio_bound(mesh)
    iteration = 0
    while True:
        solution = solve_oseen(problem, mesh, kind="rt0")
        ustar = postprocess_velocity(solution.sigma, solution.u)
        sigmastar = recover_pseudostress(solution.sigma)
        eta = compute_indicators(solution.sigma, sigmastar, solution.u, ustar)
        estimator = float(np.sqrt(np.sum(eta**2)))
        true_err = _true_error(problem, solution)
        effectivity = estimator / true_err if np.isfinite(true_err) and true_err > 0 else float("nan")

        marked = np.empty(0, dtype=np.int64)
        if iteration < max_iters and solution.ndofs < max_dofs:
            marked = mark_max(eta, theta)
        history.records.append(
            AdaptiveRecord(
                iteration=iteration,
                nt=mesh.nt,
                dofs=solution.ndofs,
                estimator=estimator,
                true_error=true_err,
                effectivity=effectivity,
                marked=int(marked.size),
            )
        )
        if marked.size == 0:
            history.final_mesh = mesh
            history.final_solution = solution
            history.final_sigmastar = sigmastar
            return history
        # release this mesh's fields (and their cached cellwise forms)
        # before the next solve, whose factorization sets the peak memory
        del solution, ustar, sigmastar, eta
        mesh = refine_marked(mesh, marked)
        iteration += 1
        ratio = mesh_stats(mesh).max_ratio
        if ratio > bound * (1.0 + 1e-9):
            raise MeshQualityError(
                f"refinement {iteration} left a triangle with circumradius/inradius {ratio:.6g}, "
                f"above the bound {bound:.6g} of the start mesh's shapes"
            )
