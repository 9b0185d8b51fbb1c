"""Mixed H(div) finite elements for the pseudostress-velocity Oseen system.

The first-order system solved here replaces the pressure of the Oseen
equations by the (nonsymmetric) pseudostress ``sigma = grad(u) - p*I``.
The package provides:

* triangle meshes with red-green adaptive refinement (:mod:`oseenstress.mesh`),
* lowest-order Raviart-Thomas and Brezzi-Douglas-Marini tensor spaces with
  piecewise-constant velocities (:mod:`oseenstress.spaces`),
* assembly and direct solution of the mixed saddle-point system
  (:mod:`oseenstress.assembly`),
* element-local velocity postprocessing and patch-recovery of the
  pseudostress (:mod:`oseenstress.postprocess`),
* error norms, supercloseness measures and convergence-order fits
  (:mod:`oseenstress.errors`),
* recovery-driven adaptive refinement (:mod:`oseenstress.adaptive`),
* benchmark problems and a command line front end
  (:mod:`oseenstress.problems`, :mod:`oseenstress.cli`).
"""

__version__ = "0.1.0"
