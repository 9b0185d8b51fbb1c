"""Layer spans recorded from outside the package.

:class:`Tracer` replaces each layer's public functions, on the module
attribute through which the caller looks them up, with a wrapper that
records a span (name, start, end, parent, run id).  Spans stay in memory;
:meth:`Tracer.summary` turns them into per-layer self times and counts.
The package itself is not modified: :meth:`Tracer.uninstall` puts every
original object back and :meth:`Tracer.restored` checks that it did.
"""

import functools
import importlib
import time

# (layer span name, module the caller looks the function up in, attribute)
TARGETS = [
    ("sparsela.factor", "scipy.sparse.linalg", "splu"),
    ("sparsela.lu_solve", "oseenstress.assembly", "lu_solve"),
    ("sparsela.to_csr", "oseenstress.assembly", "to_csr"),
    ("assembly.solve", "oseenstress.cli", "solve_oseen"),
    ("assembly.solve", "oseenstress.adaptive", "solve_oseen"),
    ("assembly.assemble", "oseenstress.assembly", "assemble"),
    ("spaces.build", "oseenstress.assembly", "build_space"),
    ("spaces.reference", "oseenstress.cli", "project_velocity"),
    ("spaces.reference", "oseenstress.cli", "interpolate_pseudostress"),
    ("postprocess.recover", "oseenstress.cli", "recover_pseudostress"),
    ("postprocess.recover", "oseenstress.adaptive", "recover_pseudostress"),
    ("postprocess.lift", "oseenstress.cli", "postprocess_velocity"),
    ("postprocess.lift", "oseenstress.adaptive", "postprocess_velocity"),
    ("mesh.refine", "oseenstress.cli", "uniform_quad_refine"),
    ("mesh.refine", "oseenstress.adaptive", "refine_marked"),
    ("mesh.io", "oseenstress.cli", "load_mesh"),
    ("mesh.io", "oseenstress.cli", "save_mesh"),
    ("errors.norms", "oseenstress.cli", "l2_error"),
    ("errors.norms", "oseenstress.cli", "hdiv_error"),
    ("errors.norms", "oseenstress.cli", "supercloseness"),
    ("errors.norms", "oseenstress.adaptive", "l2_error"),
    ("adaptive.estimate", "oseenstress.adaptive", "compute_indicators"),
    ("adaptive.mark", "oseenstress.adaptive", "mark_max"),
    # outer loops: their self time is the labelled remainder
    ("loop.convergence", "oseenstress.cli", "run_convergence"),
    ("loop.adaptive", "oseenstress.cli", "adaptive_solve"),
]

ROOT = "cli.main"
REMAINDER_SPANS = ("loop.convergence", "loop.adaptive")
# self-time metric per span name; the root's self time is the CLI's own output work
SELF_TIME_METRICS = {
    "sparsela.factor": "sparsela.factor_s",
    "sparsela.lu_solve": "sparsela.lu_solve_self_s",
    "sparsela.to_csr": "sparsela.to_csr_s",
    "assembly.solve": "assembly.solve_self_s",
    "assembly.assemble": "assembly.assemble_self_s",
    "spaces.build": "spaces.build_s",
    "spaces.reference": "spaces.reference_s",
    "postprocess.recover": "postprocess.recover_s",
    "postprocess.lift": "postprocess.lift_s",
    "mesh.refine": "mesh.refine_s",
    "mesh.io": "mesh.io_s",
    "errors.norms": "errors.norms_s",
    "adaptive.estimate": "adaptive.estimate_s",
    "adaptive.mark": "adaptive.mark_s",
    ROOT: "cli.output_s",
}


def _note_factor(info, args, result):
    matrix = args[0]
    info["n"] = int(matrix.shape[0])
    info["nnz"] = int(matrix.nnz)
    # SuperLU.nnz is a stored count; reading .L or .U would copy the factors
    info["fill"] = int(result.nnz)


def _note_solve(info, args, result):
    info["residual"] = float(result.residual)
    info["mesh"] = args[1]


def _note_assemble(info, args, result):
    info["n"] = int(result.matrix.n)
    info["nnz"] = int(result.matrix.nnz)


NOTES = {
    "sparsela.factor": _note_factor,
    "assembly.solve": _note_solve,
    "assembly.assemble": _note_assemble,
    "postprocess.recover": lambda info, args, result: info.update(vertices=int(result.mesh.nv)),
    "adaptive.mark": lambda info, args, result: info.update(marked=int(len(result))),
}


class Tracer:
    """Span recorder for one run of the CLI."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # dicts: name, start, end, parent, run, info
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run_id, "info": {}})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                note(self.spans[index]["info"], args, result)
            return result

        return wrapper

    def install(self):
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)

    def restored(self):
        """True when every wrapped attribute is the original object again."""
        return all(getattr(module, attr) is original for module, attr, original in self._installed)

    def _self_times(self):
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] >= 0:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]

    def summary(self):
        """Per-layer self times and counts, plus per-solve solver records."""
        from oseenstress.mesh import mesh_stats

        self_times = self._self_times()
        by_name = {}
        for span, own in zip(self.spans, self_times):
            by_name.setdefault(span["name"], []).append((span, own))

        def spans(name):
            return [span for span, _ in by_name.get(name, [])]

        metrics = {metric: sum(own for _, own in by_name.get(name, []))
                   for name, metric in SELF_TIME_METRICS.items()}
        root = spans(ROOT)[0]
        wall = root["end"] - root["start"]
        metrics["trace.wall_s"] = wall
        metrics["trace.remainder_s"] = wall - sum(metrics[m] for m in SELF_TIME_METRICS.values())
        loop_self = sum(own for name in REMAINDER_SPANS for _, own in by_name.get(name, []))

        factors = [s["info"] for s in spans("sparsela.factor")]
        solves = [s["info"] for s in spans("assembly.solve")]
        largest = max(factors, key=lambda f: f["n"])
        metrics["sparsela.factor_calls"] = len(factors)
        metrics["sparsela.fill_max"] = largest["fill"]
        metrics["sparsela.fill_ratio"] = largest["fill"] / largest["nnz"]
        assembled = [s["info"] for s in spans("assembly.assemble")]
        metrics["assembly.n_max"] = max(a["n"] for a in assembled)
        metrics["assembly.nnz_max"] = max(a["nnz"] for a in assembled)
        metrics["postprocess.recover_vertices"] = sum(s["info"]["vertices"] for s in spans("postprocess.recover"))
        final = mesh_stats(solves[-1]["mesh"])
        metrics["mesh.refine_calls"] = len(spans("mesh.refine"))
        metrics["mesh.nt_final"] = final.nt
        metrics["mesh.max_ratio"] = final.max_ratio
        metrics["errors.calls"] = len(spans("errors.norms"))
        metrics["adaptive.iterations"] = len(spans("adaptive.estimate"))
        metrics["adaptive.marked_total"] = sum(s["info"]["marked"] for s in spans("adaptive.mark"))

        levels = [
            {"n": f["n"], "nnz": f["nnz"], "fill": f["fill"], "factor_s": s["end"] - s["start"],
             "residual": solve["residual"]}
            for s, f, solve in zip(spans("sparsela.factor"), factors, solves)
        ]
        t0 = root["start"]
        records = [
            {"name": s["name"], "start": s["start"] - t0, "end": s["end"] - t0,
             "parent": s["parent"], "run": s["run"]}
            for s in self.spans
        ]
        return {"metrics": metrics, "loop_self_s": loop_self, "levels": levels, "spans": records}
