"""The traced benchmark still finds every function it wraps and field it reads.

``benchmarks/tracing.py`` wraps package functions on the module attribute
through which their callers look them up, and reads solver statistics
from the returned objects.  These runs fail when a rename or an import
change leaves a wrapped name missing or no longer called through it.
"""

import importlib
from pathlib import Path

import pytest

from oseenstress import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

RUNS = {
    "p1-uniform": (
        ["--problem", "p1", "--mode", "uniform", "--levels", "3"],
        {"loop.convergence", "spaces.reference", "errors.norms", "mesh.refine", "postprocess.recover"},
    ),
    "p2-adaptive": (
        ["--problem", "p2", "--mode", "adaptive", "--levels", "2"],
        {"loop.adaptive", "adaptive.estimate", "adaptive.mark", "mesh.refine", "mesh.io", "postprocess.recover"},
    ),
}
# spans every solve passes through
SOLVE_SPANS = {
    "sparsela.factor",
    "sparsela.lu_solve",
    "sparsela.to_csr",
    "assembly.solve",
    "assembly.assemble",
    "spaces.build",
    "postprocess.lift",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_tracer_wraps_every_target_and_restores(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    args, expected = RUNS[name]
    tracer = tracing.Tracer(name)
    tracer.install()
    try:
        root = tracer.open(tracing.ROOT)
        try:
            code = cli.main(["solve", *args, "--out", str(tmp_path)])
        finally:
            tracer.close(root)
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert code == 0
    assert tracer.restored()
    recorded = {span["name"] for span in tracer.spans}
    assert expected | SOLVE_SPANS | {tracing.ROOT} <= recorded
    trace = tracer.summary()
    assert trace["metrics"]["trace.remainder_s"] == pytest.approx(trace["loop_self_s"], abs=1e-6)
    assert all(level["residual"] <= 1e-9 for level in trace["levels"])
