"""Benchmark of the four paper workloads, end to end and by layer.

    python3 benchmarks/run.py --workload p1-rt0-uniform --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 1

Each measured run is a fresh process (``child.py``) that imports the
package from ``src/``, loads the start mesh and calls
``oseenstress.cli.main(["solve", ...])`` once, with ``--mesh`` pointing at
a generated mesh file and ``--out`` at a scratch directory inside the
checkout.  Runs are repeated until ``--seconds`` have passed; every
metric is a median over the runs.  With ``--trace 1`` runs alternate
between untraced and traced, and the traced ones report per-layer self
times (see ``tracing.py``).  Every run's outputs are checked
(``checks.py``) and all runs of one input must write identical files.

Inputs.  Timed runs start from the paper mesh of the problem at every
seed.  The seed moves each interior vertex of that coarse mesh by up to
``JITTER`` times its shortest incident edge (boundary vertices, and so the
p2 re-entrant corner, stay fixed); one smaller run per seed solves on that
mesh and is held to the seed-independent checks.  The timed runs do not
use it because the sparse LU fill of this saddle-point system changes by
up to 1.7x under any perturbation of the mesh, so timings would compare
pivot sequences, not code.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a per-run record with versions,
per-solve statistics and spans goes to ``benchmarks/records/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
RECORDS = HERE / "records"

BLAS_THREADS = 1
JITTER = 0.02
MIN_TIMED_RUNS = 2
HARD_LIMIT_S = 165.0  # a run of this script must end within 180 s
# metric names and units, per mode: --trace 0 reports end_to_end, --trace 1 per_layer
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = [{m["name"]: m["unit"] for m in SPEC[group]} for group in ("end_to_end", "per_layer")]

WORKLOADS = {
    # the paper's RT0 table: largest RT0 factorization, heaviest on errors,
    # recovery and CLI output; no red-green refinement
    "p1-rt0-uniform": {"problem": "p1", "mode": "uniform", "element": "rt0", "levels": 6,
                       "seeded": {"levels": 5}},
    # the only BDM1 run; densest fill per unknown; no patch recovery
    "p1-bdm1-uniform": {"problem": "p1", "mode": "uniform", "element": "bdm1", "levels": 5,
                        "seeded": {"levels": 4}},
    # many small solves; red-green refinement, recovery and estimator stand out
    "p2-adaptive": {"problem": "p2", "mode": "adaptive", "element": "rt0", "theta": 0.7, "levels": 60,
                    "max_dofs": 30000, "seeded": {"max_dofs": 10000}},
    # convection-dominated: off-diagonal pivoting, no closed form (errors idle)
    "p3-adaptive": {"problem": "p3", "mode": "adaptive", "element": "rt0", "theta": 0.3, "levels": None,
                    "max_dofs": 40000, "seeded": {"max_dofs": 10000}},
}


def cli_argv(params, mesh, out):
    argv = ["solve", "--problem", params["problem"], "--element", params["element"], "--mode", params["mode"]]
    if params["mode"] == "adaptive":
        argv += ["--theta", str(params["theta"]), "--max-dofs", str(params["max_dofs"])]
    if params["levels"] is not None:
        argv += ["--levels", str(params["levels"])]
    return argv + ["--mesh", str(mesh), "--out", str(out)]


def perturbed(mesh, seed):
    """The mesh with interior vertices moved by a seeded bounded jitter."""
    import numpy as np

    from oseenstress.mesh import build_mesh

    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    lengths = mesh.edge_lengths()
    shortest = np.full(mesh.nv, np.inf)
    np.minimum.at(shortest, mesh.edges[:, 0], lengths)
    np.minimum.at(shortest, mesh.edges[:, 1], lengths)
    radius = JITTER * shortest * np.sqrt(rng.random(mesh.nv))
    angle = 2.0 * np.pi * rng.random(mesh.nv)
    step = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    step[mesh.boundary_vertices()] = 0.0
    moved = build_mesh(mesh.vertices + step, mesh.triangles, mesh.region)
    if not np.array_equal(moved.triangles, mesh.triangles):
        raise RuntimeError(f"seed {seed} inverted a triangle")
    return moved


def environment():
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "oseenstress").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    nproc = os.cpu_count() or 1
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": min(BLAS_THREADS, nproc),
        "machine": platform.machine(),
    }


def run_child(spec, hard_end):
    """Run one child process; its JSON result, or an ``error`` entry."""
    timeout = hard_end - time.monotonic()
    if timeout <= 1.0:
        return {"error": "no time left in this run", "duration": 0.0}
    began = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s", "duration": time.monotonic() - began}
    duration = time.monotonic() - began
    if proc.returncode != 0:
        return {"error": f"child exited with {proc.returncode}: {proc.stderr[-2000:]}", "duration": duration}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration"] = duration
    return result


def output_digest(out_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out_dir).iterdir())}


def solve_once(name, params, mesh, traced, against_reference, work, index, hard_end, seed):
    from checks import check_run

    out = work / f"out{index}"
    spec = {"src": str(SRC), "problem": params["problem"], "mesh": str(mesh), "mode": "solve",
            "argv": cli_argv(params, mesh, out), "trace": traced, "run_id": f"{name}/{seed}/{index}"}
    result = run_child(spec, hard_end)
    run = {"input": "paper" if against_reference else "seeded", "traced": traced, "problems": []}
    if "error" in result:
        run["problems"].append(result["error"])
    else:
        if result["exit_code"] != 0:
            run["problems"].append(f"exit code {result['exit_code']}")
        try:
            problems, run["final_error"] = check_run(name, out, params, against_reference)
            run["problems"] += problems
            run["outputs"] = output_digest(out)
        except (OSError, KeyError, ValueError) as exc:
            run["problems"].append(f"unreadable output: {exc!r}")
        if traced and not result.get("restored"):
            run["problems"].append("a wrapped attribute was not restored")
    shutil.rmtree(out, ignore_errors=True)
    for key in ("wall_s", "setup_s", "peak_rss_mb", "trace", "duration"):
        if key in result:
            run[key] = result[key]
    return run


def measure(name, seed, seconds, trace):
    """All runs of one workload and seed; returns (result line, record)."""
    from oseenstress.mesh import save_mesh
    from oseenstress.problems import get_problem

    params = WORKLOADS[name]
    start = time.monotonic()
    budget_end = start + seconds
    hard_end = start + HARD_LIMIT_S
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        paper_mesh = get_problem(params["problem"]).initial_mesh()
        paper, seeded = work / "paper_mesh.txt", work / "seeded_mesh.txt"
        save_mesh(paper_mesh, paper)
        save_mesh(perturbed(paper_mesh, seed), seeded)

        # warms the file cache and any bytecode cache; not counted
        warm = run_child({"src": str(SRC), "problem": params["problem"], "mesh": str(paper), "mode": "setup"},
                         hard_end)
        if "error" in warm:
            raise SystemExit(f"set-up failed: {warm['error']}")

        runs = [solve_once(name, {**params, **params["seeded"]}, seeded, False, False, work, 0, hard_end, seed)]
        paper_runs = []
        while True:
            done = len(paper_runs)
            durations = [r["duration"] for r in paper_runs if "duration" in r]
            expected = statistics.median(durations) if durations else 0.0
            if done >= MIN_TIMED_RUNS and time.monotonic() + expected > budget_end:
                break
            if time.monotonic() + expected > hard_end - 5.0:
                break
            traced_run = bool(trace) and done % 2 == 1
            paper_runs.append(solve_once(name, params, paper, traced_run, True, work, done + 1, hard_end, seed))
        runs += paper_runs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # harness self-checks: one input gives the same files, traced or not, and
    # the spans nest so that the layer self times and the outer loops' self
    # time add up to the traced wall time
    reference_outputs = next((r["outputs"] for r in paper_runs if "outputs" in r), None)
    for run in paper_runs:
        if "outputs" in run and run["outputs"] != reference_outputs:
            run["problems"].append("outputs differ from the first run on the same input")
        if "trace" in run and abs(run["trace"]["metrics"]["trace.remainder_s"]
                                  - run["trace"]["loop_self_s"]) > 1e-6:
            run["problems"].append("layer self times and the remainder do not add up to the traced wall time")

    # measure the runs that passed; when none did, the ones that still ran to
    # the end, so that the result line reports the failure with its timings
    measured = [r for r in paper_runs if not r["problems"]] or [
        r for r in paper_runs if "final_error" in r and "wall_s" in r and (not r["traced"] or "trace" in r)]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    failed = sum(1 for r in runs if r["problems"])
    if not untraced or (trace and not traced):
        raise SystemExit(f"{name}: no run to measure; problems: "
                         + "; ".join(p for r in runs for p in r["problems"])[:4000])

    setup_times = [r["setup_s"] for r in runs if "setup_s" in r]
    if trace:
        metrics = {}
        for key in traced[0]["trace"]["metrics"]:
            metrics[key] = statistics.median(r["trace"]["metrics"][key] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "final_error": untraced[0]["final_error"],
        }
    units = UNITS[trace]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    line = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "command": cli_argv(params, "<mesh>", "<out>"),
        "environment": environment(),
        "setup_s": setup_times,
        "runs": runs,
        "result": line,
    }
    return line, record


def report(name, line, record):
    """Human-readable lines for one workload."""
    runs = record["runs"]
    print(f"{name} seed={record['seed']} trace={record['trace']}: {len(runs)} runs "
          f"({sum(r['input'] == 'seeded' for r in runs)} on the seeded mesh), "
          f"{sum(r['traced'] for r in runs)} traced")
    for run in runs:
        for problem in run["problems"]:
            print(f"  FAILED ({run['input']}): {problem}")
    metrics = line["metrics"]
    for key, metric in sorted(metrics.items(), key=lambda kv: (kv[1]["unit"] != "s", -kv[1]["value"])):
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':32s} {line['failed'] / line['attempted']:14.6g} "
          f"({line['failed']}/{line['attempted']} runs)")
    for run in runs:
        if "trace" in run:
            layer = run["trace"]["metrics"]
            layers = sum(layer[key] for key in SELF_TIME_METRICS.values())
            print(f"  traced run: layer self times {layers:.6f} s + trace.remainder_s "
                  f"{layer['trace.remainder_s']:.6f} s = trace.wall_s {layer['trace.wall_s']:.6f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "oseenstress" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'oseenstress'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # children inherit the cap
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    RECORDS.mkdir(parents=True, exist_ok=True)
    lines = {}
    for name in names:
        line, record = measure(name, args.seed, args.seconds, args.trace)
        path = RECORDS / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        report(name, line, record)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}/{key}": value for name, line in lines.items()
                        for key, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
