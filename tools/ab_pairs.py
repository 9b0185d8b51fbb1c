"""In-process A/B timing of ``solve_oseen``: a base revision against the working tree.

    python3 tools/ab_pairs.py REV [--element rt0|bdm1] [--level L] [--pairs N]

REV is a git revision, whose ``src/oseenstress`` is extracted with ``git
archive`` into a temporary directory, or a directory holding an
``oseenstress`` package (the package directory itself).  Both packages
are imported into one process under two aliases, each warmed up with one
solve, and then N pairs of ``solve_oseen`` run on the uniform p1 mesh of
the given level, interleaved: pair i runs the base first when i is even
and the working tree first when it is odd.  Each call gets a mesh of its
own, built by its own package outside the timed region, so no cache of
a mesh carries over from one call to the next.

The report is the ratio working tree / base of every pair: its median,
quartiles, the pairs the working tree won, and a bootstrap 95% interval
of the median (2,000 resamples, seed 0).  Beside it stand each side's
median seconds and median minor page faults per timed solve, the
``ru_minflt`` of the process counted around each call: a solve whose
heap pages are faulted in again runs slower, so a ratio is read with its
counts.  It is printed one field a line, then as one JSON object.  One
BLAS thread is used when the script is run directly, as in the
benchmark.  Only the standard library and numpy are used.
"""

import argparse
import gc
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")  # read when numpy is first imported

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKING_TREE = ROOT / "src" / "oseenstress"
BOOTSTRAP = 2000


def extract(rev: str, into: Path) -> Path:
    """The ``src/oseenstress`` of git revision `rev`, extracted under `into`; its package directory."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/oseenstress"],
        check=True,
        capture_output=True,
    ).stdout
    # extraction filters came with Python 3.12 and the security releases of 3.10 and 3.11
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as fh:
        fh.extractall(into, **safe)
    return into / "src" / "oseenstress"


def load(package: Path, alias: str):
    """Import the package directory `package` under the module name `alias`, its submodules under ``alias.*``."""
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    for name in ("assembly", "mesh", "problems"):
        importlib.import_module(f"{alias}.{name}")
    return module


def timed_solve(package, kind: str, level: int) -> tuple:
    """Seconds and minor page faults of one ``solve_oseen`` of p1 on a fresh uniform mesh of `level`, built untimed."""
    mesh = package.mesh.make_square_piecewise_uniform(level)
    problem = package.problems.get_problem("p1")
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    package.assembly.solve_oseen(problem, mesh, kind=kind)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def report(base: list, change: list, base_faults: list, change_faults: list) -> dict:
    """The ratios change / base of the pairs: median, quartiles, wins and a bootstrap 95% interval of the median; each side's median seconds and faults."""
    ratio = np.asarray(change) / np.asarray(base)
    resampled = np.random.default_rng(0).choice(ratio, size=(BOOTSTRAP, ratio.size))
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    q1, median, q3 = np.percentile(ratio, [25, 50, 75])
    return {
        "pairs": int(ratio.size),
        "median_ratio": float(median),
        "q1_ratio": float(q1),
        "q3_ratio": float(q3),
        "wins": int(np.count_nonzero(ratio < 1.0)),
        "ci95_median": [float(low), float(high)],
        "base_median_s": float(np.median(base)),
        "change_median_s": float(np.median(change)),
        "base_median_minflt": round(float(np.median(base_faults))),
        "change_median_minflt": round(float(np.median(change_faults))),
    }


def run_pairs(base_package: Path, change_package: Path, kind: str, level: int, pairs: int) -> dict:
    """Load both packages, warm each up, time `pairs` interleaved pairs and return the :func:`report`."""
    sides = [load(base_package, "_ab_base"), load(change_package, "_ab_change")]
    try:
        for package in sides:
            timed_solve(package, kind, level)
        measured = ([], [])
        for i in range(pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                measured[side].append(timed_solve(sides[side], kind, level))
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in ("_ab_base", "_ab_change")]:
            del sys.modules[name]
    (base, base_faults), (change, change_faults) = (zip(*side) for side in measured)
    return report(base, change, base_faults, change_faults)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision or oseenstress package directory of the base")
    parser.add_argument("--element", choices=("rt0", "bdm1"), default="rt0")
    parser.add_argument("--level", type=int, default=5, help="uniform refinements of the p1 start mesh")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.rev) if Path(args.rev).is_dir() else extract(args.rev, Path(tmp))
        result = run_pairs(base, WORKING_TREE, args.element, args.level, args.pairs)
    result = {"base": args.rev, "element": args.element, "level": args.level, **result}
    for name, value in result.items():
        print(f"{name} {value}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
