"""One measured process: the set-up, then at most one run of the CLI.

Usage: ``python3 child.py '<json spec>'``.  The spec names the package
source directory, the problem, the start-mesh file and, for a solve, the
CLI arguments and whether to trace.  The last line of standard output is
one JSON object with the measurements.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from tracing import ROOT, Tracer


def main():
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from oseenstress import cli
    from oseenstress.mesh import load_mesh
    from oseenstress.problems import get_problem

    get_problem(spec["problem"])
    load_mesh(spec["mesh"])
    result = {"setup_s": time.perf_counter() - start}
    if spec["mode"] == "solve":
        tracer = Tracer(spec["run_id"]) if spec["trace"] else None
        try:
            if tracer is not None:
                tracer.install()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    root = tracer.open(ROOT)
                begin = time.perf_counter()
                try:
                    code = cli.main(spec["argv"])
                finally:
                    wall = time.perf_counter() - begin
                    if tracer is not None:
                        tracer.close(root)
            result.update(wall_s=wall, exit_code=code)
        except Exception:  # the run failed; report it instead of dying
            result["error"] = traceback.format_exc(limit=4)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["restored"] = tracer.restored()
            if "error" not in result:
                result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
