"""Output checks for one CLI run.

Every run is held to properties that hold for any start mesh: the mesh
sequence, the fitted convergence orders inside the bands of
``tests/test_acceptance.py``, an honest p2 effectivity, a finite positive
p3 estimator and a reached dofs budget.  Runs on the paper meshes are
also compared with ``reference.json``: integer columns exactly, error
columns to the relative tolerance stored there.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

NT_SEQUENCE = [19, 76, 304, 1216, 4864, 19456]
# (low, high) bands on the fitted orders, as in tests/test_acceptance.py
ORDER_BANDS = {
    "rt0": {
        "err_u": (0.95, 1.05),
        "err_eh": (1.85, math.inf),
        "err_ustar": (1.85, math.inf),
        "err_sigma": (0.95, 1.05),
        "err_xih": (1.75, math.inf),
        "err_sigmastar": (1.8, math.inf),
    },
    "bdm1": {
        "err_sigma": (1.9, math.inf),
        "err_xih": (1.85, 2.2),
        "err_eh": (1.85, math.inf),
        "err_u": (0.95, 1.05),
    },
}
EFFECTIVITY_BAND = (0.7, 1.3)
INTEGER_COLUMNS = ("level", "nt", "dofs", "iter", "marked")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same(actual, expected, rtol):
    a, e = float(actual), float(expected)
    if math.isnan(e):
        return math.isnan(a)
    return abs(a - e) <= rtol * abs(e)


def _compare_row(row, expected, rtol):
    problems = []
    for column, value in expected.items():
        if column in INTEGER_COLUMNS:
            ok = int(row[column]) == int(value)
        else:
            ok = _same(row[column], value, rtol)
        if not ok:
            problems.append(f"{column}={row[column]}, reference {value}")
    return problems


def check_uniform(out_dir, element, levels):
    """Problems found in a uniform run's ``errors.csv`` and ``orders.csv``."""
    rows = _rows(Path(out_dir) / "errors.csv")
    problems = []
    nts = [int(row["nt"]) for row in rows]
    if nts != NT_SEQUENCE[:levels]:
        problems.append(f"mesh sequence {nts}")
    orders = {row["column"]: float(row["order"]) for row in _rows(Path(out_dir) / "orders.csv")}
    for column, (low, high) in ORDER_BANDS[element].items():
        if not low <= orders.get(column, math.nan) <= high:
            problems.append(f"order {column}={orders.get(column)} outside [{low}, {high}]")
    return problems, rows


def check_adaptive(out_dir, problem, max_dofs):
    """Problems found in an adaptive run's ``history.csv``."""
    rows = _rows(Path(out_dir) / "history.csv")
    problems = []
    last = rows[-1]
    if int(last["dofs"]) < max_dofs or int(last["marked"]) != 0:
        problems.append(f"stopped at dofs={last['dofs']} before the budget {max_dofs}")
    if problem == "p2":
        for row in rows[-(len(rows) // 3):]:
            if not EFFECTIVITY_BAND[0] <= float(row["effectivity"]) <= EFFECTIVITY_BAND[1]:
                problems.append(f"iteration {row['iter']}: effectivity {row['effectivity']}")
    for row in rows:
        estimator = float(row["estimator"])
        if not (math.isfinite(estimator) and estimator > 0):
            problems.append(f"iteration {row['iter']}: estimator {row['estimator']}")
    return problems, rows


def check_run(workload, out_dir, params, against_reference):
    """All problems found in one run's outputs, and its delivered error.

    The delivered error is the finest-level ``err_ustar`` for p1, the final
    ``true_error`` for p2 and the final ``estimator`` for p3.
    """
    if params["mode"] == "uniform":
        problems, rows = check_uniform(out_dir, params["element"], params["levels"])
        final_error = float(rows[-1]["err_ustar"])
    else:
        problems, rows = check_adaptive(out_dir, params["problem"], params["max_dofs"])
        column = "true_error" if params["problem"] == "p2" else "estimator"
        final_error = float(rows[-1][column])
    if against_reference:
        reference = REFERENCE["workloads"][workload]
        if "nt" in reference and [int(r["nt"]) for r in rows] != reference["nt"]:
            problems.append("nt sequence differs from the reference")
        problems += _compare_row(rows[-1], reference["last_row"], REFERENCE["rtol"])
    return problems, final_error
