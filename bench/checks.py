"""Output checks for the benchmark: invariants, an independent oracle, a stored reference.

Every timed call's output is checked against the run's first output byte for
byte (same inputs, deterministic program).  On top of that:

* ``simulate``: each estimator row of ``ase_report.csv`` must carry exactly
  ``reps`` successful replications and no failure, its selected (h, b) must
  lie on the protocol grid and its ``mean_ase`` must be finite and positive.
* ``estimate``: ``predictions.csv`` is compared, at a seeded subset of grid
  points, with a direct NumPy evaluation of the estimator written here from
  the formula (not from the package).
* Both: a pinned input is run once per benchmark run and compared with
  ``reference.json``.

Ill-conditioned regime.  With Gaussian errors the deconvolution weights are
amplified by up to exp(s v^2 / (2 b^2)); at the desk grid's b = 0.02 kernel
values reach ~1e145 and ASE values move when a sum is merely reordered.  A
reference row of the ``deconv`` or ``partial_linear`` estimator whose
config's bandwidth grid has a b with weight amplification at or above
``ILL_CONDITIONED_AMPLIFICATION`` may drift in (h, b, mean_ase,
excluded_points): the drift is recorded, not failed, as long as the row's
replication and failure counts match exactly and mean_ase stays within a
factor ``ILL_CONDITIONED_FACTOR`` of the reference.  Every other row must match
the pair exactly and mean_ase to ``RTOL``.

Regenerate the stored reference only when the program's output is meant to
change:  python3 bench/run.py --write-reference
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from inputs import VARIANCE_SCALE

REFERENCE_PATH = Path(__file__).with_name("reference.json")

RTOL = 1e-9
ILL_CONDITIONED_AMPLIFICATION = 1e8
ILL_CONDITIONED_FACTOR = 10.0
ORACLE_POINTS = 64
RIDGE_SCALE = 1e-8
DECONV_ESTIMATORS = ("deconv", "partial_linear")


# -- independent evaluation of the estimator -------------------------------

def _cf(family, variance, v):
    """Characteristic functions of the built-in laws (Laplace by variance)."""
    v2 = v * v
    gaussian = np.exp(-0.5 * variance[:, None] * v2[None, :])
    laplace = 1.0 / (1.0 + 0.5 * variance[:, None] * v2[None, :])
    return np.where((np.asarray(family) == "laplace")[:, None], laplace, gaussian)


def _symmetric_gauss_legendre(m):
    nodes, weights = leggauss(m)
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


def _kernel_coefficients(family, variance, b, m):
    """c_jm = w_m (1 - v_m^2)^3 cf_j(v_m/b) / sum_k cf_k(v_m/b)^2, shape (n, M)."""
    nodes, weights = _symmetric_gauss_legendre(m)
    cf = _cf(family, variance, nodes / b)
    denom = (cf * cf).sum(axis=0)
    return nodes, weights * (1.0 - nodes * nodes) ** 3 * cf / denom


def amplification(family, variance, b, m):
    """Largest deconvolution weight magnitude (1 - v^2)^3 |cf_j(v/b)| / S(v/b)."""
    nodes, weights = _symmetric_gauss_legendre(m)
    cf = _cf(family, variance, nodes / b)
    with np.errstate(divide="ignore", over="ignore"):
        amp = (1.0 - nodes * nodes) ** 3 * np.abs(cf) / (cf * cf).sum(axis=0)
    return float(np.max(amp))


def oracle_points(sample, h, b, m, xs, ts):
    """(f_hat, numerator) at paired points (xs[i], ts[i]), straight from the formula.

    L_j(u) = (1/2pi) sum_m c_jm cos(v_m u) since every built-in law is even
    and the nodes are symmetric; f = sum_j K((x-x_j)/h) L_j((t-w_j)/b) / (h b).
    """
    nodes, coef = _kernel_coefficients(sample["family"], sample["variance"], b, m)
    f = np.empty(len(xs))
    num = np.empty(len(xs))
    for i, (x0, t0) in enumerate(zip(xs, ts)):
        kx = np.exp(-0.5 * ((x0 - sample["x"]) / h) ** 2) / math.sqrt(2.0 * math.pi)
        u = (t0 - sample["w"]) / b
        lt = (coef * np.cos(u[:, None] * nodes[None, :])).sum(axis=1) / (2.0 * math.pi)
        f[i] = (kx * lt).sum() / (h * b)
        num[i] = (kx * lt * sample["y"]).sum() / (h * b)
    return f, num


# -- parsing ---------------------------------------------------------------

def read_csv_bytes(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _float(text):
    return float(text) if text != "" else None


def ase_rows(data: bytes) -> dict:
    rows = {}
    for r in read_csv_bytes(data):
        rows[r["estimator"]] = {
            "h": _float(r["h"]),
            "b": float(r["b"]),
            "mean_ase": float(r["mean_ase"]),
            "rep_count": int(r["rep_count"]),
            "excluded_points": int(r["excluded_points"]),
        }
    return rows


# -- checks ----------------------------------------------------------------

def check_simulate(data: bytes, stderr: str, estimators, reps, grid) -> list[str]:
    """Invariants every simulate output must meet, whatever the seed."""
    problems = []
    warnings = [line for line in stderr.splitlines() if line.startswith("warning:")]
    if warnings:
        problems.append(f"{len(warnings)} failed replications: {warnings[0]}")
    rows = ase_rows(data)
    if sorted(rows) != sorted(estimators):
        problems.append(f"estimator rows {sorted(rows)} != {sorted(estimators)}")
    for name, row in rows.items():
        if row["rep_count"] != reps:
            problems.append(f"{name}: rep_count {row['rep_count']} != {reps}")
        on_grid = [row["b"]] + ([] if name == "partial_linear" else [row["h"]])
        if any(v is None or np.min(np.abs(grid - v)) > 1e-12 for v in on_grid):
            problems.append(f"{name}: selected (h, b) = ({row['h']}, {row['b']}) not on the grid")
        if not (math.isfinite(row["mean_ase"]) and row["mean_ase"] > 0):
            problems.append(f"{name}: mean_ase {row['mean_ase']!r}")
        if row["excluded_points"] < 0:
            problems.append(f"{name}: excluded_points {row['excluded_points']}")
    return problems


def ill_conditioned_bs(family, n, grid, quad_nodes):
    variance = VARIANCE_SCALE * (1.0 + np.arange(1, n + 1) / n)
    families = np.full(n, "laplace" if family == "laplace" else "gaussian")
    return [float(b) for b in grid
            if amplification(families, variance, b, quad_nodes) >= ILL_CONDITIONED_AMPLIFICATION]


def compare_simulate(rows: dict, reference: dict, ill_b) -> tuple[list[str], list[str]]:
    """Pinned run against the stored rows: (problems, recorded drift).

    ``ill_b`` lists the config's ill-conditioned bandwidths; when it is
    nonempty the deconvolution-kernel rows may drift (see module docstring).
    """
    problems, drift = [], []
    for name, ref in reference["rows"].items():
        got = rows.get(name)
        if got is None:
            problems.append(f"reference row {name} missing")
            continue
        if got["rep_count"] != ref["rep_count"]:
            problems.append(f"{name}: rep_count {got['rep_count']} != reference {ref['rep_count']}")
        same_pair = got["h"] == ref["h"] and got["b"] == ref["b"]
        close = math.isclose(got["mean_ase"], ref["mean_ase"], rel_tol=RTOL)
        if same_pair and close and got["excluded_points"] == ref["excluded_points"]:
            continue
        summary = (f"{name}: (h, b, mean_ase, excluded) = ({got['h']}, {got['b']}, "
                   f"{got['mean_ase']!r}, {got['excluded_points']}) vs reference "
                   f"({ref['h']}, {ref['b']}, {ref['mean_ase']!r}, {ref['excluded_points']})")
        ratio = got["mean_ase"] / ref["mean_ase"]
        if (ill_b and name in DECONV_ESTIMATORS and math.isfinite(ratio)
                and 1.0 / ILL_CONDITIONED_FACTOR <= ratio <= ILL_CONDITIONED_FACTOR):
            drift.append(summary)
        else:
            problems.append(summary)
    return problems, drift


def check_estimate(data: bytes, sample, h, b, m, xs, ts, seed) -> list[str]:
    """predictions.csv against the oracle at ORACLE_POINTS seeded grid points."""
    rows = read_csv_bytes(data)
    if len(rows) != len(xs) * len(ts):
        return [f"predictions.csv has {len(rows)} rows, expected {len(xs) * len(ts)}"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rows), size=min(ORACLE_POINTS, len(rows)), replace=False)
    ix, it = np.divmod(picks, len(ts))
    f_ref, num_ref = oracle_points(sample, h, b, m, xs[ix], ts[it])
    floor = RIDGE_SCALE / (h * b)
    f_tol = RTOL * max(1.0, float(np.max(np.abs(f_ref))))
    num_tol = RTOL * max(1.0, float(np.max(np.abs(num_ref))))
    problems = []
    for k, p in enumerate(picks):
        r = rows[p]
        x, t = float(r["x"]), float(r["t"])
        if abs(x - xs[ix[k]]) > 1e-12 or abs(t - ts[it[k]]) > 1e-12:
            problems.append(f"row {p}: grid point ({x}, {t}) != ({xs[ix[k]]}, {ts[it[k]]})")
            continue
        f_hat, r_hat, flagged = float(r["f_hat"]), float(r["r_hat"]), r["flagged"] == "1"
        if abs(f_hat - f_ref[k]) > f_tol:
            problems.append(f"row {p}: f_hat {f_hat!r} vs oracle {f_ref[k]!r}")
        if abs(abs(f_ref[k]) - floor) > f_tol and flagged != (abs(f_ref[k]) <= floor):
            problems.append(f"row {p}: flagged={flagged} but oracle f_hat {f_ref[k]!r}")
        if not flagged and abs(r_hat * f_hat - num_ref[k]) > num_tol:
            problems.append(f"row {p}: r_hat*f_hat {r_hat * f_hat!r} vs oracle {num_ref[k]!r}")
    return problems[:5]


def estimate_digest(data: bytes, every: int) -> dict:
    rows = read_csv_bytes(data)
    picked = rows[::every]
    return {
        "rows": len(rows),
        "flagged": sum(r["flagged"] == "1" for r in rows),
        "every": every,
        "samples": [[float(r[c]) for c in ("x", "t", "r_hat", "f_hat")] + [int(r["flagged"])]
                    for r in picked],
    }


def compare_estimate(data: bytes, reference: dict) -> list[str]:
    got = estimate_digest(data, reference["every"])
    problems = []
    for key in ("rows", "flagged"):
        if got[key] != reference[key]:
            problems.append(f"{key}: {got[key]} != reference {reference[key]}")
    for g, r in zip(got["samples"], reference["samples"]):
        scale = max(1.0, abs(r[3]))
        if g[4] != r[4] or any(not math.isclose(a, c, rel_tol=RTOL, abs_tol=RTOL * scale)
                               for a, c in zip(g[:4], r[:4])):
            problems.append(f"sample {g} != reference {r}")
            break
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
