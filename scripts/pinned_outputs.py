"""Hash the 22 pinned CLI outputs and 2 validate reports of a source tree; check the hashes.

    python3 scripts/pinned_outputs.py --src path/to/tree/src

Every run is a fresh ``python -m hetdeconv.cli`` process on the package in
``--src``, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set
to 1: the estimate outputs depend on the BLAS thread count.  Prints one
``name sha256[:12]`` line per output file (per stdout for ``validate``); two
trees give the same outputs when they print the same lines.  It then compares
the lines with ``scripts/pinned_outputs.txt`` and exits 1, naming every output
whose hash differs from the file's or is missing from either side.

The committed hashes hold for the BLAS they were recorded on (NumPy 2.4's
bundled scipy-openblas 0.3.31, x86-64); another BLAS build may round the
estimates differently and print other hashes.  A change that alters an
output on purpose updates ``pinned_outputs.txt`` in the same commit.

The runs: desk ``simulate`` (reps 4, seed 20250808, 2 workers) for model1/2
x gaussian/laplace x n 100/500, and model1 and model2 gaussian n=100 on the b
grid {0.018, 0.02, 0.065, 0.11} x h {0.02, 0.11, 0.2}, whose b = 0.018 is
invalid and is scored beside the valid b of its group (for model2, by the
partial-linear estimator too); full-scale ``simulate`` of model2 laplace
at n=500 and n=600 (reps 2, 1 worker); ``cross-section`` of each estimator along both axes
at 0.5 on the desk model2 laplace n=100 config; ``estimate`` on the
``bench/inputs.py`` estimate-mixed-n5000 inputs of seed 7 at h = b = 0.3 on
a 60 x 60 grid, at h = 0.1, b = 0.05 on a 30 x 30 grid, the latter again
on 65 quadrature nodes, whose odd grid has a node at v = 0, and at h = 0.05,
b = 0.02 on a 40 x 40 grid over [-2.5, 2.5] with 64 nodes, whose CSV holds
exponent-form, negative and ``0.0...`` fields and flagged rows (of the
estimate runs, by ``estimators.factored_order``, ``est_d`` takes the factored
order and ``est_a``, ``est_b`` and ``est_c`` the lt order; each accumulates
its 5000 rows in blocks of GROUP_BUDGET // 2M' rows, 20 blocks at 128 nodes,
11 at 65 and 10 at 64); ``validate`` of
the desk model2 laplace n=100 config (exit 0) and of a model1 gaussian n=100
config with pairs (0.1, 0.003) and (0.1, 0.2), whose b = 0.003 fails (exit 1).

The simulate and cross-section runs sum their contraction over blocks of
R = GROUP_BUDGET // 2M' observations (``estimators.block_rows``: 512 rows at
the desk's 64 nodes, 256 at full scale's 128), and form a block's numerator
operand for runs of h whose (h, R, X) slice fits ``estimators.GROUP_BUDGET``
= 2^16 elements.  The gate pins both sides of each rule.  The desk and
cross-section runs (n <= 500) are one block each and form the operand in
one product (R H X <= 50 000).  ``full_m2_laplace_500`` runs two blocks (256
and 244 rows) of two runs of five h (R H X = 128 000); its sums equal those
of one product over the 500 rows, which OpenBLAS splits at 256 rows itself.
``full_m2_laplace_600`` runs three blocks (256, 256 and 88 rows), whose
sums differ from that split in the last bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().with_name("pinned_outputs.txt")
SEED = 20250808
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _config(work: Path, name: str, **fields) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(fields))
    return path


def runs(work: Path):
    """(name, CLI arguments, output file or None for stdout, exit code) of every
    pinned run, in print order."""
    out = []
    for model in ("model1", "model2"):
        for family in ("gaussian", "laplace"):
            for n in (100, 500):
                name = f"desk_{model}_{family}_{n}"
                cfg = _config(work, name, model=model, error_family=family, n=n, reps=4,
                              seed=SEED)
                out.append((name, ["simulate", "--config", str(cfg), "--workers", "2"],
                            "ase_report.csv", 0))
    invalid_b = {"pairs": [[h, b] for h in (0.02, 0.11, 0.2) for b in (0.11, 0.018, 0.065, 0.02)]}
    for name, model in (("desk_invalid_b", "model1"), ("desk_m2_invalid_b", "model2")):
        cfg = _config(work, name, model=model, error_family="gaussian", n=100, reps=4,
                      seed=SEED, bandwidth_grid=invalid_b)
        out.append((name, ["simulate", "--config", str(cfg), "--workers", "2"],
                    "ase_report.csv", 0))
    for n in (500, 600):
        cfg = _config(work, f"full_{n}", model="model2", error_family="laplace", n=n, reps=2,
                      seed=SEED)
        out.append((f"full_m2_laplace_{n}",
                    ["simulate", "--config", str(cfg), "--full-scale", "--workers", "1"],
                    "ase_report.csv", 0))
    cfg = work / "desk_model2_laplace_100.json"
    for estimator in ("deconv", "naive", "partial-linear"):
        for axis in ("t", "x"):
            out.append((f"cs_{estimator}_{axis}",
                        ["cross-section", "--config", str(cfg), "--axis", axis,
                         "--value", "0.5", "--estimator", estimator],
                        "cross_section.csv", 0))
    inputs = ["--data", str(work / "data.csv"), "--errors", str(work / "errors.csv")]
    for name, h, b, grid, nodes in (("est_a", "0.3", "0.3", "-2:2:60", 128),
                                    ("est_b", "0.1", "0.05", "-2:2:30", 128),
                                    ("est_c", "0.1", "0.05", "-2:2:30", 65),
                                    ("est_d", "0.05", "0.02", "-2.5:2.5:40", 64)):
        out.append((name, ["estimate", *inputs, "--h", h, "--b", b,
                           f"--x-grid={grid}", f"--t-grid={grid}", "--quad-nodes", str(nodes)],
                    "predictions.csv", 0))
    failing = _config(work, "validate_fail", model="model1", error_family="gaussian", n=100,
                      seed=SEED, bandwidth_grid={"pairs": [[0.1, 0.003], [0.1, 0.2]]})
    out.append(("validate_pass", ["validate", "--config", str(cfg)], None, 0))
    out.append(("validate_fail", ["validate", "--config", str(failing)], None, 1))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src directory holding the hetdeconv package")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()),
               **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("HETDECONV_SEED", None)
    printed = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(REPO / "bench" / "inputs.py"), "--workload",
                        "estimate-mixed-n5000", "--seed", "7", "--out", str(work)],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        for name, cli_args, output, code in runs(work):
            out_args = [] if output is None else ["--out", str(work / name)]
            proc = subprocess.run([sys.executable, "-m", "hetdeconv.cli", *cli_args, *out_args],
                                  env=env, cwd=work, stdout=subprocess.PIPE)
            if proc.returncode != code:
                sys.exit(f"{name}: exit {proc.returncode}, expected {code}")
            data = proc.stdout if output is None else (work / name / output).read_bytes()
            printed[name] = hashlib.sha256(data).hexdigest()[:12]
            print(f"{name} {printed[name]}", flush=True)
    pinned = dict(line.split() for line in PINNED.read_text().splitlines() if line.strip())
    wrong = [name for name in {**pinned, **printed} if printed.get(name) != pinned.get(name)]
    if wrong:
        sys.exit(f"outputs that differ from {PINNED.name} or are missing: {', '.join(wrong)}")


if __name__ == "__main__":
    main()
