"""Seeded input generator for the benchmark workloads.

The program under test only ever sees the files written here: a simulation
config JSON for the ``simulate`` workloads, and the ``x,w,y`` data CSV plus
the ``family,variance`` error-law CSV for the ``estimate`` workload.  The same
seed always yields byte-identical files.

    python3 bench/inputs.py --workload estimate-mixed-n5000 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

# (4/15)(1 + j/n), with 4/15 = 0.2 * Var(Uniform[-2, 2]): the per-observation
# error-variance profile of the simulation protocol, reused for the estimate
# workload's mixed ensemble.
VARIANCE_SCALE = 4.0 / 15.0
RESPONSE_NOISE_SD = 0.25


def derived_seed(seed: int, tag: str) -> int:
    """A 63-bit seed for one consumer, independent across tags."""
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF]
    words += [ord(c) for c in tag]
    state = np.random.SeedSequence(words).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def sim_config(model: str, family: str, n: int, reps: int, seed: int) -> dict:
    """Config with only the protocol fields set; the CLI fills in the grids."""
    return {
        "schema_version": 1,
        "model": model,
        "error_family": family,
        "n": n,
        "reps": reps,
        "seed": seed,
    }


def write_sim_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def estimate_sample(n: int, seed: int) -> dict:
    """Model-1 surface observed through per-row Gaussian or Laplace errors.

    Each row's law is drawn independently (probability 1/2 each); the
    variance of row j is (4/15)(1 + j/n) whatever its family.
    """
    rng = np.random.default_rng(derived_seed(seed, "estimate"))
    x = rng.uniform(-2.0, 2.0, n)
    t = rng.uniform(-2.0, 2.0, n)
    laplace = rng.random(n) < 0.5
    variance = VARIANCE_SCALE * (1.0 + np.arange(1, n + 1) / n)
    u = np.where(
        laplace,
        rng.laplace(0.0, np.sqrt(variance / 2.0)),
        rng.normal(0.0, np.sqrt(variance)),
    )
    y = x * x * np.exp(-0.5 * t * t) + rng.normal(0.0, RESPONSE_NOISE_SD, n)
    families = np.where(laplace, "laplace", "gaussian")
    return {"x": x, "w": t + u, "y": y, "family": families, "variance": variance}


def write_estimate_inputs(out_dir: Path, n: int, seed: int) -> tuple[Path, Path]:
    """Write data.csv (x, w, y) and errors.csv (family, variance) into out_dir."""
    sample = estimate_sample(n, seed)
    data_path = out_dir / "data.csv"
    errors_path = out_dir / "errors.csv"
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("x", "w", "y"))
        for row in zip(sample["x"], sample["w"], sample["y"]):
            writer.writerow([format(float(v), ".17g") for v in row])
    with open(errors_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("family", "variance"))
        for fam, var in zip(sample["family"], sample["variance"]):
            writer.writerow([str(fam), format(float(var), ".17g")])
    return data_path, errors_path


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for path in WORKLOADS[args.workload].write_inputs(args.out, args.seed):
        print(path)


if __name__ == "__main__":
    main()
