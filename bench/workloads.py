"""The benchmark's workloads: inputs, CLI arguments, set-up, checks and reference runs.

Each workload is a closed loop of one CLI command from a single benchmark
process: the next call starts when the previous one returns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from inputs import derived_seed, estimate_sample, sim_config, write_estimate_inputs, write_sim_config

# Protocol constants the CLI fills in for omitted config fields (desk, full).
_BW_COUNT = {False: 5, True: 10}
_EVAL_COUNT = {False: 20, True: 50}
_QUAD_NODES = {False: 64, True: 128}


@dataclass(frozen=True)
class SimWorkload:
    """``hetdeconv simulate`` on a generated config, ``reps`` replications a call."""

    name: str
    why: str
    model: str
    family: str
    n: int
    reps: int
    full_scale: bool
    parallel: bool           # True: --workers nproc; False: --workers 1
    reference_seed: int
    reference_reps: int
    unit: str = "reps"

    @property
    def estimators(self):
        return ("deconv", "naive", "partial_linear") if self.model == "model2" else ("deconv", "naive")

    @property
    def grid(self):
        return np.linspace(0.02, 0.2, _BW_COUNT[self.full_scale])

    @property
    def quad_nodes(self):
        return _QUAD_NODES[self.full_scale]

    @property
    def units_per_call(self):
        """Replications attempted by one call."""
        return self.reps

    @property
    def reference_units(self):
        return self.reference_reps

    @property
    def points_per_call(self):
        """Grid-point estimates one call scores: reps x pairs searched x eval grid."""
        pairs = len(self.grid) ** 2
        per_rep = 2 * pairs + (len(self.grid) if "partial_linear" in self.estimators else 0)
        return self.reps * per_rep * _EVAL_COUNT[self.full_scale] ** 2

    def write_inputs(self, out_dir: Path, seed: int, reps=None, config_seed=None):
        if config_seed is None:
            config_seed = derived_seed(seed, self.name)
        config = sim_config(self.model, self.family, self.n, reps or self.reps, config_seed)
        return [write_sim_config(out_dir / "config.json", config)]

    def cli_args(self, inputs, out_dir: Path, workers: int):
        args = ["simulate", "--config", str(inputs[0]), "--out", str(out_dir),
                "--workers", str(workers)]
        return args + (["--full-scale"] if self.full_scale else [])

    def output(self, out_dir: Path) -> bytes:
        return (out_dir / "ase_report.csv").read_bytes()

    def set_up(self, hd, inputs):
        """Config parse, ensemble and quadrature: the per-run set-up of simulate."""
        raw = json.loads(Path(inputs[0]).read_text())
        config = hd.simulation.SimulationConfig.from_dict(raw, full_scale=self.full_scale)
        hd.simulation.build_ensemble(config.error_family, config.n)
        hd.kernels.QuadratureGrid.gauss_legendre(config.quad_nodes)

    def check(self, data: bytes, stderr: str, inputs, seed: int):
        return checks.check_simulate(data, stderr, self.estimators, self.reps, self.grid)

    def failed_units(self, data: bytes, stderr: str) -> int:
        """Failed replications, summed over estimators."""
        rows = checks.ase_rows(data)
        return sum(max(0, self.reps - r["rep_count"]) for r in rows.values())

    def ill_conditioned_b(self):
        return checks.ill_conditioned_bs(self.family, self.n, self.grid, self.quad_nodes)

    def reference_inputs(self, out_dir: Path):
        return self.write_inputs(out_dir, 0, reps=self.reference_reps,
                                 config_seed=self.reference_seed)

    def reference_record(self, data: bytes) -> dict:
        return {"seed": self.reference_seed, "reps": self.reference_reps,
                "rows": checks.ase_rows(data)}

    def compare_reference(self, data: bytes, reference: dict):
        problems = checks.check_simulate(data, "", self.estimators, self.reference_reps, self.grid)
        more, drift = checks.compare_simulate(checks.ase_rows(data), reference,
                                              self.ill_conditioned_b())
        return problems + more, drift


@dataclass(frozen=True)
class EstimateWorkload:
    """``hetdeconv estimate`` on generated CSVs, one fit per call."""

    name: str
    why: str
    n: int
    h: float
    b: float
    grid_count: int
    quad_nodes: int
    reference_seed: int
    reference_every: int
    parallel: bool = False
    unit: str = "calls"

    units_per_call = 1
    reference_units = 1

    @property
    def points_per_call(self):
        return self.grid_count ** 2

    @property
    def axis(self):
        return np.linspace(-2.0, 2.0, self.grid_count)

    def write_inputs(self, out_dir: Path, seed: int):
        return list(write_estimate_inputs(out_dir, self.n, seed))

    def cli_args(self, inputs, out_dir: Path, workers: int):
        spec = f"-2:2:{self.grid_count}"
        return ["estimate", "--data", str(inputs[0]), "--errors", str(inputs[1]),
                "--h", repr(self.h), "--b", repr(self.b), "--x-grid", spec, "--t-grid", spec,
                "--quad-nodes", str(self.quad_nodes), "--out", str(out_dir)]

    def output(self, out_dir: Path) -> bytes:
        return (out_dir / "predictions.csv").read_bytes()

    def set_up(self, hd, inputs):
        """Error-law table to ensemble, and quadrature: the per-run set-up of estimate."""
        em = hd.error_models
        with open(inputs[1], newline="") as fh:
            models = tuple(em.ErrorModel(em.ErrorFamily(r["family"]), float(r["variance"]))
                           for r in csv.DictReader(fh))
        em.ErrorEnsemble(models)
        hd.kernels.QuadratureGrid.gauss_legendre(self.quad_nodes)

    def check(self, data: bytes, stderr: str, inputs, seed: int):
        sample = estimate_sample(self.n, seed)
        return checks.check_estimate(data, sample, self.h, self.b, self.quad_nodes,
                                     self.axis, self.axis, derived_seed(seed, "oracle"))

    def failed_units(self, data: bytes, stderr: str) -> int:
        return 0

    def reference_inputs(self, out_dir: Path):
        return self.write_inputs(out_dir, self.reference_seed)

    def reference_record(self, data: bytes) -> dict:
        return {"seed": self.reference_seed, **checks.estimate_digest(data, self.reference_every)}

    def compare_reference(self, data: bytes, reference: dict):
        return checks.compare_estimate(data, reference), []


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim-full-m2-laplace-n500",
            why=("simulate --full-scale, model2 laplace n=500, 1 worker; stresses kernels "
                 "(deconv_kernel_grid), error_models CF tabulation and all three estimators; "
                 "cli does almost nothing"),
            model="model2", family="laplace", n=500, reps=2, full_scale=True,
            parallel=False, reference_seed=20250808, reference_reps=2,
        ),
        SimWorkload(
            name="sim-desk-m1-gauss-n100",
            why=("default desk simulate, model1 gaussian n=100, workers=nproc; many tiny calls "
                 "so per-call overhead and pool dispatch dominate; big-matrix kernel work "
                 "barely shows"),
            model="model1", family="normal", n=100, reps=20, full_scale=False,
            parallel=True, reference_seed=20250808, reference_reps=20,
        ),
        EstimateWorkload(
            name="estimate-mixed-n5000",
            why=("estimate, n=5000 mixed gaussian/laplace rows, 200x200 grid, h=b=0.3; one big "
                 "kernels fit plus real cli CSV work; bypasses simulation and the b-sweep"),
            n=5000, h=0.3, b=0.3, grid_count=200, quad_nodes=128,
            reference_seed=20250808, reference_every=199,
        ),
    )
}
