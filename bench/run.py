"""Benchmark runner for hetdeconv: timed closed-loop CLI workloads and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all   # every workload in turn

Run from the repository root.  The program is imported from ``src/`` and
driven in-process through ``hetdeconv.cli.main``, one call after another
(closed loop).  Inputs are generated from ``--seed`` by ``bench/inputs.py``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs every call serially (``--workers 1``), alternating untraced and traced
calls, and reports the per-layer metrics computed from the spans; the
difference between the two kinds of call is the tracing overhead.  Every
call's output is checked (see ``bench/checks.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Human-readable lines, the machine record and any recorded drift come before
it; the full record (and, when traced, the spans) is written to
``.bench_out/``.

``python3 bench/run.py --write-reference`` regenerates ``bench/reference.json``
from the current program; do that only when its output is meant to change.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools are pinned to one thread before NumPy is imported, so
# that workers x threads <= nproc on the parallel workload.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("HETDECONV_SEED", None)  # would override the generated config seed

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

EXIT_NO_PROGRAM = 2
SETUP_REPEATS = 9
MIN_CALLS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hetdeconv.cli; "
    "print(time.perf_counter() - t)"
)

# Per-layer metric -> span whose self time it reports (mean per traced call).
SPAN_METRICS = {
    "error_models.cf_matrix_s": "error_models.cf_matrix",
    "error_models.deconv_weight_matrix_s": "error_models.deconv_weight_matrix",
    "error_models.validate_s": "error_models.validate",
    "kernels.deconv_kernel_grid_s": "kernels.deconv_kernel_grid",
    "kernels.gaussian_kernel_s": "kernels.gaussian_kernel",
    "kernels.build_deconv_weights_s": "kernels.build_deconv_weights",
    "estimators.naive_regression_grid_s": "estimators.naive_regression_grid",
    "estimators.partial_linear_grid_s": "estimators.partial_linear_grid",
    "estimators.predict_grid_s": "estimators.predict_grid",
    "estimators.density_grid_s": "estimators.density_grid",
    "estimators.floored_ratio_s": "estimators.floored_ratio",
    "simulation.generate_s": "simulation.generate",
    "simulation.bandwidth_search_s.deconv": "simulation.bandwidth_search.deconv",
    "simulation.bandwidth_search_s.naive": "simulation.bandwidth_search.naive",
    "simulation.bandwidth_search_s.partial_linear": "simulation.bandwidth_search.partial_linear",
    "simulation.ase_s": "simulation.ase",
    "simulation.aggregate_s": "simulation.run_replications",
    "cli.self_s": "cli",
}
# Per-layer counts (mean per traced call), as the tracer names them, and units.
COUNT_METRICS = {
    "error_models.cf_evals": "count",
    "kernels.deconv_kernel_grid_calls": "count",
    "kernels.deconv_kernel_grid_flop": "flop",
    "kernels.deconv_kernel_grid_bytes": "B",
    "kernels.gaussian_kernel_calls": "count",
    "estimators.flagged_points": "count",
    "simulation.pairs_scored": "count",
}


def load_program():
    """Import the package from src/, or exit nonzero when it is not there."""
    if not (SRC / "hetdeconv" / "cli.py").is_file():
        print(f"error: no hetdeconv package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    from hetdeconv import cli, error_models, estimators, kernels, simulation

    return SimpleNamespace(cli=cli, error_models=error_models, estimators=estimators,
                           kernels=kernels, simulation=simulation)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (ru_maxrss is KiB)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def invoke(hd, args):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            hd.cli.main.main(args=args, prog_name="hetdeconv", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


# -- set-up ------------------------------------------------------------------

def import_seconds() -> float:
    """Import time of hetdeconv.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def pool_start_seconds(workers: int) -> float:
    """Start a process pool of ``workers``, run one no-op on each, shut it down.

    Uses the default start method on purpose: it is what ``run_replications``
    pays for on every parallel call.
    """
    start = perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(os.getpid) for _ in range(workers)]:
            future.result()
    return perf_counter() - start


def setup_sample(workload, hd, inputs, workers):
    """One set-up: import, in-process config/ensemble/quadrature, pool start."""
    import_s = import_seconds()
    start = perf_counter()
    workload.set_up(hd, inputs)
    config_s = perf_counter() - start
    pool_s = pool_start_seconds(workers) if workers > 1 else 0.0
    return {"import_s": import_s, "config_s": config_s, "pool_s": pool_s}


# -- the run -----------------------------------------------------------------

class Run:
    """One benchmark run of one workload: calls, their checks and their tallies."""

    def __init__(self, hd, workload, seed, work_dir, workers):
        self.hd, self.workload, self.seed, self.workers = hd, workload, seed, workers
        self.inputs = workload.write_inputs(self._mkdir(work_dir / "inputs"), seed)
        self.out_dir = self._mkdir(work_dir / "out")
        self.args = workload.cli_args(self.inputs, self.out_dir, workers)
        self.first = None
        self.first_wrong = False   # then every call that reproduces it failed too
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.samples = {}          # per-call measurements, kept in the record

    @staticmethod
    def _mkdir(path):
        path.mkdir(parents=True, exist_ok=True)
        return path

    def warm_up(self):
        """Untimed first call; its output is checked and becomes the run's reference."""
        code, _, stderr = invoke(self.hd, self.args)
        if code != 0:
            self.problems.append(f"warm-up call exited {code}: {stderr.strip()[-300:]}")
            return
        self.first = self.workload.output(self.out_dir)
        found = self.workload.check(self.first, stderr, self.inputs, self.seed)
        self.first_wrong = bool(found)
        self.problems += found

    def call(self, tracer=None):
        """One timed call; returns (wall seconds, CPU seconds)."""
        cpu0 = cpu_seconds()
        start = perf_counter()
        if tracer is None:
            code, _, stderr = invoke(self.hd, self.args)
        else:
            with tracer.call():
                code, _, stderr = invoke(self.hd, self.args)
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu0
        self._tally(code, stderr)
        return wall, cpu

    def _tally(self, code, stderr):
        units = self.workload.units_per_call
        self.attempted += units
        if code != 0:
            self.failed += units
            self.problems.append(f"call exited {code}: {stderr.strip()[-300:]}")
            return
        data = self.workload.output(self.out_dir)
        if data != self.first or self.first_wrong:
            self.failed += units
            if data != self.first:
                self.problems.append("output differs from the run's checked first output")
        else:
            self.failed += self.workload.failed_units(data, stderr)

    def reference_check(self, reference):
        """Pinned input through the CLI, compared with the stored reference.

        Returns the drift recorded inside the ill-conditioned regime.
        """
        ref_dir = self._mkdir(self.out_dir.parent / "reference")
        inputs = self.workload.reference_inputs(ref_dir)
        args = self.workload.cli_args(inputs, ref_dir, self.workers)
        units = self.workload.reference_units
        self.attempted += units
        code, _, stderr = invoke(self.hd, args)
        if code != 0:
            found, drift = [f"reference call exited {code}: {stderr.strip()[-300:]}"], []
        else:
            found, drift = self.workload.compare_reference(self.workload.output(ref_dir), reference)
        if found:
            self.failed += units
            self.problems += found
        return drift

    def rows_written(self) -> int:
        return self.first.count(b"\n") - 1 if self.first else 0


def closed_loop(seconds, step, between=None):
    """Call ``step`` back to back until ``seconds`` have passed (at least MIN_CALLS times).

    ``between(fraction of seconds elapsed)`` runs after each step, untimed.
    """
    results = []
    start = perf_counter()
    while len(results) < MIN_CALLS or perf_counter() - start < seconds:
        results.append(step())
        if between is not None:
            between((perf_counter() - start) / seconds)
    return results


def timed_metrics(run, setup, setups, seconds):
    """Closed loop with tracing off; set-ups are spread over the run between calls.

    Machine speed on a shared host drifts over tens of seconds, so set-up
    samples taken back to back at the start would all see one moment.
    """
    def between(fraction):
        if len(setups) < SETUP_REPEATS and fraction >= len(setups) / SETUP_REPEATS:
            setups.append(setup())

    calls = closed_loop(seconds, run.call, between)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    walls = [w for w, _ in calls]
    cpus = [c for _, c in calls]
    wall = statistics.median(walls)
    wl = run.workload
    metrics = {
        "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (wl.points_per_call / wall, "1/s"),
        "cpu_s_per_call": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "calls": len(calls),
        f"{wl.unit}_per_s": wl.units_per_call / wall,
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        f"cpu_s_per_{wl.unit.rstrip('s')}": statistics.median(cpus) / wl.units_per_call,
        "setup_parts": {k: statistics.median(s[k] for s in setups) for k in setups[0]},
    }
    run.samples = {"wall_s": walls, "cpu_s": cpus, "setup": setups}
    return metrics, extra


def traced_metrics(run, tracer, seconds):
    untraced, traced = [], []

    def pair():
        untraced.append(run.call()[0])
        with tracer.installed():
            traced.append(run.call(tracer)[0])

    closed_loop(seconds, pair)
    run.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    n = len(traced)
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics = {name: (selfs.get(span, 0.0) / n, "s") for name, span in SPAN_METRICS.items()}
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (counts.get(name, 0.0) / n, unit)
    ratio_points = counts.get("estimators.ratio_points", 0.0)
    attempted_pairs = counts.get("simulation.pairs_attempted", 0.0)
    metrics["estimators.flagged_ratio"] = (
        counts.get("estimators.flagged_points", 0.0) / ratio_points if ratio_points else 0.0, "ratio")
    metrics["simulation.pair_yield"] = (
        counts.get("simulation.pairs_scored", 0.0) / attempted_pairs if attempted_pairs else 0.0,
        "ratio")
    metrics["cli.rows_written"] = (float(run.rows_written()), "count")
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}_s"] = (total / n, "s")
    wall, bare = statistics.median(traced), statistics.median(untraced)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (bare, "s")
    metrics["trace.overhead_s"] = (wall - bare, "s")
    metrics["trace.coverage"] = (sum(selfs.values()) / sum(traced), "ratio")
    metrics["trace.calls"] = (float(n), "count")
    extra = {"missing_targets": tracer.missing, "spans": len(tracer.spans)}
    return metrics, extra


# -- machine record ----------------------------------------------------------

def blas_info():
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except TypeError:  # NumPy without mode="dicts": keep the printed text
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        return {"show_config": text.getvalue()}


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hetdeconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


# -- entry points ------------------------------------------------------------

def write_reference(path: Path):
    hd = load_program()
    record = {}
    for name, wl in WORKLOADS.items():
        ref_dir = OUT / "write-reference" / name
        ref_dir.mkdir(parents=True, exist_ok=True)
        inputs = wl.reference_inputs(ref_dir)
        workers = nproc() if wl.parallel else 1
        code, _, stderr = invoke(hd, wl.cli_args(inputs, ref_dir, workers))
        if code != 0:
            sys.exit(f"reference run for {name} exited {code}: {stderr}")
        record[name] = wl.reference_record(wl.output(ref_dir))
    shutil.rmtree(OUT / "write-reference")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def run_all(args) -> int:
    """Every workload in its own process, one after another; the worst exit code."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, check=False)
        worst = max(worst, done.returncode)
    return worst


def main():
    parser = argparse.ArgumentParser(description="hetdeconv benchmark runner")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference(checks.REFERENCE_PATH)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        sys.exit(run_all(args))

    hd = load_program()
    wl = WORKLOADS[args.workload]
    work_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    workers = nproc() if wl.parallel and not args.trace else 1
    run = Run(hd, wl, args.seed, work_dir, workers)

    setup = functools.partial(setup_sample, wl, hd, run.inputs, workers)
    setups = [] if args.trace else [setup()]
    run.warm_up()
    if run.first is None:
        print("\n".join(run.problems), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)

    tracer = None
    if args.trace:
        tracer = Tracer(vars(hd))
        metrics, extra = traced_metrics(run, tracer, args.seconds)
    else:
        metrics, extra = timed_metrics(run, setup, setups, args.seconds)

    drift = run.reference_check(checks.load_reference()[wl.name])
    problems = run.problems
    correct = not problems and run.failed == 0

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": workers, "machine": machine_record(),
        "extra": extra, "problems": problems, "drift": drift,
        "attempted": run.attempted, "failed": run.failed, "samples": run.samples,
        "fail_ratio": run.failed / max(1, run.attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (work_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(work_dir / "spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call", "rep"],
                       "spans": tracer.spans}, fh)

    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:.6g} {unit}")
    print(f"{'fail_ratio':46s} {record['fail_ratio']:.6g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    for key, value in extra.items():
        print(f"{key:46s} {value}")
    for line in drift:
        print(f"drift (ill-conditioned regime, recorded): {line}")
    for line in problems:
        print(f"problem: {line}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
