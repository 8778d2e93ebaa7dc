"""Monte Carlo study: data generation, ASE scoring, oracle bandwidth search.

Reproduces the two-model simulation protocol: uniform covariates on [-2, 2],
normal response noise, per-observation error variances growing with the
observation index, oracle bandwidth selection minimizing the average squared
error against the known truth, and replication-level aggregation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .error_models import ErrorEnsemble, ErrorFamily
from .estimators import Bandwidths, KernelCache, Sample, linear_slope
from .exceptions import AllPointsExcluded, ConfigError, DimensionMismatch, EnsembleInvalid
from .kernels import QuadratureGrid

_MASK64 = (1 << 64) - 1

# 0.2 * Var(Uniform[-2, 2]) = 0.2 * 16/12; the common scale of the
# per-observation error variances sigma^2 * (1 + j/n).
ERROR_VARIANCE_SCALE = 0.2 * (16.0 / 12.0)

RESPONSE_NOISE_SD = 0.25
COVARIATE_RANGE = (-2.0, 2.0)
MODEL2_SLOPE = 3.0

DECONV = "deconv"
NAIVE = "naive"
PARTIAL_LINEAR = "partial_linear"


class Model(str, Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"


def estimators_for(model: Model) -> tuple[str, ...]:
    if Model(model) is Model.MODEL2:
        return (DECONV, NAIVE, PARTIAL_LINEAR)
    return (DECONV, NAIVE)


def true_regression(model: Model, x, t):
    """Exact regression surface of the chosen simulation model."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if Model(model) is Model.MODEL1:
        return x * x * np.exp(-0.5 * t * t)
    return x * MODEL2_SLOPE + np.cos(t)


def build_ensemble(family: ErrorFamily, n: int) -> ErrorEnsemble:
    """Heteroscedastic ensemble with variances sigma^2 * (1 + j/n), j = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    family = ErrorFamily(family)
    variances = ERROR_VARIANCE_SCALE * (1.0 + np.arange(1, n + 1) / n)
    return ErrorEnsemble.from_arrays([family] * n, variances)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replication_rng(seed: int, rep_index: int) -> np.random.Generator:
    """Substream generator for one replication; order-independent across reps."""
    sub = _splitmix64((int(seed) & _MASK64) ^ _splitmix64(int(rep_index)))
    return np.random.default_rng(sub)


@dataclass(frozen=True)
class GeneratedData:
    """One simulated dataset: the observed sample plus the latent covariate."""

    sample: Sample
    latent: np.ndarray
    model: Model

    def truth(self, x, t):
        return true_regression(self.model, x, t)


def generate(model: Model, n: int, ensemble: ErrorEnsemble, rng: np.random.Generator) -> GeneratedData:
    """Draw one dataset: x, t uniform on [-2, 2], normal response noise, w = t + u.

    Draw order is fixed (x, t, noise, errors) so a seeded generator
    reproduces the dataset bit for bit.
    """
    if ensemble.n != n:
        raise ValueError(f"ensemble size {ensemble.n} != n {n}")
    lo, hi = COVARIATE_RANGE
    x = rng.uniform(lo, hi, n)
    t = rng.uniform(lo, hi, n)
    eps = rng.normal(0.0, RESPONSE_NOISE_SD, n)
    u = ensemble.draw(rng)
    y = true_regression(model, x, t) + eps
    sample = Sample(x=x, w=t + u, y=y, ensemble=ensemble)
    return GeneratedData(sample=sample, latent=t, model=Model(model))


def ase(values, flags, truth) -> tuple[float, int]:
    """Average squared error of ``values`` against ``truth`` over unflagged points.

    Returns (ase, excluded_count); raises AllPointsExcluded if every point
    was ridge-floored.
    """
    ok = ~np.asarray(flags, dtype=bool)
    excluded = int(ok.size - ok.sum())
    if not ok.any():
        raise AllPointsExcluded(f"all {ok.size} grid points were ridge-floored")
    diff = values[ok] - truth[ok]
    with np.errstate(over="ignore"):
        value = float(np.mean(diff * diff))
    return value, excluded


def _evaluator(cache: KernelCache, estimator: str):
    """(h, b) -> (values, flags, density) of a registry estimator on the cache's grid."""
    if estimator == DECONV:
        return cache.deconv
    if estimator == NAIVE:
        return cache.naive
    if estimator == PARTIAL_LINEAR:
        slope = linear_slope(cache.sample)
        return lambda h, b: cache.partial_linear(b, slope)
    raise ValueError(f"unknown estimator {estimator!r}")


@dataclass(frozen=True)
class SearchResult:
    """Scores for every bandwidth candidate plus the oracle optimum."""

    estimator: str
    pairs: tuple
    ase_values: np.ndarray
    excluded: np.ndarray
    statuses: tuple
    best_index: int

    @property
    def best_pair(self):
        return self.pairs[self.best_index]

    @property
    def best_ase(self) -> float:
        return float(self.ase_values[self.best_index])

    @property
    def best_excluded(self) -> int:
        return int(self.excluded[self.best_index])


def _select_best(pairs, ase_values) -> int:
    """Argmin with deterministic tie-break: smallest h, then b, then input order."""
    best = None
    key_best = None
    for i, (h, b) in enumerate(pairs):
        a = ase_values[i]
        if not np.isfinite(a):
            continue
        key = (a, b, i) if h is None else (a, h, b, i)
        if key_best is None or key < key_best:
            key_best, best = key, i
    if best is None:
        raise EnsembleInvalid("no bandwidth candidate produced a finite ASE")
    return best


def bandwidth_search(data: GeneratedData, bw_pairs, cache: KernelCache,
                     estimator: str = DECONV) -> SearchResult:
    """Score every (h, b) candidate on the cache's grid; return the full matrix and the argmin.

    ``cache`` holds the kernel matrices of ``data.sample`` on the evaluation
    grid, so searches sharing it build each matrix once.  Candidates whose
    ensemble is invalid at b, or whose grid is entirely ridge-floored, are
    marked (infinite ASE, with a status) and skipped by the argmin.  The
    partial-linear estimator searches the distinct b values only.
    """
    if cache.sample is not data.sample:
        raise DimensionMismatch("kernel cache was built for a different sample")
    evaluate = _evaluator(cache, estimator)
    if estimator == PARTIAL_LINEAR:
        pairs = tuple((None, float(b)) for b in sorted({b for _, b in bw_pairs}))
    else:
        pairs = tuple((float(h), float(b)) for h, b in bw_pairs)
    if not pairs:
        raise ValueError("bandwidth grid is empty")

    truth = true_regression(data.model, cache.x_values[:, None], cache.t_values[None, :])
    ase_values = np.full(len(pairs), np.inf)
    excluded = np.zeros(len(pairs), dtype=int)
    statuses = [None] * len(pairs)
    for i, (h, b) in enumerate(pairs):
        try:
            values, flags, _ = evaluate(h, b)
            ase_values[i], excluded[i] = ase(values, flags, truth)
        except (EnsembleInvalid, AllPointsExcluded) as exc:
            statuses[i] = str(exc)
    return SearchResult(estimator, pairs, ase_values, excluded, tuple(statuses),
                        _select_best(pairs, ase_values))


@dataclass(frozen=True)
class GridAxis:
    """Evenly spaced axis with inclusive endpoints."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "count", int(self.count))
        if self.count < 2:
            raise ConfigError(f"axis needs at least 2 points, got {self.count}")
        if not self.start < self.stop:
            raise ConfigError(f"axis start {self.start} must be < stop {self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def to_dict(self) -> dict:
        return {"start": self.start, "stop": self.stop, "count": self.count}


def _axis_from_dict(d, name) -> GridAxis:
    try:
        return GridAxis(d["start"], d["stop"], d["count"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{name}: expected {{start, stop, count}}, got {d!r}") from exc


_DESK = {"reps": 20, "bw_count": 5, "eval_count": 20, "quad_nodes": 64}
_FULL = {"reps": 100, "bw_count": 10, "eval_count": 50, "quad_nodes": 128}

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a simulation run depends on; round-trips through JSON."""

    model: Model
    error_family: ErrorFamily
    n: int
    reps: int
    bw_pairs: tuple
    eval_x: GridAxis
    eval_t: GridAxis
    quad_nodes: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "error_family", ErrorFamily(self.error_family))
        if self.error_family is ErrorFamily.DEGENERATE:
            raise ConfigError("simulation error_family must be gaussian or laplace")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        pairs = tuple((float(h), float(b)) for h, b in self.bw_pairs)
        if not pairs:
            raise ConfigError("bandwidth grid must be nonempty")
        if not all(0 < v < np.inf for pair in pairs for v in pair):
            raise ConfigError("bandwidth grid entries must be finite and positive")
        object.__setattr__(self, "bw_pairs", pairs)
        for name, axis in (("eval_grid.x", self.eval_x), ("eval_grid.t", self.eval_t)):
            if axis.start < -2.0 or axis.stop > 2.0:
                raise ConfigError(f"{name} must stay within [-2, 2]")
        if self.quad_nodes < 16:
            raise ConfigError(f"quad_nodes must be >= 16, got {self.quad_nodes}")
        if not 0 <= int(self.seed) < (1 << 64):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "quad_nodes", int(self.quad_nodes))
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model.value,
            "error_family": self.error_family.value,
            "n": self.n,
            "reps": self.reps,
            "bandwidth_grid": {"pairs": [[h, b] for h, b in self.bw_pairs]},
            "eval_grid": {"x": self.eval_x.to_dict(), "t": self.eval_t.to_dict()},
            "quad_nodes": self.quad_nodes,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict, full_scale: bool = False) -> "SimulationConfig":
        """Parse a config mapping; omitted fields get desk or full-scale defaults."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        defaults = _FULL if full_scale else _DESK
        version = raw.get("schema_version", SCHEMA_VERSION)
        if int(version) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        unknown = set(raw) - {
            "schema_version", "model", "error_family", "n", "reps",
            "bandwidth_grid", "eval_grid", "quad_nodes", "seed",
        }
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for required in ("model", "error_family", "n"):
            if required not in raw:
                raise ConfigError(f"missing required config field {required!r}")

        family = str(raw["error_family"]).lower()
        if family == "normal":
            family = "gaussian"
        try:
            family = ErrorFamily(family)
        except ValueError as exc:
            raise ConfigError(f"error_family must be gaussian/normal or laplace, "
                              f"got {raw['error_family']!r}") from exc
        try:
            model = Model(str(raw["model"]).lower())
        except ValueError as exc:
            raise ConfigError(f"model must be model1 or model2, got {raw['model']!r}") from exc

        bw = raw.get("bandwidth_grid")
        if bw is None:
            count = defaults["bw_count"]
            hs = np.linspace(0.02, 0.2, count)
            pairs = [(h, b) for h in hs for b in hs]
        elif "pairs" in bw:
            try:
                pairs = [(float(h), float(b)) for h, b in bw["pairs"]]
            except (TypeError, ValueError) as exc:
                raise ConfigError("bandwidth_grid.pairs must be [[h, b], ...]") from exc
        elif "h" in bw and "b" in bw:
            h_axis = _axis_from_dict(bw["h"], "bandwidth_grid.h")
            b_axis = _axis_from_dict(bw["b"], "bandwidth_grid.b")
            pairs = [(h, b) for h in h_axis.values() for b in b_axis.values()]
        else:
            raise ConfigError("bandwidth_grid needs either 'pairs' or 'h' and 'b' axes")

        grid = raw.get("eval_grid")
        if grid is None:
            count = defaults["eval_count"]
            eval_x = GridAxis(-2.0, 2.0, count)
            eval_t = GridAxis(-2.0, 2.0, count)
        else:
            eval_x = _axis_from_dict(grid.get("x"), "eval_grid.x")
            eval_t = _axis_from_dict(grid.get("t"), "eval_grid.t")

        try:
            return cls(
                model=model,
                error_family=family,
                n=int(raw["n"]),
                reps=int(raw.get("reps", defaults["reps"])),
                bw_pairs=tuple(pairs),
                eval_x=eval_x,
                eval_t=eval_t,
                quad_nodes=int(raw.get("quad_nodes", defaults["quad_nodes"])),
                seed=int(raw.get("seed", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def b_values(self) -> tuple:
        return tuple(sorted({b for _, b in self.bw_pairs}))


@dataclass(frozen=True)
class RepOutcome:
    """Oracle-optimal result of one replication for one estimator."""

    rep: int
    h: float | None
    b: float
    ase: float
    excluded: int


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    pairs: tuple
    mean_ase_by_pair: np.ndarray
    rep_optima: tuple
    failures: tuple

    @property
    def rep_count(self) -> int:
        return len(self.rep_optima)

    @property
    def grand_mean(self) -> float:
        if not self.rep_optima:
            return float("nan")
        return float(np.mean([r.ase for r in self.rep_optima]))

    @property
    def excluded_total(self) -> int:
        return int(sum(r.excluded for r in self.rep_optima))

    @property
    def best_pair(self):
        """Pair minimizing the replication-averaged ASE matrix (tie: smallest h, then b)."""
        return self.pairs[_select_best(self.pairs, self.mean_ase_by_pair)]


@dataclass(frozen=True)
class AseReport:
    config: SimulationConfig
    estimators: dict

    def summary_rows(self) -> list:
        """One row per estimator for the report CSV."""
        rows = []
        for name in estimators_for(self.config.model):
            s = self.estimators[name]
            h, b = s.best_pair
            rows.append({
                "model": self.config.model.value,
                "family": self.config.error_family.value,
                "n": self.config.n,
                "estimator": name,
                "h": h,
                "b": b,
                "mean_ase": s.grand_mean,
                "rep_count": s.rep_count,
                "excluded_points": s.excluded_total,
            })
        return rows


def _replicate(config: SimulationConfig, rep_index: int) -> dict:
    """Run one replication; returns per-estimator outcomes keyed by name."""
    rng = replication_rng(config.seed, rep_index)
    ensemble = build_ensemble(config.error_family, config.n)
    data = generate(config.model, config.n, ensemble, rng)
    quad = QuadratureGrid.gauss_legendre(config.quad_nodes)
    cache = KernelCache(data.sample, config.eval_x.values(), config.eval_t.values(), quad)
    out = {}
    for name in estimators_for(config.model):
        try:
            res = bandwidth_search(data, config.bw_pairs, cache, estimator=name)
            h, b = res.best_pair
            out[name] = {
                "optimum": RepOutcome(rep_index, h, b, res.best_ase, res.best_excluded),
                "ase_values": res.ase_values,
                "pairs": res.pairs,
            }
        except Exception as exc:  # recorded, never aborts the batch
            out[name] = {"failure": f"rep {rep_index}: {exc}"}
    return out


def run_replications(config: SimulationConfig, workers: int = 1) -> AseReport:
    """Run the full replication batch and aggregate an ASE report.

    Replications use independent substreams of the base seed, so the report
    is identical for any worker count or completion order.
    """
    reps = range(1, config.reps + 1)
    workers = max(1, min(int(workers), config.reps))
    if workers == 1:
        results = {i: _replicate(config, i) for i in reps}
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(reps, pool.map(_replicate, [config] * config.reps, reps)))

    summaries = {}
    for name in estimators_for(config.model):
        optima, failures, matrices = [], [], []
        pairs = None
        for i in sorted(results):
            entry = results[i][name]
            if "failure" in entry:
                failures.append((i, entry["failure"]))
                continue
            optima.append(entry["optimum"])
            matrices.append(entry["ase_values"])
            pairs = entry["pairs"]
        if pairs is None:
            # every replication failed for this estimator
            first_b = config.bw_pairs[0][1]
            pairs = ((None, first_b),) if name == PARTIAL_LINEAR else tuple(config.bw_pairs)
            mean_matrix = np.full(len(pairs), np.inf)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mean_matrix = np.mean(np.vstack(matrices), axis=0)
        summaries[name] = EstimatorSummary(
            name=name,
            pairs=pairs,
            mean_ase_by_pair=mean_matrix,
            rep_optima=tuple(optima),
            failures=tuple(failures),
        )
    return AseReport(config=config, estimators=summaries)


@dataclass(frozen=True)
class CrossSection:
    """Profile of an estimator along one axis with the other coordinate fixed."""

    axis: str
    fixed_value: float
    coords: np.ndarray
    estimates: np.ndarray
    truth: np.ndarray
    flags: np.ndarray


CROSS_SECTION_POINTS = 200


def cross_section(
    data: GeneratedData,
    estimator,
    axis: str,
    value: float,
    bandwidths: Bandwidths,
    quad: QuadratureGrid,
) -> CrossSection:
    """Evaluate one estimator along a fixed-x or fixed-t line over [-2, 2].

    ``estimator`` is one of the registry names or a callable
    (x_values, t_values) -> (values, flags[, density]).
    """
    if axis not in ("fix_x", "fix_t"):
        raise ValueError(f"axis must be 'fix_x' or 'fix_t', got {axis!r}")
    lo, hi = COVARIATE_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"fixed value {value} outside [{lo}, {hi}]")
    coords = np.linspace(lo, hi, CROSS_SECTION_POINTS)
    fixed = np.asarray([value])
    xs, ts = (fixed, coords) if axis == "fix_x" else (coords, fixed)

    if callable(estimator):
        values, flags = estimator(xs, ts)[:2]
    else:
        cache = KernelCache(data.sample, xs, ts, quad)
        values, flags, _ = _evaluator(cache, estimator)(bandwidths.h, bandwidths.b)
    if axis == "fix_x":
        est, flg = values[0, :], flags[0, :]
        truth = true_regression(data.model, value, coords)
    else:
        est, flg = values[:, 0], flags[:, 0]
        truth = true_regression(data.model, coords, value)
    return CrossSection(
        axis=axis,
        fixed_value=float(value),
        coords=coords,
        estimates=np.asarray(est, dtype=float),
        truth=np.asarray(truth, dtype=float),
        flags=np.asarray(flg, dtype=bool),
    )
