"""Monte Carlo study: data generation, ASE scoring, oracle bandwidth search.

Reproduces the two-model simulation protocol: uniform covariates on [-2, 2],
normal response noise, per-observation error variances growing with the
observation index, oracle bandwidth selection minimizing the average squared
error against the known truth, and replication-level aggregation.
"""

from __future__ import annotations

import math
import numbers
import signal
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .error_models import ErrorEnsemble, ErrorFamily
from .estimators import Bandwidths, KernelCache, Sample, kernel_weights, linear_slope
from .exceptions import ConfigError, DegenerateDesign, DimensionMismatch, EnsembleInvalid
from .kernels import GROUP_BUDGET, MAX_QUAD_NODES, QuadratureGrid, deconv_right

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
    for i, ((h, b), a) in enumerate(zip(pairs, np.asarray(ase_values, dtype=float).tolist())):
        if not math.isfinite(a):
            continue
        key = (a, b, i) if h is None else (a, h, b, i)
        if key_best is None or key < key_best:
            key_best, best = key, i
    if best is None:
        raise EnsembleInvalid("no bandwidth candidate produced a finite ASE")
    return best


def _candidates(name: str, pairs: tuple) -> tuple:
    """``pairs``, or (None, b) per sorted distinct b for partial-linear, which has no h."""
    if name == PARTIAL_LINEAR:
        return tuple((None, b) for b in sorted({b for _, b in pairs}))
    return pairs


class _Scores:
    """One estimator's ASE per candidate, exclusion counts and statuses, filled group by group.

    ``members`` maps b to the (i, h) of its candidates, h = None for partial-linear.
    """

    def __init__(self, name: str, pairs: tuple):
        self.name, self.pairs = name, _candidates(name, pairs)
        self.members = {}
        for i, (h, b) in enumerate(self.pairs):
            self.members.setdefault(b, []).append((i, h))
        self.ase_values = np.full(len(self.pairs), np.inf)
        self.excluded = np.zeros(len(self.pairs), dtype=int)
        self.statuses = [None] * len(self.pairs)

    def fail(self, b, exc: Exception):
        for i, _ in self.members[b]:
            self.statuses[i] = str(exc)

    def score(self, bs, row, grid, truth):
        """Score each candidate (i, h) of each b of ``bs`` by the slice (k, row[h]) of ``grid``.

        ``grid`` is (values, flags, density), each (B, H, X, T), with k the
        position of b in ``bs``; a slice's ASE is the mean squared error
        against ``truth`` (X, T) over its unflagged points.  The squared
        errors are formed once.  A slice without flagged points is one
        contiguous row of them, whose mean is one pairwise sum; a flagged
        slice is the mean of its unflagged squared errors in row-major
        order, taken as ``np.mean`` takes it for float64 (one
        ``np.add.reduce``, divided by the count) without its per-call
        overhead.  A slice with every point flagged gets a status instead.
        """
        values, flags, _ = grid
        sq = values - truth
        ok = ~flags
        clean = ok.all(axis=(2, 3))
        with np.errstate(over="ignore"):
            sq *= sq
            means = np.mean(sq.reshape(*clean.shape, -1), axis=2)
            for i, k, r in [(i, k, row[h]) for k, b in enumerate(bs) for i, h in self.members[b]]:
                if clean[k, r]:
                    self.ase_values[i], self.excluded[i] = means[k, r], 0
                    continue
                kept = sq[k, r][ok[k, r]]
                if kept.size:
                    self.ase_values[i] = np.add.reduce(kept) / kept.size
                    self.excluded[i] = truth.size - kept.size
                else:
                    self.statuses[i] = f"all {truth.size} grid points were ridge-floored"

    def result(self) -> SearchResult:
        return SearchResult(self.name, self.pairs, self.ase_values, self.excluded,
                            tuple(self.statuses), _select_best(self.pairs, self.ase_values))


def _b_groups(h_of: dict, cache: KernelCache) -> list:
    """The b of ``h_of`` (b -> the h paired with b, in increasing b) cut into groups.

    Each group is the longest run of consecutive b, from the first b not yet
    grouped, whose batched arrays, the (B, H, X, T) contraction and the
    (B, n, T) kernels, each fit ``GROUP_BUDGET``, where H is the number of
    distinct h paired with the group's b.  A b whose arrays alone exceed the
    budget is a group of one.  Returns (bs, hs) per group, with hs those h
    in increasing order.
    """
    x, t = cache.x_values.size, cache.t_values.size
    per_b = cache.sample.n * t
    groups, bs, hs = [], [], set()
    for b, h_b in h_of.items():
        merged = hs | set(h_b)
        if bs and (len(bs) + 1) * max(len(merged) * x * t, per_b) > GROUP_BUDGET:
            groups.append((bs, sorted(hs)))
            bs, merged = [], set(h_b)
        bs.append(b)
        hs = merged
    groups.append((bs, sorted(hs)))
    return groups


def _sweep(bw_pairs, cache: KernelCache, estimators, truth) -> dict:
    """Score every estimator on every (h, b) candidate in one pass over groups of b.

    The normal kernels kx_h of all h are stacked once in the cache.  The
    sorted b are cut into groups (``_b_groups``).  Per group, lt is built
    once, b by b, for the b at which the ensemble is valid and serves the
    deconvolution estimator over every (b, h) of the group and the
    partial-linear one over every b, one batched contraction each; then kt
    is built once for all the group's b and serves the naive estimator in
    the same way.  Neither outlives its group.  Returns name ->
    SearchResult, or the exception that left the estimator without one.
    """
    pairs = tuple((float(h), float(b)) for h, b in bw_pairs)
    if not pairs:
        raise ValueError("bandwidth grid is empty")
    h_of = {b: [] for b in sorted({b for _, b in pairs})}
    for h, b in pairs:
        h_of[b].append(h)
    scores = {name: _Scores(name, pairs) for name in estimators}
    out = {}
    if PARTIAL_LINEAR in scores:
        try:
            slope = linear_slope(cache.sample)
        except DegenerateDesign as exc:
            out[PARTIAL_LINEAR] = exc
            del scores[PARTIAL_LINEAR]
    deconv, naive, plin = (scores.get(name) for name in (DECONV, NAIVE, PARTIAL_LINEAR))
    if deconv or naive:
        cache.kx_stack(sorted({h for h, _ in pairs}))

    lt_users = [found for found in (deconv, plin) if found]
    for group, h_g in _b_groups(h_of, cache):
        row = {h: r for r, h in enumerate(h_g)}
        if lt_users:
            valid = []
            for b in group:
                try:
                    cache.deconv_weights(b)
                except EnsembleInvalid as exc:
                    for found in lt_users:
                        found.fail(b, exc)
                else:
                    valid.append(b)
            if valid:
                lt = cache.lt(valid)
                if deconv:
                    deconv.score(valid, row, cache.deconv(h_g, valid, lt), truth)
                if plin:
                    plin.score(valid, {None: 0}, cache.partial_linear(valid, slope, lt), truth)
                del lt
        if naive:
            naive.score(group, row, cache.naive(h_g, group), truth)

    for name, found in scores.items():
        try:
            out[name] = found.result()
        except EnsembleInvalid as exc:
            out[name] = exc
    return out


def bandwidth_search(data: GeneratedData, bw_pairs, cache: KernelCache,
                     estimator: str = DECONV) -> SearchResult:
    """Score every (h, b) candidate on the cache's grid; return the full matrix and the argmin.

    ``cache`` holds the kernel matrices of ``data.sample`` on the evaluation
    grid.  Candidates whose ensemble is invalid at b, or whose grid is
    entirely ridge-floored, are marked (infinite ASE, with a status) and
    skipped by the argmin.  The partial-linear estimator searches the
    distinct b values only.
    """
    if cache.sample is not data.sample:
        raise DimensionMismatch("kernel cache was built for a different sample")
    if estimator not in (DECONV, NAIVE, PARTIAL_LINEAR):
        raise ValueError(f"unknown estimator {estimator!r}")
    truth = true_regression(data.model, cache.x_values[:, None], cache.t_values[None, :])
    found = _sweep(bw_pairs, cache, (estimator,), truth)[estimator]
    if isinstance(found, Exception):
        raise found
    return found


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a string or any non-integral value raises ConfigError."""
    try:
        if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _number(value, name: str) -> float:
    """``value`` as a float; a bool, a string or any other non-number raises ConfigError."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError
        return float(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _known(raw: dict, fields, name: str):
    """Raise ConfigError naming every key of ``raw`` outside ``fields``."""
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")


@dataclass(frozen=True)
class GridAxis:
    """Evenly spaced axis with inclusive endpoints."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", _number(self.start, "start"))
        object.__setattr__(self, "stop", _number(self.stop, "stop"))
        object.__setattr__(self, "count", _integer(self.count, "count"))
        if self.count < 2:
            raise ConfigError(f"axis needs at least 2 points, got {self.count}")
        if not self.start < self.stop:
            raise ConfigError(f"axis start {self.start} must be < stop {self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def to_dict(self) -> dict:
        return {"start": self.start, "stop": self.stop, "count": self.count}


def _axis_from_dict(d, name) -> GridAxis:
    if not isinstance(d, dict) or not {"start", "stop", "count"} <= d.keys():
        raise ConfigError(f"{name}: expected {{start, stop, count}}, got {d!r}")
    _known(d, ("start", "stop", "count"), name)
    try:
        return GridAxis(**d)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


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
        for name in ("n", "reps", "quad_nodes", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "error_family", ErrorFamily(self.error_family))
        if self.error_family is ErrorFamily.DEGENERATE:
            raise ConfigError("simulation error_family must be gaussian or laplace")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        pairs = tuple((_number(h, "bandwidth_grid.pairs entry"),
                       _number(b, "bandwidth_grid.pairs entry")) for h, b in self.bw_pairs)
        if not pairs:
            raise ConfigError("bandwidth grid must be nonempty")
        try:
            for h, b in pairs:
                Bandwidths(h, b)
        except ValueError as exc:       # a BandwidthUnderflow too
            raise ConfigError(f"bandwidth_grid.pairs: {exc}") from exc
        object.__setattr__(self, "bw_pairs", pairs)
        for name, axis in (("eval_grid.x", self.eval_x), ("eval_grid.t", self.eval_t)):
            if axis.start < -2.0 or axis.stop > 2.0:
                raise ConfigError(f"{name} must stay within [-2, 2]")
        if not 16 <= self.quad_nodes <= MAX_QUAD_NODES:
            raise ConfigError(f"quad_nodes must be in [16, {MAX_QUAD_NODES}], got {self.quad_nodes}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")

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
        version = _integer(raw.get("schema_version", SCHEMA_VERSION), "schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        _known(raw, ("schema_version", "model", "error_family", "n", "reps",
                     "bandwidth_grid", "eval_grid", "quad_nodes", "seed"), "config")
        for required in ("model", "error_family", "n"):
            if required not in raw:
                raise ConfigError(f"missing required config field {required!r}")
        for grid in ("bandwidth_grid", "eval_grid"):
            if raw.get(grid) is not None and not isinstance(raw[grid], dict):
                raise ConfigError(f"{grid} must be a JSON object, got {raw[grid]!r}")

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
        if bw is not None and set(bw) not in ({"pairs"}, {"h", "b"}):
            raise ConfigError(f"bandwidth_grid takes either 'pairs' or the 'h' and 'b' axes, "
                              f"got {sorted(bw)}")
        if bw is None:
            hs = np.linspace(0.02, 0.2, defaults["bw_count"])
            pairs = [(h, b) for h in hs for b in hs]
        elif "pairs" in bw:
            try:
                pairs = [(h, b) for h, b in bw["pairs"]]
            except (TypeError, ValueError) as exc:
                raise ConfigError("bandwidth_grid.pairs must be [[h, b], ...]") from exc
        else:
            h_axis = _axis_from_dict(bw["h"], "bandwidth_grid.h")
            b_axis = _axis_from_dict(bw["b"], "bandwidth_grid.b")
            pairs = [(h, b) for h in h_axis.values() for b in b_axis.values()]

        grid = raw.get("eval_grid")
        if grid is None:
            eval_x = eval_t = GridAxis(-2.0, 2.0, defaults["eval_count"])
        else:
            _known(grid, ("x", "t"), "eval_grid")
            eval_x = _axis_from_dict(grid.get("x"), "eval_grid.x")
            eval_t = _axis_from_dict(grid.get("t"), "eval_grid.t")

        return cls(
            model=model,
            error_family=family,
            n=raw["n"],
            reps=raw.get("reps", defaults["reps"]),
            bw_pairs=tuple(pairs),
            eval_x=eval_x,
            eval_t=eval_t,
            quad_nodes=raw.get("quad_nodes", defaults["quad_nodes"]),
            seed=raw.get("seed", 0),
        )

    @property
    def b_values(self) -> tuple:
        return tuple(sorted({b for _, b in self.bw_pairs}))


@dataclass(frozen=True)
class EstimatorSummary:
    """One estimator over a run, in replication order: ``results`` holds the
    ``(rep, SearchResult)`` of each successful replication, ``failures`` the
    ``(rep, message)`` of each other one."""

    name: str
    pairs: tuple
    results: tuple
    failures: tuple

    @property
    def rep_count(self) -> int:
        return len(self.results)

    @property
    def grand_mean(self) -> float:
        if not self.results:
            return float("nan")
        return float(np.mean([res.best_ase for _, res in self.results]))

    @property
    def excluded_total(self) -> int:
        return int(sum(res.best_excluded for _, res in self.results))

    @property
    def mean_ase_by_pair(self) -> np.ndarray:
        """Each pair's ASE averaged over the replications; all inf when none succeeded."""
        if not self.results:
            return np.full(len(self.pairs), np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.mean(np.vstack([res.ase_values for _, res in self.results]), axis=0)

    @property
    def best_pair(self):
        """Pair minimizing the replication-averaged ASE matrix (tie: smallest h, then b)."""
        return self.pairs[_select_best(self.pairs, self.mean_ase_by_pair)]


@dataclass(frozen=True)
class AseReport:
    config: SimulationConfig
    estimators: dict
    workers: int = 1            # worker processes the run used
    start_method: str | None = None     # how its child processes started; None if none did

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


@dataclass(frozen=True)
class RunContext:
    """What every replication of a run shares, built once from the config alone.

    The error ensemble and quadrature grid; per distinct b, the deconvolution
    weights in the form the kernel consumes (``kernel_weights``), or the
    EnsembleInvalid they raised; per b of valid weights, the t-side factor
    ``deconv_right`` of t_values / b, as ``KernelCache(right=)`` takes it;
    the evaluation axes and the truth on their grid.  None of it depends on
    the data.
    """

    config: SimulationConfig
    ensemble: ErrorEnsemble
    quad: QuadratureGrid
    weights: dict
    right: dict
    x_values: np.ndarray
    t_values: np.ndarray
    truth: np.ndarray

    @classmethod
    def build(cls, config: SimulationConfig) -> "RunContext":
        ensemble = build_ensemble(config.error_family, config.n)
        quad = QuadratureGrid.gauss_legendre(config.quad_nodes)
        weights = kernel_weights(ensemble, config.b_values, quad)
        x_values, t_values = config.eval_x.values(), config.eval_t.values()
        right = {b: deconv_right(found, t_values / b) for b, found in weights.items()
                 if not isinstance(found, EnsembleInvalid)}
        truth = true_regression(config.model, x_values[:, None], t_values[None, :])
        return cls(config, ensemble, quad, weights, right, x_values, t_values, truth)


def _replicate(context: RunContext, rep_index: int) -> dict:
    """Run one replication: name -> SearchResult, or the message of the failure that left none."""
    config = context.config
    data = generate(config.model, config.n, context.ensemble,
                    replication_rng(config.seed, rep_index))
    cache = KernelCache(data.sample, context.x_values, context.t_values, context.quad,
                        context.weights, context.right)
    names = estimators_for(config.model)
    try:
        found = _sweep(config.bw_pairs, cache, names, context.truth)
    except Exception as exc:  # recorded, never aborts the batch
        found = dict.fromkeys(names, exc)
    return {name: str(res) if isinstance(res, Exception) else res for name, res in found.items()}


def _run_chunk(context: RunContext, reps: range, sender):
    """Body of a child process: run the replications ``reps`` and send back {rep: result}.

    SIGTERM first gets back its default disposition: a forked child inherits
    the caller's handler, and ``terminate`` must end the child at once.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sender.send({i: _replicate(context, i) for i in reps})
    sender.close()


def run_replications(config: SimulationConfig, workers: int = 1) -> AseReport:
    """Run the full replication batch and aggregate an ASE report.

    The run context is built once and handed to every replication.  At most
    ``reps`` processes run, each given one contiguous chunk of replications,
    the chunk sizes differing by at most one: this process runs the first
    chunk itself, and one child process runs each other chunk and sends its
    results back over a pipe.  Every child is ended before the call returns
    or raises; one that exits without sending raises a RuntimeError naming
    its replications.  Children are forked wherever the platform can fork,
    whatever the interpreter's default start method, and started by that
    default elsewhere.  Replications use independent substreams of the base
    seed, so the report is identical for any worker count.
    """
    if int(workers) < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(int(workers), config.reps)
    context = RunContext.build(config)
    size, extra = divmod(config.reps, workers)
    bounds = [1 + k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children, start_method = [], None
    try:
        if workers > 1:
            import multiprocessing

            import numpy.random  # noqa: F401  the lazy submodule, loaded before the fork, not per child
            processes = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
            start_method = processes.get_start_method()
            for chunk in chunks[1:]:
                receiver, sender = processes.Pipe(duplex=False)
                child = processes.Process(target=_run_chunk, args=(context, chunk, sender))
                child.start()
                children.append((chunk, child, receiver))
                sender.close()
        results = {i: _replicate(context, i) for i in chunks[0]}
        for chunk, child, receiver in children:
            try:
                results.update(receiver.recv())
            except EOFError:
                child.join()
                lost = f"{chunk[0]}-{chunk[-1]}" if len(chunk) > 1 else str(chunk[0])
                raise RuntimeError(f"replications {lost} lost: their worker process exited "
                                   f"with code {child.exitcode} before sending results") from None
            child.join()
    finally:
        for _, child, receiver in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()

    summaries = {}
    for name in estimators_for(config.model):
        found = [(i, results[i][name]) for i in sorted(results)]
        summaries[name] = EstimatorSummary(
            name=name,
            pairs=_candidates(name, config.bw_pairs),
            results=tuple((i, res) for i, res in found if isinstance(res, SearchResult)),
            failures=tuple((i, res) for i, res in found if isinstance(res, str)),
        )
    return AseReport(config=config, estimators=summaries, workers=workers,
                     start_method=start_method)


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
    estimator: str,
    axis: str,
    value: float,
    bandwidths: Bandwidths,
    quad: QuadratureGrid,
    weights=None,
) -> CrossSection:
    """Evaluate one estimator along a fixed-x or fixed-t line over [-2, 2].

    ``estimator`` is a registry name: "deconv", "naive" or "partial_linear",
    evaluated as a (1, 1, X, T) grid with X = 1 or T = 1 and flattened.
    ``weights`` maps b to deconvolution weights built beforehand for the
    sample's ensemble, as ``KernelCache(weights=)`` takes it (a run's
    ``RunContext.weights``); a b it lacks is built here.
    """
    if axis not in ("fix_x", "fix_t"):
        raise ValueError(f"axis must be 'fix_x' or 'fix_t', got {axis!r}")
    lo, hi = COVARIATE_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"fixed value {value} outside [{lo}, {hi}]")
    coords = np.linspace(lo, hi, CROSS_SECTION_POINTS)
    fixed = np.asarray([value])
    xs, ts = (fixed, coords) if axis == "fix_x" else (coords, fixed)

    cache = KernelCache(data.sample, xs, ts, quad, weights)
    if estimator == PARTIAL_LINEAR:
        grid = cache.partial_linear([bandwidths.b], linear_slope(data.sample))
    elif estimator in (DECONV, NAIVE):
        evaluate = cache.deconv if estimator == DECONV else cache.naive
        grid = evaluate([bandwidths.h], [bandwidths.b])
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    estimates, flags, _ = (a[0, 0].ravel() for a in grid)
    return CrossSection(
        axis=axis,
        fixed_value=float(value),
        coords=coords,
        estimates=estimates,
        truth=true_regression(data.model, xs[:, None], ts[None, :]).ravel(),
        flags=flags,
    )
