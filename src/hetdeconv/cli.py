"""Command-line front end: simulate, estimate, cross-section, validate.

Every command writes its artifacts into ``--out`` and finishes with a
``manifest.json`` listing the files, the effective configuration, and the
run metadata.  Numeric CSV fields carry 17 significant digits so a rerun
with the same seed is byte-identical.

Exit codes: 0 success, 1 validation-informational failure, 2 usage/config
error, 3 runtime failure.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import signal
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .error_models import ErrorEnsemble, ErrorFamily, ErrorModel
from .estimators import Bandwidths, KernelCache, Sample, fit, variance_bound_diagnostic
from .exceptions import ConfigError, EnsembleInvalid, HetdeconvError
from .kernels import MAX_QUAD_NODES, QuadratureGrid
from .simulation import (
    DECONV,
    NAIVE,
    PARTIAL_LINEAR,
    Model,
    RunContext,
    SimulationConfig,
    bandwidth_search,
    cross_section,
    generate,
    replication_rng,
    run_replications,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SEED_ENV_VAR = "HETDECONV_SEED"

ASE_REPORT_COLUMNS = (
    "model", "family", "n", "estimator", "h", "b",
    "mean_ase", "rep_count", "excluded_points",
)
PREDICTIONS_COLUMNS = ("x", "t", "r_hat", "f_hat", "flagged")
CROSS_SECTION_COLUMNS = ("coord", "estimate", "truth", "flagged")

# Rows a CSV block holds; the writer formats and writes a table block by block.
CSV_BLOCK_ROWS = 10_000

_ESTIMATOR_CHOICES = {
    "deconv": DECONV,
    "naive": NAIVE,
    "partial-linear": PARTIAL_LINEAR,
}


def _fields(column) -> list[str]:
    """CSV text of an array or a str/int/float/None sequence: %.17g floats, None empty."""
    values = column.ravel().tolist() if isinstance(column, np.ndarray) else column
    return ["" if v is None else format(v, ".17g") if isinstance(v, float) else str(v) for v in values]


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi is 10**k rounded to float64, lo the rest rounded."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _per_key(keys: np.ndarray, row, width: int, dtype) -> np.ndarray:
    """``row(k)``, padded to ``width`` items, for every key; computed once per distinct key."""
    base = int(keys.min())
    index = keys - base
    table = np.zeros((int(index.max()) + 1, width), dtype)
    for i in np.flatnonzero(np.bincount(index)).tolist():
        item = row(i + base)
        table[i, :len(item)] = item
    return np.take(table, index, axis=0)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of a * 10**(16 - e), the fraction good to about 1e-14.

    10**(16 - e) is the double-double hi + lo of ``_power_of_ten``, and a * hi
    is Dekker's (1971) exact two-product p + err.  The integer fits int64
    where e is within one of a's decimal exponent.
    """
    hilo = _per_key(16 - e, _power_of_ten, 2, np.float64)
    hi = hilo[:, 0]
    p = a * hi
    t = 134217729.0 * a          # 2**27 + 1 splits a float64 into two 26-bit halves
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = 134217729.0 * hi
    h_hi = t - (t - hi)
    h_lo = hi - h_hi
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    low = err + a * hilo[:, 1]
    floor = np.floor(low)
    return p.astype(np.int64) + floor.astype(np.int64), low - floor


# The text of every 4-digit group "0000".."9999" as one uint32 of its 4 chars
# (a byte view, so the order of the bytes does not depend on the machine),
# and the group's trailing zero digits (4 for "0000").
_QUAD_DIGITS = (np.arange(10_000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], np.uint16) % np.uint16(10)).astype(np.uint8)
_QUAD_TEXT = (_QUAD_DIGITS + np.uint8(ord("0"))).view(np.uint32).ravel()
_QUAD_ZEROS = np.logical_and.accumulate(_QUAD_DIGITS[:, ::-1] == 0, axis=1).sum(1, np.int8)


def _float_text(values: np.ndarray) -> np.ndarray:
    """The ``'%.17g' % v`` text of each float, as rows of a NUL-padded (n, W) uint8 matrix.

    The 17 digits are the integer nearest |v| * 10**(16 - E), with E the
    decimal exponent, from ``_scaled``; E moves by one where the integer
    falls outside [1e16, 1e17), and a round-up to 1e17 carries into E.  The
    text follows ``%g``: exponent form where E < -4 or E >= 17, no trailing
    fraction zeros and no bare point.  A value whose last digit is not
    certain (fraction within 1e-9 of 0.5), and 0, inf, nan and |v| outside
    [1e-250, 1e250], is formatted by ``%`` itself.  A row's text is its
    bytes with the NULs dropped.  The matrix is built as a contiguous (W, n)
    one, a row per character column, and returned as its transpose.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if n == 0:
        return np.zeros((0, 1), np.uint8)
    a = np.abs(x)
    slow = ~((a >= 1e-250) & (a <= 1e250))
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e)
    off = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    moved = np.flatnonzero(off)
    if moved.size:
        e[moved] += off[moved]
        whole[moved], frac[moved] = _scaled(a[moved], e[moved])
    digits = whole + (frac > 0.5)
    slow |= (np.abs(frac - 0.5) < 1e-9) | (digits < 10 ** 16) | (digits > 10 ** 17)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry

    # The 17 digits' chars, a row each: the leading digit, then four 4-digit
    # groups; the trailing zero digits are counted group by group from the last.
    chars = np.empty((17, n), np.uint8)
    first = digits // 10 ** 16
    chars[0] = first + ord("0")
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    groups = []
    for half in (high.astype(np.uint32), (rest - high * 10 ** 8).astype(np.uint32)):
        top = half // 10 ** 4
        groups += [top, half - top * 10 ** 4]
    for k, group in enumerate(groups):
        chars[1 + 4 * k:5 + 4 * k] = np.take(_QUAD_TEXT, group).view(np.uint8).reshape(n, 4).T
    zeros = np.take(_QUAD_ZEROS, groups[3])
    below = groups[3] == 0                   # every later group is 0000
    for group in groups[2::-1]:
        zeros += below * np.take(_QUAD_ZEROS, group)
        below &= group == 0

    # Rows: sign, "0." and zeros where -4 <= E < 0, the digits before the
    # point, the point, the fraction digits less trailing zeros, "e+dd".
    expo = (e < -4) | (e >= 17)
    small = ~expo & (e < 0)
    point_at = np.where(expo, 1, np.where(small, 0, e + 1)).astype(np.int8)
    end = 17 - zeros
    lead = np.where(small, -e, 0)
    prefix = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"]).view(np.uint8).reshape(5, 5).T
    col = np.arange(17, dtype=np.int8)[:, None]
    whole_end, frac_start = int(point_at.max()), int(point_at.min())
    frac_col = col[frac_start:]
    parts = [(np.signbit(x) * np.uint8(ord("-")))[None],
             np.take(prefix[:int(lead.max()) + 1], lead, axis=1),
             chars[:whole_end] * (col[:whole_end] < point_at),
             (~(small | (end <= point_at)) * np.uint8(ord(".")))[None],
             chars[frac_start:] * ((frac_col >= point_at) & (frac_col < end))]
    rows = np.flatnonzero(expo)
    if rows.size:
        exponents = np.zeros((5, n), np.uint8)
        exponents[:, rows] = _per_key(e[rows], lambda k: list(b"e%+03d" % k), 5, np.uint8).T
        parts.append(exponents)
    out = np.concatenate(parts)
    for i in np.flatnonzero(slow).tolist():
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        if text.size > out.shape[0]:
            out = np.pad(out, ((0, text.size - out.shape[0]), (0, 0)))
        out[:, i] = 0
        out[:text.size, i] = text
    return out.T


def _text(column) -> np.ndarray:
    """One CSV column as a NUL-padded (rows, W) uint8 matrix of its fields.

    A 2-D uint8 array is such a matrix already; a float array is formatted by
    ``_float_text``, a bool array as 1/0, and any other column by ``_fields``.
    Arrays are read in C order.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == np.uint8 and column.ndim == 2:
            return column
        if column.dtype == bool:
            return column.reshape(-1, 1).view(np.uint8) + ord("0")
        if column.dtype.kind == "f":
            return _float_text(column)
    fields = np.array([field.encode() for field in _fields(column)], dtype=bytes)
    return fields.view(np.uint8).reshape(len(fields), fields.itemsize)


def _csv_block(columns, lo: int, hi: int) -> bytes:
    """The CSV text of rows lo..hi of ``columns`` (each a sequence of rows, see ``_write_csv``).

    Each column's rows become a text matrix (``_text``); the matrices are
    joined with ``,`` and ``\\n`` and the NUL padding is dropped.
    """
    texts = [_text(column[lo:hi]) for column in columns]
    table = np.empty((hi - lo, sum(t.shape[1] + 1 for t in texts)), np.uint8)
    end = 0
    for text in texts:
        end += text.shape[1] + 1
        table[:, end - 1 - text.shape[1]:end - 1] = text
        table[:, end - 1] = ord(",")
    table[:, -1:] = ord("\n")
    return table.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header, columns) -> None:
    """Write one sequence per column; no field needs quoting (numbers, flags, enum names).

    A 2-D uint8 column is a text matrix with one row per field (``_text``);
    any other array is read flat in C order.  The rows are formatted in
    blocks of ``CSV_BLOCK_ROWS`` (``_csv_block``) on the calling thread and
    written in order.  A field's text depends on its value alone, so the
    bytes do not depend on the blocks.  Raises ValueError naming the
    lengths, and writes no file, when the columns differ in length.
    """
    columns = [c.reshape(-1) if isinstance(c, np.ndarray) and (c.dtype != np.uint8 or c.ndim != 2)
               else c for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    rows = lengths[0] if lengths else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            fh.write(_csv_block(columns, lo, min(lo + CSV_BLOCK_ROWS, rows)))


def _write_manifest(out_dir: Path, command: str, config_echo, seed, outputs, started, extra=None) -> Path:
    manifest = {
        "schema_version": 1,
        "tool": {"name": "hetdeconv", "version": __version__},
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.monotonic() - started, 6),
        "seed": seed,
        "config": config_echo,
        "outputs": {name: str(path) for name, path in outputs.items()},
        "conventions": {
            "eval_grid": "evenly spaced, inclusive endpoints",
            "csv_float_format": "%.17g",
            "csv_line_ending": "LF",
            "csv_columns": {
                "ase_report.csv": list(ASE_REPORT_COLUMNS),
                "predictions.csv": list(PREDICTIONS_COLUMNS),
                "cross_section.csv": list(CROSS_SECTION_COLUMNS),
            },
            "ase_report": (
                "one row per estimator; mean_ase is the mean over replications of "
                "the per-replication oracle-optimal ASE; h and b are the pair "
                "minimizing the replication-averaged ASE matrix; the "
                "partial_linear estimator has no h (empty field)"
            ),
            "flag_encoding": "1 = ridge-floored point, 0 = regular point",
        },
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_override(spec: str) -> tuple[list[str], object]:
    if "=" not in spec:
        raise ConfigError(f"--set expects key=value, got {spec!r}")
    key, raw_value = spec.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects a nonempty key, got {spec!r}")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return key.split("."), value


def _apply_overrides(raw: dict, overrides) -> dict:
    for spec in overrides:
        path, value = _parse_override(spec)
        node = raw
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {spec!r}: {part!r} is not an object")
        node[path[-1]] = value
    return raw


def _load_config(config_path: str, overrides, full_scale: bool) -> SimulationConfig:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {config_path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({config_path} line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    raw = _apply_overrides(raw, overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    return SimulationConfig.from_dict(raw, full_scale=full_scale)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread so that the code it interrupts unwinds."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """Run the block with SIGTERM raised as an exception, then end the process by SIGTERM.

    Under its default disposition SIGTERM ends the process at once and no
    ``finally`` runs, so the child processes of ``run_replications`` would
    outlive it.  In the block the signal unwinds instead, through the
    ``finally`` that ends and joins them; then the default is restored and
    the process sends itself SIGTERM, so it ends as it would have.  Any other
    disposition, and a call outside the main thread, is left as it is.
    """
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGTERM) != signal.SIG_DFL):
        yield
        return
    signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
@click.version_option(version=__version__, prog_name="hetdeconv")
def main():
    """Partial deconvolution kernel regression and its Monte Carlo study."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Override a config field (dotted paths allowed); repeatable.")
@click.option("--out", "out", default=".", type=click.Path(file_okay=False), show_default=True)
@click.option("--workers", default=_usable_cpus, type=int,
              help="Replication worker processes [default: the CPUs this process may run on].")
@click.option("--full-scale", is_flag=True, help="Fill omitted config fields with the full-scale protocol.")
def simulate(config_path, overrides, out, workers, full_scale):
    """Run the replication study and write ase_report.csv."""
    started = time.monotonic()
    try:
        config = _load_config(config_path, overrides, full_scale)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        with _sigterm_unwinds():
            report = run_replications(config, workers=workers)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:
        _fail(EXIT_RUNTIME, f"simulation failed: {exc}")

    for name, summary in report.estimators.items():
        for rep, message in summary.failures:
            click.echo(f"warning: {name} replication {rep} failed: {message}", err=True)
    bad = [name for name, summary in report.estimators.items() if not summary.results]
    if bad:
        first_rep = min(r for n in bad for (r, _) in report.estimators[n].failures)
        _fail(EXIT_RUNTIME, f"no successful replication for {bad} (first failure at replication {first_rep})")

    out_dir = _out_dir(out)
    rows = report.summary_rows()
    report_path = out_dir / "ase_report.csv"
    _write_csv(report_path, ASE_REPORT_COLUMNS, [[r[c] for r in rows] for c in ASE_REPORT_COLUMNS])
    _write_manifest(
        out_dir, "simulate", config.to_dict(), config.seed,
        {"ase_report.csv": report_path}, started,
        extra={"workers": report.workers, "start_method": report.start_method},
    )
    for row in rows:
        click.echo(
            f"{row['model']} {row['family']} n={row['n']} {row['estimator']}: "
            f"mean ASE {row['mean_ase']:.6g} over {row['rep_count']} replications"
        )
    sys.exit(EXIT_OK)


def _read_table(path: str, required: tuple[str, ...]) -> dict[str, list[str]]:
    """The ``required`` columns, each named once, of a CSV whose every nonblank row matches its header."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:    # a BOM is skipped
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise ConfigError(f"{path}: missing columns {missing} (found {header})")
            repeated = [c for c in required if header.count(c) > 1]
            if repeated:
                raise ConfigError(f"{path}: column {repeated[0]!r} named more than once "
                                  f"in the header {header}")
            rows = [row for row in reader if row]
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except (OSError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigError(f"{path} row {i + 1}: {len(row)} fields, header has {len(header)}")
    index = {name: i for i, name in enumerate(header)}
    return {c: [row[index[c]] for row in rows] for c in required}


def _error_ensemble(path: str, families, variances) -> ErrorEnsemble:
    """The error laws of an errors table, checked as arrays; a bad row is named by number."""
    names = [family.strip().lower() for family in families]
    names = ["gaussian" if name == "normal" else name for name in names]
    try:
        return ErrorEnsemble.from_arrays(names, [float(v) for v in variances])
    except ValueError:
        # Word the error as the first bad row's own law does.
        for i, (name, variance) in enumerate(zip(names, variances)):
            try:
                ErrorModel(ErrorFamily(name), float(variance))
            except ValueError as exc:
                raise ConfigError(f"{path} row {i + 1}: {exc}") from exc
        raise


def _parse_grid_spec(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name} must be start:stop:count, got {spec!r}") from exc
    if count < 1 or not -np.inf < start <= stop < np.inf:
        raise ConfigError(f"{name}: need finite start <= stop and count >= 1, got {spec!r}")
    if stop - start == np.inf:
        raise ConfigError(f"{name}: stop - start overflows, got {spec!r}")
    with np.errstate(over="ignore"):    # only the last point may overflow; it is set to stop
        return np.linspace(start, stop, count)


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(),
              help="CSV with columns x, w, y.")
@click.option("--errors", "errors_path", required=True, type=click.Path(),
              help="CSV with columns family, variance (one row per observation).")
@click.option("--h", "h", required=True, type=float, help="Bandwidth, exact direction.")
@click.option("--b", "b", required=True, type=float, help="Bandwidth, contaminated direction.")
@click.option("--x-grid", default="-2:2:20", show_default=True, metavar="START:STOP:COUNT")
@click.option("--t-grid", default="-2:2:20", show_default=True, metavar="START:STOP:COUNT")
@click.option("--quad-nodes", default=128, show_default=True, type=int)
@click.option("--out", "out", default=".", type=click.Path(file_okay=False), show_default=True)
def estimate(data_path, errors_path, h, b, x_grid, t_grid, quad_nodes, out):
    """Fit on a data file and write predictions.csv over the query grid."""
    started = time.monotonic()
    try:
        data_cols = _read_table(data_path, ("x", "w", "y"))
        error_cols = _read_table(errors_path, ("family", "variance"))
        n_data, n_err = len(data_cols["x"]), len(error_cols["family"])
        if n_data != n_err:
            raise ConfigError(
                f"row count mismatch: {data_path} has {n_data} rows, {errors_path} has {n_err}")
        try:
            x, w, y = (np.array(data_cols[c], dtype=float) for c in "xwy")
        except ValueError as exc:
            raise ConfigError(f"{data_path}: non-numeric entry ({exc})") from exc
        ensemble = _error_ensemble(errors_path, error_cols["family"], error_cols["variance"])
        bandwidths = Bandwidths(h, b)
        x_values = _parse_grid_spec(x_grid, "--x-grid")
        t_values = _parse_grid_spec(t_grid, "--t-grid")
        if not 16 <= quad_nodes <= MAX_QUAD_NODES:
            raise ConfigError(f"--quad-nodes must be in [16, {MAX_QUAD_NODES}], got {quad_nodes}")
        sample = Sample(x=x, w=w, y=y, ensemble=ensemble)
    except (ConfigError, HetdeconvError, ValueError) as exc:
        _fail(EXIT_CONFIG, str(exc))

    try:
        quad = QuadratureGrid.gauss_legendre(quad_nodes)
        values, flags, density = fit(sample, bandwidths, quad).predict_grid(x_values, t_values)
    except Exception as exc:
        _fail(EXIT_RUNTIME, str(exc))

    # Rows run x-major: every t for the first x, then the next x.
    xs, ts = _float_text(x_values), _float_text(t_values)
    out_dir = _out_dir(out)
    pred_path = out_dir / "predictions.csv"
    _write_csv(pred_path, PREDICTIONS_COLUMNS,
               (np.repeat(xs, len(ts), axis=0), np.tile(ts, (len(xs), 1)), values, density, flags))
    _write_manifest(
        out_dir, "estimate",
        {"data": str(data_path), "errors": str(errors_path), "h": h, "b": b,
         "x_grid": x_grid, "t_grid": t_grid, "quad_nodes": quad_nodes},
        None, {"predictions.csv": pred_path}, started,
    )
    click.echo(f"wrote {pred_path} ({values.size} points, {int(flags.sum())} flagged)")
    sys.exit(EXIT_OK)


@main.command("cross-section")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
@click.option("--axis", "axis", required=True, type=click.Choice(["x", "t"]),
              help="Which coordinate stays fixed.")
@click.option("--value", required=True, type=float, help="Fixed coordinate value.")
@click.option("--estimator", "estimator_name", default="deconv", show_default=True,
              type=click.Choice(sorted(_ESTIMATOR_CHOICES)))
@click.option("--out", "out", default=".", type=click.Path(file_okay=False), show_default=True)
@click.option("--full-scale", is_flag=True)
def cmd_cross_section(config_path, overrides, axis, value, estimator_name, out, full_scale):
    """Profile an estimator along one axis at oracle-optimal bandwidths."""
    started = time.monotonic()
    try:
        config = _load_config(config_path, overrides, full_scale)
        if not -2.0 <= value <= 2.0:
            raise ConfigError(f"--value must lie in [-2, 2], got {value}")
        estimator = _ESTIMATOR_CHOICES[estimator_name]
        if estimator == PARTIAL_LINEAR and config.model is not Model.MODEL2:
            raise ConfigError("partial-linear requires model2")
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))

    try:
        context = RunContext.build(config)
        data = generate(config.model, config.n, context.ensemble, replication_rng(config.seed, 1))
        cache = KernelCache(data.sample, context.x_values, context.t_values, context.quad,
                            context.weights, context.right)
        search = bandwidth_search(data, config.bw_pairs, cache, estimator=estimator)
        best_h, best_b = search.best_pair
        bw = Bandwidths(best_h if best_h is not None else best_b, best_b)
        section = cross_section(
            data, estimator, "fix_x" if axis == "x" else "fix_t", value, bw, context.quad,
            context.weights,
        )
    except Exception as exc:
        _fail(EXIT_RUNTIME, f"cross-section failed: {exc}")

    out_dir = _out_dir(out)
    section_path = out_dir / "cross_section.csv"
    _write_csv(section_path, CROSS_SECTION_COLUMNS,
               (section.coords, section.estimates, section.truth, section.flags))
    _write_manifest(
        out_dir, "cross-section", config.to_dict(), config.seed,
        {"cross_section.csv": section_path}, started,
        extra={
            "axis": axis, "value": value, "estimator": estimator_name,
            "selected_bandwidths": {
                "h": best_h, "b": best_b, "ase": search.best_ase,
            },
        },
    )
    click.echo(
        f"wrote {section_path} (estimator={estimator_name}, "
        f"h={'-' if best_h is None else format(best_h, 'g')}, b={best_b:g})"
    )
    sys.exit(EXIT_OK)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
@click.option("--c-sup", default=1.0, show_default=True, type=float,
              help="Sup-norm constant for the variance bound diagnostic.")
@click.option("--full-scale", is_flag=True)
def validate(config_path, overrides, c_sup, full_scale):
    """Check ensemble validity and print the variance bound per bandwidth pair."""
    try:
        config = _load_config(config_path, overrides, full_scale)
        if not 0 < c_sup < np.inf:
            raise ConfigError(f"--c-sup must be finite and positive, got {c_sup}")
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))

    weights = RunContext.build(config).weights
    all_passed = True
    for h, b in config.bw_pairs:
        found = weights[b]       # DeconvWeights, or the EnsembleInvalid raised at b
        if isinstance(found, EnsembleInvalid):
            all_passed = False
            bound = "degenerate"
        else:
            bound = f"{variance_bound_diagnostic(found, h, c_sup):.6e}"
        click.echo(f"h={h:g} b={b:g}: {found.report.summary()}  variance_bound={bound}")
    sys.exit(EXIT_OK if all_passed else EXIT_VALIDATION)


if __name__ == "__main__":
    main()
