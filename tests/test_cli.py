import csv
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import exit_in_child, needs_fork
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetdeconv import cli, gaussian_kernel, kernels, simulation
from hetdeconv.cli import ASE_REPORT_COLUMNS, PREDICTIONS_COLUMNS, _float_text, _write_csv, main


@pytest.fixture
def runner():
    return CliRunner()


def _tiny_config(**overrides):
    raw = {
        "model": "model1",
        "error_family": "laplace",
        "n": 40,
        "reps": 2,
        "seed": 11,
        "quad_nodes": 32,
        "bandwidth_grid": {"h": {"start": 0.1, "stop": 0.2, "count": 2},
                           "b": {"start": 0.1, "stop": 0.2, "count": 2}},
        "eval_grid": {"x": {"start": -2, "stop": 2, "count": 8},
                      "t": {"start": -2, "stop": 2, "count": 8}},
    }
    raw.update(overrides)
    return raw


def _write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_tiny_config(**overrides)))
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reference_csv(header, rows) -> bytes:
    """The CSV that csv.writer makes with 17-significant-digit floats and 1/0 flags."""
    def field(v):
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([field(v) for v in row] for row in rows)
    return buf.getvalue().encode()


def _running(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestCsvWriter:
    def test_grid_columns_match_csv_writer(self, tmp_path):
        # 3 x 5: a swap of the x and t orders shows as a length or order mismatch
        x = np.array([-1.0, 0.0, 2.5])
        t = np.array([-2.0, -0.5, 0.0, 1e-300, 3.0])
        values = np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324],
                           [1e300, 1.0 / 3.0, -2.0, 0.1, 7.0],
                           [np.pi, -1e-310, 0.0, 1.0, -np.e]])
        density = -values[::-1] / 7.0
        flags = ~np.isfinite(values) | (values == 0.0)
        assert flags.any() and not flags.all()
        path = tmp_path / "grid.csv"
        _write_csv(path, PREDICTIONS_COLUMNS,
                   (np.repeat(x, 5), np.tile(t, 3), values, density, flags))
        expected = _reference_csv(PREDICTIONS_COLUMNS, [
            (x[i], t[j], values[i, j], density[i, j], flags[i, j])
            for i in range(3) for j in range(5)
        ])
        assert path.read_bytes() == expected

    def test_scalar_columns_with_empty_h_match_csv_writer(self, tmp_path):
        rows = [("model2", "laplace", 100, "deconv", 0.065, np.float64(0.11), 0.65, 20, 3),
                ("model2", "laplace", 100, "partial_linear", None, 0.2, np.float64(1e-17), 20, 0)]
        path = tmp_path / "report.csv"
        _write_csv(path, ASE_REPORT_COLUMNS, [list(c) for c in zip(*rows)])
        assert path.read_bytes() == _reference_csv(ASE_REPORT_COLUMNS, rows)
        assert path.read_text().splitlines()[2].split(",")[4] == ""

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 9, 13])
    def test_blocks_give_the_bytes_of_one_block(self, tmp_path, monkeypatch, rows):
        # blocks of 4 rows: 3 and 5 are the block size -1 and +1, 9 and 13 end
        # in a lone block; only the first block holds exponent-form and
        # %-fallback fields, so its text matrices are wider than the others'
        values = np.linspace(-1.0, 1.0, rows) / 3.0
        values[:4] = [1e-300, 2.5e20, np.nan, -3e-7][:min(rows, 4)]
        columns = (_float_text(values[::-1]), values, values.reshape(1, -1) * 7.0,
                   [None if i % 3 == 0 else i for i in range(rows)], values > 0)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 10 ** 9)
        _write_csv(tmp_path / "one.csv", ("a", "b", "c", "d", "e"), columns)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        _write_csv(tmp_path / "blocks.csv", ("a", "b", "c", "d", "e"), columns)
        one = (tmp_path / "one.csv").read_bytes()
        assert (tmp_path / "blocks.csv").read_bytes() == one
        assert one.count(b"\n") == rows + 1
        if rows >= 3:
            assert b"e-300" in one and b"e+20" in one and b"nan" in one

    @pytest.mark.parametrize("rows", [0, 1, 4, 5, 8, 9, 13])
    def test_formats_every_block_on_the_calling_thread_and_starts_no_thread(self, tmp_path,
                                                                             monkeypatch, rows):
        # blocks of 4 rows: tables of no, one, two, three and four blocks
        started, formatted = [], []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        block = cli._csv_block

        def recorded(columns, lo, hi):
            formatted.append((lo, threading.current_thread() is threading.main_thread()))
            return block(columns, lo, hi)

        monkeypatch.setattr(threading, "Thread", CountedThread)
        monkeypatch.setattr(cli, "_csv_block", recorded)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        before = threading.active_count()
        _write_csv(tmp_path / "table.csv", ("a",), (np.arange(rows, dtype=float),))
        assert started == [] and threading.active_count() == before
        assert formatted == [(lo, True) for lo in range(0, rows, 4)]
        text = (tmp_path / "table.csv").read_text()
        assert text == "a\n" + "".join(f"{i}\n" for i in range(rows))

    def test_columns_of_different_length_are_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match=r"differ in length: \[3, 3, 2\]"):
            _write_csv(path, ("a", "b", "c"),
                       (np.zeros(3), ["x", "y", "z"], np.array([True, False])))
        assert not path.exists()


# powers of ten with both neighbours, the ends of the 17-digit range and the
# values just below them, and values around the kernel's fallback bounds
_POWERS = [10.0 ** k for k in range(-310, 309)]
_EDGES = [1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 99999999999999992.0,
          0.5, 2.5, 1e-250, 1e250, np.nextafter(1e-250, 0), np.nextafter(1e250, np.inf),
          1e-4, 1e-5, 9.9999999999999991e-05, 123456789012345678.0, 0.1 + 0.2, 2.0 ** -1074]
# 17 digits ending in k = 1..16 zeros (1234567891234563 has 1, 3.0 has 16),
# then 0, 13, 9 and 1: counts 4, 8, 12 and 16 end on a 4-digit group boundary
_TRAILING = ([float("123456789123456"[:16 - k] + "3") for k in range(1, 17)]
             + [0.1, 1234.0, 12345678.0, 1e16 - 2])


class TestFloatText:
    """The kernel's text of each float64 is ``'%.17g' % v``, bit pattern by bit pattern."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                    | st.integers(-10 ** 18, 10 ** 18).map(float)
                    | st.integers(-10 ** 6, 10 ** 6).map(lambda i: i + 0.5),
                    max_size=40))
    @example(_POWERS + [np.nextafter(p, 0) for p in _POWERS] + [np.nextafter(p, np.inf)
                                                               for p in _POWERS])
    @example([-v for v in _EDGES] + _EDGES + [np.nextafter(v, 0) for v in _EDGES])
    @example(_TRAILING + [-v / 1024 for v in _TRAILING] + [v * 1e10 for v in _TRAILING])
    @example([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308])
    @example([])
    def test_equals_percent_formatting(self, values):
        text = _float_text(np.array(values, dtype=np.float64))
        assert text.dtype == np.uint8 and text.shape[0] == len(values)
        assert [bytes(row).replace(b"\0", b"").decode() for row in text] == \
            ["%.17g" % v for v in values]

    def test_a_float32_array_reads_as_its_float64_values(self):
        x = np.array([0.1, -3.4e38, 1e-45], dtype=np.float32)
        assert [bytes(r).replace(b"\0", b"") for r in _float_text(x)] == \
            [b"%.17g" % v for v in x.astype(np.float64).tolist()]


class TestSimulate:
    def test_writes_report_and_manifest(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 0, result.output
        rows = _read_rows(out / "ase_report.csv")
        assert [r["estimator"] for r in rows] == ["deconv", "naive"]
        assert all(float(r["mean_ase"]) >= 0 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "ase_report.csv" in manifest["outputs"]
        assert manifest["seed"] == 11
        assert manifest["config"]["n"] == 40

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = _write_config(tmp_path, reps=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                          "--out", str(out), "--workers", "1"])
            assert result.exit_code == 0, result.output
        assert (out1 / "ase_report.csv").read_bytes() == (out2 / "ase_report.csv").read_bytes()

    def test_set_overrides_apply(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--set", "n=30", "--set", "model=model2",
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 0, result.output
        rows = _read_rows(out / "ase_report.csv")
        assert rows[0]["n"] == "30"
        assert {r["estimator"] for r in rows} == {"deconv", "naive", "partial_linear"}
        assert rows[2]["h"] == ""  # partial_linear has no h

    def test_report_matches_csv_writer(self, runner, tmp_path):
        from hetdeconv import SimulationConfig, run_replications

        cfg = _write_config(tmp_path, model="model2", reps=1)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 0, result.output
        config = SimulationConfig.from_dict(_tiny_config(model="model2", reps=1))
        rows = run_replications(config).summary_rows()
        assert rows[2]["h"] is None
        expected = _reference_csv(ASE_REPORT_COLUMNS,
                                  [[r[c] for c in ASE_REPORT_COLUMNS] for r in rows])
        assert (out / "ase_report.csv").read_bytes() == expected

    def test_env_var_overrides_seed(self, runner, tmp_path):
        cfg = _write_config(tmp_path, reps=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out1),
                                  "--workers", "1"], env={"HETDECONV_SEED": "999"})
        r2 = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out2),
                                  "--workers", "1"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["seed"] == 999
        assert (out1 / "ase_report.csv").read_bytes() != (out2 / "ase_report.csv").read_bytes()

    def test_malformed_config_exits_2_without_artifacts(self, runner, tmp_path):
        cfg = _write_config(tmp_path, n=-40)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_2(self, runner, tmp_path, workers):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--workers", workers])
        assert result.exit_code == 2, result.output
        assert f"workers must be >= 1, got {workers}" in result.output
        assert not out.exists()

    def test_manifest_records_the_workers_that_ran(self, runner, tmp_path):
        cfg = _write_config(tmp_path, reps=1)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--workers", "2"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["workers"], manifest["start_method"]) == (1, None)

    @pytest.mark.skipif(not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
                        reason="needs the fork and forkserver start methods")
    def test_children_are_forked_whatever_the_default_start_method(self, tmp_path):
        cfg = _write_config(tmp_path, reps=3)
        script = ("import multiprocessing, sys\n"
                  "from hetdeconv.cli import main\n"
                  "multiprocessing.set_start_method('forkserver', force=True)\n"
                  "main(sys.argv[1:])\n")
        for workers in ("1", "2"):
            done = subprocess.run([sys.executable, "-c", script, "simulate", "--config", str(cfg),
                                   "--out", str(tmp_path / workers), "--workers", workers],
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        manifest = json.loads((tmp_path / "2" / "manifest.json").read_text())
        assert (manifest["workers"], manifest["start_method"]) == (2, "fork")
        assert ((tmp_path / "2" / "ase_report.csv").read_bytes()
                == (tmp_path / "1" / "ase_report.csv").read_bytes())

    def test_a_boolean_integer_exits_2_without_artifacts(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--set", "reps=true"])
        assert result.exit_code == 2, result.output
        assert "error: reps must be an integer, got True" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("override,message", [
        ("bandwidth_grid={\"pairs\": [[true, 0.2]]}",
         "bandwidth_grid.pairs entry must be a number, got True"),
        ("eval_grid.x.start=\"-1\"", "eval_grid.x: start must be a number, got '-1'"),
        ("eval_grid.x.cnt=50", "unknown eval_grid.x fields: ['cnt']"),
        ("bandwidth_grid.pairs=[[0.1, 0.2]]",
         "bandwidth_grid takes either 'pairs' or the 'h' and 'b' axes, got ['b', 'h', 'pairs']"),
    ], ids=["boolean_pair", "string_start", "axis_typo", "two_forms"])
    def test_a_malformed_float_or_nested_key_exits_2_without_artifacts(self, runner, tmp_path,
                                                                      override, message):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--set", override])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
        assert not out.exists()

    def test_default_workers_count_the_cpus_this_process_may_run_on(self, runner, tmp_path,
                                                                     monkeypatch):
        # one CPU in the affinity mask of a four-core machine: one worker, although reps=2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = _write_config(tmp_path, reps=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1

    @needs_fork
    def test_a_lost_worker_process_exits_3_without_a_report(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(simulation, "_replicate", exit_in_child(4))
        cfg = _write_config(tmp_path, reps=4)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--workers", "2"])
        assert result.exit_code == 3, result.output
        assert "replications 3-4 lost" in result.output
        assert not (out / "ase_report.csv").exists()

    @needs_fork
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_sigterm_ends_the_child_processes_and_then_the_run(self, tmp_path):
        # each worker's chunk of 100 full-scale replications takes far longer
        # than the assertion window
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "model2", "error_family": "laplace", "n": 500,
                                   "reps": 200, "seed": 1}))
        out = tmp_path / "out"
        proc = subprocess.Popen([sys.executable, "-m", "hetdeconv.cli", "simulate", "--config",
                                 str(cfg), "--out", str(out), "--workers", "2", "--full-scale"],
                                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        children = []
        try:
            deadline = time.monotonic() + 60
            while not children and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                    children = [int(pid) for pid in fh.read().split()]
            assert children, "simulate started no child process"
            time.sleep(0.5)     # well into the replications
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
            assert not (out / "ase_report.csv").exists()
            deadline = time.monotonic() + 3
            while any(map(_running, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, children))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in filter(_running, children):
                os.kill(pid, signal.SIGKILL)

    def test_sigterm_handler_is_restored_after_the_run(self, runner, tmp_path, monkeypatch):
        seen, replicate = [], cli.run_replications

        def recording(config, workers):
            seen.append(signal.getsignal(signal.SIGTERM))
            return replicate(config, workers=workers)

        monkeypatch.setattr(cli, "run_replications", recording)
        before = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            result = runner.invoke(main, ["simulate", "--config", str(_write_config(tmp_path)),
                                          "--out", str(tmp_path / "out"), "--workers", "1"])
            after = signal.getsignal(signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, before)
        assert result.exit_code == 0, result.output
        assert callable(seen[0])      # SIGTERM unwinds through run_replications
        assert after == signal.SIG_DFL

    def test_every_replication_failing_exits_3_without_a_report(self, runner, tmp_path):
        # the Gaussian laws are invalid at b = 0.01: deconv and partial-linear fail
        cfg = _write_config(tmp_path, model="model2", error_family="normal", reps=3,
                            bandwidth_grid={"pairs": [[0.1, 0.01], [0.2, 0.01]]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out),
                                      "--workers", "1"])
        assert result.exit_code == 3, result.output
        for name in ("deconv", "partial_linear"):
            for rep in (1, 2, 3):
                assert (f"warning: {name} replication {rep} failed: no bandwidth candidate"
                        in result.output)
        assert "rep 1:" not in result.output
        assert "no successful replication for ['deconv', 'partial_linear']" in result.output
        assert not (out / "ase_report.csv").exists()

    def test_invalid_json_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_missing_config_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_bandwidth_pair_exits_2(self, runner, tmp_path, bad):
        # Python's JSON reader accepts the NaN and Infinity literals
        cfg = _write_config(tmp_path, bandwidth_grid={"pairs": [[bad, 0.1]]})
        assert ("NaN" if bad != bad else "Infinity") in cfg.read_text()
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_full_scale_fills_omitted_fields(self, runner, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "model1", "error_family": "laplace",
                                   "n": 30, "seed": 5}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--set", "reps=1", "--full-scale",
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["config"]["bandwidth_grid"]["pairs"]) == 100
        assert manifest["config"]["eval_grid"]["x"]["count"] == 50
        assert manifest["config"]["quad_nodes"] == 128
        assert manifest["config"]["reps"] == 1  # explicit --set wins

    def test_dotted_set_override(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--set", "eval_grid.x.count=6",
                                      "--out", str(out), "--workers", "1"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["eval_grid"]["x"]["count"] == 6


def _write_estimation_inputs(tmp_path, n=24, constant_y=None, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    w = rng.uniform(-2, 2, n)
    y = np.full(n, constant_y) if constant_y is not None else x * 2 + np.cos(w)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "w", "y"])
        for row in zip(x, w, y):
            writer.writerow([repr(float(v)) for v in row])
    errors = tmp_path / "errors.csv"
    with open(errors, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "variance"])
        for _ in range(n):
            writer.writerow(["degenerate", "0"])
    return data, errors, x, w, y


def _write_contaminated_errors(errors, n):
    """Alternating Gaussian and Laplace laws of variance 0.1 for the n rows."""
    with open(errors, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "variance"])
        for i in range(n):
            writer.writerow([("gaussian", "laplace")[i % 2], "0.1"])


class TestEstimate:
    @pytest.mark.filterwarnings("error")
    def test_a_tiny_h_flags_every_point_without_a_warning(self, runner, tmp_path):
        # every kx underflows to an exact 0 (its exponent overflows to -inf)
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        _write_contaminated_errors(errors, 24)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "1e-300", "--b", "0.3", "--x-grid", "-1:1:4", "--t-grid", "-1:1:4",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "Warning" not in result.output
        assert {r["flagged"] for r in _read_rows(out / "predictions.csv")} == {"1"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", ["x", "w"])
    def test_a_huge_finite_entry_leaks_no_warning(self, runner, tmp_path, column):
        # w_j = 1e308 overflows w_j / b, so every kernel sum is NaN and every
        # point is flagged; x_j = 1e308 overflows (x - x_j) / h to -inf,
        # whose normal kernel is an exact 0, so no point is
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=50)
        _write_contaminated_errors(errors, 50)
        rows = data.read_text().splitlines()
        x, w, y = rows[8].split(",")
        rows[8] = ",".join(["1e308", w, y] if column == "x" else [x, "1e308", y])
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.3", "--b", "0.3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "Warning" not in result.output
        predictions = _read_rows(out / "predictions.csv")
        assert len(predictions) == 400
        if column == "w":
            assert "400 points, 400 flagged" in result.output
            assert {r["flagged"] for r in predictions} == {"1"}
        else:
            assert "400 points, 0 flagged" in result.output
            assert all(np.isfinite(float(r["r_hat"])) for r in predictions)

    @pytest.mark.filterwarnings("error")
    def test_a_tiny_b_is_an_invalid_ensemble_without_a_warning(self, runner, tmp_path):
        # the scaled nodes reach 1e300, where every CF is an exact 0
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        _write_contaminated_errors(errors, 24)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.3", "--b", "1e-300", "--x-grid", "-1:1:4", "--t-grid", "-1:1:4",
            "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: ensemble invalid at b=1e-300: [FAIL]")
        assert "Warning" not in result.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["y", "x", "t-grid"])
    def test_an_overflow_near_the_double_limit_leaks_no_warning(self, runner, tmp_path, case):
        # y_j = 1e308 at (0, 0) overflows the numerator over h b, which is
        # flagged; x_j = 1e308 overflows its difference to an x grid from
        # -1e308, whose kernel is an exact 0; a t grid up to the largest
        # double overflows the last point of np.linspace before it is set to
        # the stop
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=10)
        grids = {"--x-grid": "-1e308:1:3" if case == "x" else "-1:1:3",
                 "--t-grid": "0:1.7976931348623157e308:4" if case == "t-grid" else "-1:1:3"}
        if case != "t-grid":
            rows = data.read_text().splitlines()
            _, w, y = rows[4].split(",")
            rows[4] = "0,0,1e308" if case == "y" else f"1e308,{w},{y}"
            data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors), "--h", "0.05", "--b", "0.05",
            *(item for pair in grids.items() for item in pair), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for row in _read_rows(out / "predictions.csv"):
            if row["flagged"] == "0":
                assert np.isfinite(float(row["r_hat"])) and np.isfinite(float(row["f_hat"]))

    def test_constant_response_gives_constant_predictions(self, runner, tmp_path):
        data, errors, *_ = _write_estimation_inputs(tmp_path, constant_y=3.25)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--x-grid", "-1:1:5", "--t-grid", "-1:1:5",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = _read_rows(out / "predictions.csv")
        assert len(rows) == 25
        unflagged = [r for r in rows if r["flagged"] == "0"]
        assert unflagged
        assert all(abs(float(r["r_hat"]) - 3.25) < 1e-10 for r in unflagged)

    def test_degenerate_errors_match_reference_nw(self, runner, tmp_path):
        from oracles import bandlimited_kernel_closed_form

        data, errors, x, w, y = _write_estimation_inputs(tmp_path)
        out = tmp_path / "out"
        h = b = 0.5
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", str(h), "--b", str(b), "--x-grid", "-1:1:4", "--t-grid", "-1:1:4",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        xg = np.linspace(-1, 1, 4)
        tg = np.linspace(-1, 1, 4)
        kx = gaussian_kernel((xg[None, :] - x[:, None]) / h)
        lt = bandlimited_kernel_closed_form((tg[None, :] - w[:, None]) / b)
        oracle = ((kx * y[:, None]).T @ lt) / (kx.T @ lt)
        rows = _read_rows(out / "predictions.csv")
        for row in rows:
            if row["flagged"] == "1":
                continue
            i = list(xg).index(float(row["x"]))
            j = list(tg).index(float(row["t"]))
            assert abs(float(row["r_hat"]) - oracle[i, j]) < 1e-8

    def test_predictions_match_csv_writer_on_non_square_grid(self, runner, tmp_path):
        import hetdeconv as hd

        data, errors, x, w, y = _write_estimation_inputs(tmp_path)
        out = tmp_path / "out"
        # x far outside the data drives the density to zero: flagged rows
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--x-grid", "-1:40:3", "--t-grid", "-1:1:5",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        xg, tg = np.linspace(-1, 40, 3), np.linspace(-1, 1, 5)
        ens = hd.ErrorEnsemble(tuple(hd.ErrorModel("degenerate") for _ in x))
        sample = hd.Sample(x=x, w=w, y=y, ensemble=ens)
        est = hd.fit(sample, hd.Bandwidths(0.4, 0.4), hd.QuadratureGrid.gauss_legendre(128))
        values, flags, density = est.predict_grid(xg, tg)
        assert flags.any() and not flags.all()
        expected = _reference_csv(PREDICTIONS_COLUMNS, [
            (xg[i], tg[j], values[i, j], density[i, j], flags[i, j])
            for i in range(3) for j in range(5)
        ])
        assert (out / "predictions.csv").read_bytes() == expected
        rows = _read_rows(out / "predictions.csv")
        assert [(float(r["x"]), float(r["t"])) for r in rows] == [
            (xg[k // 5], tg[k % 5]) for k in range(15)
        ]

    @pytest.mark.parametrize("which,line", [
        ("data", "0.5,0.6"), ("data", "0.5,0.6,0.7,0.8"),
        ("errors", "degenerate"), ("errors", "degenerate,0,extra"),
    ])
    def test_row_with_wrong_field_count_exits_2(self, runner, tmp_path, which, line):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=4)
        path = data if which == "data" else errors
        lines = path.read_text().splitlines()
        lines[2] = line
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert f"{path} row 2:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("bad", ["directory", "field over the csv size limit"])
    def test_unreadable_table_exits_2(self, runner, tmp_path, bad):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=4)
        if bad == "directory":
            data = tmp_path
        else:
            data.write_text("x,w,y\n" + "1" * 200_000 + ",0,0\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert str(data) in result.output

    def test_blank_lines_are_skipped(self, runner, tmp_path):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=4)
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--x-grid", "-1:1:2", "--t-grid", "-1:1:2",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output

    def test_a_byte_order_mark_is_skipped(self, runner, tmp_path):
        # as a spreadsheet saves "CSV UTF-8"
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        _write_contaminated_errors(errors, 24)
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            for path in (data, errors):
                path.write_bytes(bom + path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
            out = tmp_path / f"out{len(bom)}"
            result = runner.invoke(main, [
                "estimate", "--data", str(data), "--errors", str(errors),
                "--h", "0.4", "--b", "0.4", "--x-grid", "-1:1:4", "--t-grid", "-1:1:3",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append((out / "predictions.csv").read_bytes())
        assert data.read_bytes().startswith(b"\xef\xbb\xbfx,w,y")
        assert outputs[1] == outputs[0]

    def test_row_count_mismatch_exits_2(self, runner, tmp_path):
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        lines = errors.read_text().splitlines()
        errors.write_text("\n".join(lines[:-3]) + "\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "mismatch" in result.output

    def test_missing_column_exits_2(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n1,2\n")
        errors = tmp_path / "errors.csv"
        errors.write_text("family,variance\ndegenerate,0\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "missing columns" in result.output

    @pytest.mark.parametrize("which,header,column", [
        ("data", "x,w,y,x", "x"), ("data", "y,x,w,y", "y"),
        ("errors", "family,variance,family", "family"),
        ("errors", "variance,family,variance", "variance"),
    ])
    def test_required_column_named_twice_exits_2(self, runner, tmp_path, which, header, column):
        # a repeated name would otherwise read whichever of its columns comes last
        tables = {"data": "x,w,y\n0.1,0.2,0.3\n0.4,0.5,0.6\n",
                  "errors": "family,variance\ndegenerate,0\ndegenerate,0\n"}
        tables[which] = header + "\n" + "".join(
            ",".join(["0"] * len(header.split(","))) + "\n" for _ in range(2))
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(tmp_path / "data.csv"),
            "--errors", str(tmp_path / "errors.csv"),
            "--h", "0.4", "--b", "0.4", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert f"{which}.csv: column '{column}' named more than once" in result.output
        assert not out.exists()

    def test_heteroscedastic_error_spec_accepted(self, runner, tmp_path):
        import hetdeconv as hd

        rng = np.random.default_rng(9)
        n = 30
        x = rng.uniform(-2, 2, n)
        w = rng.uniform(-2, 2, n)
        y = x + np.cos(w)
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "w", "y"])
            for row in zip(x, w, y):
                writer.writerow([repr(float(v)) for v in row])
        variances = 0.05 * (1.0 + np.arange(1, n + 1) / n)
        errors = tmp_path / "errors.csv"
        with open(errors, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "variance"])
            for i, s in enumerate(variances):
                writer.writerow(["normal" if i % 2 else "laplace", repr(float(s))])
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.3", "--b", "0.3", "--x-grid", "-1:1:4", "--t-grid", "-1:1:4",
            "--quad-nodes", "64", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output

        # cross-check one grid point against the in-process estimator
        fams = [hd.ErrorFamily.GAUSSIAN if i % 2 else hd.ErrorFamily.LAPLACE
                for i in range(n)]
        ens = hd.ErrorEnsemble(tuple(hd.ErrorModel(f, s) for f, s in zip(fams, variances)))
        sample = hd.Sample(x=x, w=w, y=y, ensemble=ens)
        est = hd.fit(sample, hd.Bandwidths(0.3, 0.3), hd.QuadratureGrid.gauss_legendre(64))
        rows = _read_rows(out / "predictions.csv")
        row = rows[5]
        values, flags, _ = est.predict_grid([float(row["x"])], [float(row["t"])])
        expected, flagged = values[0, 0], bool(flags[0, 0])
        assert (row["flagged"] == "1") == flagged
        if not flagged:
            assert float(row["r_hat"]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("option,value", [
        ("--h", "nan"), ("--h", "inf"), ("--b", "inf"), ("--x-grid", "-2:inf:3"),
        ("--h", "1e-320"), ("--b", "1e-320"), ("--x-grid", "-1e308:1e308:3"),
    ])
    def test_nonfinite_bandwidth_or_grid_exits_2(self, runner, tmp_path, option, value):
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        args = {"--h": "0.4", "--b": "0.4", "--x-grid": "-1:1:3", "--t-grid": "-1:1:3"}
        args[option] = value
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            *(item for pair in args.items() for item in pair), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert not (out / "predictions.csv").exists()

    def test_builds_the_kernel_matrices_once(self, runner, tmp_path, monkeypatch):
        # each observation's rows of kx and of the left factor are built
        # once, in one of the blocks (24 rows in 5 blocks of at most 5, over
        # both threads); the right factor is built once
        import hetdeconv.estimators as estimators

        built = {"normal_rows": [], "deconv_left": [], "deconv_right": [], "deconv_kernel_grid": []}
        rows = {"normal_rows": [], "deconv_left": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                built[name].append(len(result))      # list.append is atomic across threads
                if name in rows:     # the x_j of a block, or the slice of its rows
                    rows[name].append(args[1] if name == "normal_rows" else args[2])
                return result
            return wrapper

        for name in built:
            monkeypatch.setattr(estimators, name, counted(name, getattr(estimators, name)))
        monkeypatch.setattr(estimators, "GROUP_BUDGET", 2 * 128 * 5)     # R = 5 at M' = 128
        data, errors, x, *_ = _write_estimation_inputs(tmp_path)
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output
        assert sorted(built["normal_rows"]) == sorted(built["deconv_left"]) == [4, 5, 5, 5, 5]
        assert sorted(np.concatenate(rows["normal_rows"])) == sorted(x)
        assert sorted(i for block in rows["deconv_left"] for i in range(24)[block]) == \
            list(range(24))
        assert built["deconv_right"] == [2 * 64] and built["deconv_kernel_grid"] == []

    def test_a_failing_kernel_build_on_the_helper_exits_3_with_its_text(self, runner, tmp_path,
                                                                        monkeypatch):
        import hetdeconv.estimators as estimators

        left_fn = estimators.deconv_left

        def failing_left(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("lt build failed")
            return left_fn(*args, **kwargs)

        monkeypatch.setattr(estimators, "deconv_left", failing_left)
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        before = threading.active_count()
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 3, result.output
        assert "error: lt build failed" in result.output
        assert threading.active_count() == before

    def test_a_non_numeric_data_entry_exits_2(self, runner, tmp_path):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=5)
        lines = data.read_text().splitlines()
        lines[3] = "0.5,abc,1.0"
        data.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert (f"{data}: non-numeric entry (could not convert string to float: 'abc')"
                in result.output)

    def test_unknown_family_exits_2(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x,w,y\n1,0,2\n0,1,1\n")
        errors = tmp_path / "errors.csv"
        errors.write_text("family,variance\ncauchy,1\ncauchy,1\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert f"{errors} row 1: 'cauchy' is not a valid ErrorFamily" in result.output

    @pytest.mark.parametrize("row,message", [
        ("laplace,-0.5", "variance must be finite and >= 0, got -0.5"),
        ("gaussian,nan", "variance must be finite and >= 0, got nan"),
        ("degenerate,0.1", "the degenerate (no-error) law has variance 0"),
        ("laplace,abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_error_law_names_its_row(self, runner, tmp_path, row, message):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=5)
        lines = errors.read_text().splitlines()
        lines[4] = row
        errors.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert f"{errors} row 4: {message}" in result.output

    def test_first_bad_error_row_is_named(self, runner, tmp_path):
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=5)
        lines = errors.read_text().splitlines()
        lines[2], lines[4] = "cauchy,1", "laplace,-1"
        errors.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert f"{errors} row 2: 'cauchy' is not a valid ErrorFamily" in result.output

    def test_error_table_is_read_without_per_row_models(self, runner, tmp_path, monkeypatch):
        import hetdeconv.error_models as error_models

        built = []
        post_init = error_models.ErrorModel.__post_init__
        monkeypatch.setattr(error_models.ErrorModel, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        data, errors, *_ = _write_estimation_inputs(tmp_path, n=6)
        errors.write_text("family,variance\n" + "normal,0.1\nlaplace,0.2\ndegenerate,0\n" * 2)
        result = runner.invoke(main, [
            "estimate", "--data", str(data), "--errors", str(errors),
            "--h", "0.4", "--b", "0.4", "--x-grid", "-1:1:2", "--t-grid", "-1:1:2",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output
        assert built == []



EXTREMES = [1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308,
            -0.0, 0.0, 1e-300, 1e300]
FUZZ_FLOATS = st.one_of(st.floats(-3, 3), st.sampled_from(EXTREMES),
                        st.floats(allow_nan=False, allow_infinity=False))
# Each draw is mostly usable, so that many examples get past the checks to the fit.
LAWS = st.one_of(st.tuples(st.sampled_from(["gaussian", "laplace", "normal"]),
                           st.one_of(st.floats(0, 2), st.sampled_from(
                               [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e308]))),
                 st.just(("degenerate", 0.0)))
BANDWIDTHS = st.one_of(st.floats(0.05, 2), st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300,
                                                           1e308, 1.7976931348623157e308]),
                       st.floats(allow_nan=False, allow_infinity=False))
GRID_SPECS = st.one_of(
    st.builds(lambda lo, hi, count: f"{min(lo, hi)!r}:{max(lo, hi)!r}:{count}",
              st.floats(-3, 3), FUZZ_FLOATS, st.integers(1, 6)),
    st.builds(lambda lo, hi, count: f"{min(lo, hi)!r}:{max(lo, hi)!r}:{count}",
              FUZZ_FLOATS, FUZZ_FLOATS, st.integers(1, 6)),
    st.sampled_from(["0:0:1", "1:0:3", "-1e308:1e308:3", "nan:1:2", "inf:inf:2", "1:2",
                     "a:b:c", "0:1:0", "-0.0:-0.0:2", "-1e-320:1e-320:5"]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(FUZZ_FLOATS, FUZZ_FLOATS, FUZZ_FLOATS, LAWS),
                     min_size=2, max_size=6),
       odd_law=st.one_of(st.none(), st.none(), st.none(),
                         st.tuples(st.sampled_from(["gaussian", "degenerate", "cauchy"]),
                                   FUZZ_FLOATS)),
       h=BANDWIDTHS, b=BANDWIDTHS, x_grid=GRID_SPECS, t_grid=GRID_SPECS,
       quad_nodes=st.sampled_from([15, 16, 17, 33, 64]))
def test_estimate_fuzz_exits_cleanly(rows, odd_law, h, b, x_grid, t_grid, quad_nodes):
    """Extreme but finite inputs end in exit 0, 2 or 3, and exit 0 writes finite clean rows.

    Warnings are recorded rather than raised: ``estimate`` turns any
    exception of the fit into exit 3, which would hide a warning made an
    error.  n <= 6, grids <= 6 x 6 and quad_nodes <= 64 keep every array small.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tmp = Path(tmp)
        (tmp / "data.csv").write_text("x,w,y\n" + "".join(
            f"{x!r},{w!r},{y!r}\n" for x, w, y, _ in rows))
        laws = [law for *_, law in rows]
        laws[0] = laws[0] if odd_law is None else odd_law
        (tmp / "errors.csv").write_text("family,variance\n" + "".join(
            f"{family},{variance!r}\n" for family, variance in laws))
        result = CliRunner().invoke(main, [
            "estimate", "--data", str(tmp / "data.csv"), "--errors", str(tmp / "errors.csv"),
            "--h", repr(h), "--b", repr(b), f"--x-grid={x_grid}", f"--t-grid={t_grid}",
            "--quad-nodes", str(quad_nodes), "--out", str(tmp / "out")])
        assert result.exit_code in (0, 2, 3), (result.output, result.exc_info)
        assert "Traceback" not in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]
        if result.exit_code == 0:
            predictions = _read_rows(tmp / "out" / "predictions.csv")
            clean = [r for r in predictions if r["flagged"] == "0"]
            assert all(np.isfinite(float(r["r_hat"])) and np.isfinite(float(r["f_hat"]))
                       for r in clean), result.output
        else:
            assert result.output.startswith("error: "), result.output


class TestCrossSection:
    def test_fix_x_truth_column(self, runner, tmp_path):
        cfg = _write_config(tmp_path, n=80, reps=1)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "x", "--value", "1.0",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = _read_rows(out / "cross_section.csv")
        assert len(rows) == 200
        coords = np.array([float(r["coord"]) for r in rows])
        truth = np.array([float(r["truth"]) for r in rows])
        peak = np.argmax(truth)
        assert abs(coords[peak]) < 0.02
        assert truth[peak] == pytest.approx(1.0, abs=1e-3)
        assert np.allclose(truth, np.exp(-0.5 * coords**2))

    def test_model2_partial_linear_slope(self, runner, tmp_path):
        from hetdeconv import (
            ErrorFamily, Model, build_ensemble, generate, linear_slope, replication_rng,
        )

        cfg = _write_config(tmp_path, model="model2", n=60, reps=1)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "t", "--value", "1.0",
            "--estimator", "partial-linear", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = [r for r in _read_rows(out / "cross_section.csv") if r["flagged"] == "0"]
        coords = np.array([float(r["coord"]) for r in rows])
        estimates = np.array([float(r["estimate"]) for r in rows])
        fitted_slope = np.polyfit(coords, estimates, 1)[0]
        data = generate(Model.MODEL2, 60, build_ensemble(ErrorFamily.LAPLACE, 60),
                        replication_rng(11, 1))
        assert fitted_slope == pytest.approx(linear_slope(data.sample), rel=1e-9)

    def test_rerun_byte_identical(self, runner, tmp_path):
        cfg = _write_config(tmp_path, n=50, reps=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(main, [
                "cross-section", "--config", str(cfg), "--axis", "x", "--value", "0.5",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
        assert (out1 / "cross_section.csv").read_bytes() == (out2 / "cross_section.csv").read_bytes()

    def test_naive_estimator_section(self, runner, tmp_path):
        cfg = _write_config(tmp_path, n=60, reps=1)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "x", "--value", "0.5",
            "--estimator", "naive", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["estimator"] == "naive"
        assert manifest["selected_bandwidths"]["h"] is not None
        rows = _read_rows(out / "cross_section.csv")
        assert len(rows) == 200

    @pytest.mark.parametrize("estimator", ["deconv", "partial-linear"])
    def test_one_cf_tabulation_per_distinct_b(self, runner, tmp_path, monkeypatch, estimator):
        # the section at the selected b reuses the run's weights
        from hetdeconv import ErrorEnsemble

        calls = []
        cf_matrix = ErrorEnsemble.cf_matrix
        monkeypatch.setattr(ErrorEnsemble, "cf_matrix",
                            lambda self, v: calls.append(v) or cf_matrix(self, v))
        grid = {"h": {"start": 0.1, "stop": 0.2, "count": 2},
                "b": {"start": 0.1, "stop": 0.3, "count": 3}}
        cfg = _write_config(tmp_path, model="model2", n=60, reps=1, bandwidth_grid=grid)
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "x", "--value", "0.5",
            "--estimator", estimator, "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 3

    def test_value_outside_support_exits_2(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "x", "--value", "3.0",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2

    def test_partial_linear_requires_model2(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, [
            "cross-section", "--config", str(cfg), "--axis", "x", "--value", "1.0",
            "--estimator", "partial-linear", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2


class TestMalformedConfig:
    """A config value of the wrong type or a fractional count exits 2 with a message."""

    COMMANDS = {
        "simulate": ["--workers", "1"],
        "validate": [],
        "cross-section": ["--axis", "x", "--value", "0.5"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("override", [
        "bandwidth_grid=5",
        "eval_grid=[1,2]",
        'schema_version="x"',
        'eval_grid.x.count="a"',
        "bandwidth_grid.b.count=a",
        "n=2.9",
        "reps=1.5",
        "quad_nodes=32.5",
        "eval_grid.t.count=8.5",
    ])
    def test_exits_2(self, runner, tmp_path, command, override):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        args = [command, "--config", str(cfg), "--set", override, *self.COMMANDS[command]]
        if command != "validate":
            args += ["--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)       # no traceback
        assert result.output.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("override", [(["--set", "n=5"], {}), ([], {"HETDECONV_SEED": "3"})],
                             ids=["set", "seed-env"])
    @pytest.mark.parametrize("raw", [[1, 2], "model1"], ids=["array", "string"])
    def test_non_object_config_exits_2_before_overrides(self, runner, tmp_path, command,
                                                        override, raw):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        extra, env = override
        args = [command, "--config", str(cfg), *extra, *self.COMMANDS[command]]
        if command != "validate":
            args += ["--out", str(tmp_path / "out")]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)       # no traceback
        assert result.output == f"error: config must be a JSON object, got {type(raw).__name__}\n"
        assert list(tmp_path.iterdir()) == [cfg]


class TestValidate:
    def test_gaussian_grid_passes(self, runner, tmp_path):
        cfg = _write_config(tmp_path, error_family="normal")
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "pass" in result.output
        assert "variance_bound=" in result.output

    def test_underflowing_gaussian_fails_with_nodes(self, runner, tmp_path):
        # b = 0.003 drives the scaled frequencies far into the Gaussian tail:
        # every |cf|^2 underflows and the shared denominator hits the floor
        cfg = _write_config(tmp_path, error_family="normal",
                            bandwidth_grid={"pairs": [[0.1, 0.003], [0.1, 0.2]]})
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "failing nodes" in result.output

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e-308])
    def test_nonfinite_bandwidth_pair_exits_2(self, runner, tmp_path, bad):
        # 1e-308 * 0.1 is below the smallest normal double
        cfg = _write_config(tmp_path, bandwidth_grid={"pairs": [[bad, 0.1], [0.1, 0.2]]})
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "variance_bound" not in result.output

    @pytest.mark.parametrize("c_sup", ["nan", "inf", "-1"])
    def test_nonfinite_or_negative_c_sup_exits_2(self, runner, tmp_path, c_sup):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, ["validate", "--config", str(cfg), "--c-sup", c_sup])
        assert result.exit_code == 2, result.output
        assert "--c-sup must be finite and positive" in result.output
        assert "variance_bound" not in result.output

    def test_tabulates_each_cf_once_per_distinct_b(self, runner, tmp_path, monkeypatch):
        from hetdeconv import ErrorEnsemble

        calls = []
        cf_matrix = ErrorEnsemble.cf_matrix

        def counted(self, v):
            calls.append(v)
            return cf_matrix(self, v)

        monkeypatch.setattr(ErrorEnsemble, "cf_matrix", counted)
        pairs = [[h, b] for b in (0.1, 0.2) for h in (0.1, 0.15, 0.2)]
        cfg = _write_config(tmp_path, error_family="normal", bandwidth_grid={"pairs": pairs})
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert result.output.count("variance_bound=") == 6
        assert len(calls) <= 2

    def test_doubling_h_halves_diagnostic(self, runner, tmp_path):
        cfg = _write_config(tmp_path, error_family="normal",
                            bandwidth_grid={"pairs": [[0.1, 0.1], [0.2, 0.1]]})
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 0
        bounds = {}
        for line in result.output.splitlines():
            if line.startswith("h="):
                head, tail = line.split(":", 1)
                h = float(head.split()[0].split("=")[1])
                bounds[h] = float(tail.rsplit("variance_bound=", 1)[1])
        assert bounds[0.1] == pytest.approx(2.0 * bounds[0.2], rel=1e-12)


def test_importing_the_cli_loads_no_process_machinery():
    # multiprocessing is imported only by a run that starts child processes
    probe = ("import sys, hetdeconv.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_csv_of_many_blocks_loads_no_executor(tmp_path):
    # the writer formats on the calling thread: 4 blocks load no concurrent.futures
    probe = ("import sys, numpy as np; from hetdeconv import cli; cli.CSV_BLOCK_ROWS = 4; "
             f"cli._write_csv({str(tmp_path / 't.csv')!r}, ('a',), (np.arange(13.0),)); "
             "print('concurrent.futures' in sys.modules, hasattr(cli, 'ThreadPoolExecutor'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_estimate_runs_one_worker_and_joins_it(runner, tmp_path, monkeypatch):
    # predict_grid's helper is the only thread; the CSV writer formats its
    # 4 blocks on the calling thread
    started, callers = [], []

    class CountedThread(threading.Thread):
        def start(self):
            frame = sys._getframe()
            while frame.f_code.co_name != "predict_grid" and frame.f_back is not None:
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)     # 25 rows in 4 blocks
    data, errors, *_ = _write_estimation_inputs(tmp_path)
    result = runner.invoke(main, ["estimate", "--data", str(data), "--errors", str(errors),
                                  "--h", "0.4", "--b", "0.4", "--x-grid", "-1:1:5",
                                  "--t-grid", "-1:1:5", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert callers == ["predict_grid"] and not started[0].is_alive()


@pytest.mark.parametrize("args", [
    ["simulate", "--workers", "1"],
    ["cross-section", "--axis", "x", "--value", "0.5"],
    ["cross-section", "--axis", "t", "--value", "0.5", "--estimator", "partial-linear"],
], ids=["simulate", "cross-section-deconv", "cross-section-partial-linear"])
def test_simulate_and_cross_section_start_no_thread(runner, tmp_path, monkeypatch, args):
    # the helper thread of predict_grid serves estimate alone; --workers stays
    # the CPU budget of a simulate run
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    cfg = _write_config(tmp_path, model="model2", n=60, reps=2)
    result = runner.invoke(main, [args[0], "--config", str(cfg), *args[1:],
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert started == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["simulate", "--workers", "1"],
    ["validate"],
    ["cross-section", "--axis", "x", "--value", "0.5", "--estimator", "naive"],
    ["cross-section", "--axis", "t", "--value", "0.5"],
], ids=["simulate", "validate", "cross-section-naive", "cross-section-deconv"])
def test_an_underflowing_bandwidth_product_exits_2(runner, tmp_path, args):
    # 1e-300 * 1e-30 rounds to 0; the ridge floor and the scale divide by it
    cfg = _write_config(tmp_path, bandwidth_grid={"pairs": [[1e-300, 1e-30], [0.1, 0.2]]})
    out = tmp_path / "out"
    result = runner.invoke(main, [args[0], "--config", str(cfg), *args[1:],
                                  *(["--out", str(out)] if args[0] != "validate" else [])])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: bandwidth_grid.pairs: bandwidth product h*b")
    assert "Traceback" not in result.output and "variance_bound" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_too_many_quad_nodes_exit_2_before_leggauss_allocates(runner, tmp_path, monkeypatch,
                                                              command):
    # leggauss(m) forms an m x m companion matrix: 20 GB at m = 50000
    calls = []
    monkeypatch.setattr(kernels, "leggauss", lambda m: calls.append(m))
    too_many = kernels.MAX_QUAD_NODES + 1
    if command == "estimate":
        data, errors, *_ = _write_estimation_inputs(tmp_path)
        args = ["--data", str(data), "--errors", str(errors), "--h", "0.4", "--b", "0.4",
                "--quad-nodes", str(too_many)]
        message = f"error: --quad-nodes must be in [16, {kernels.MAX_QUAD_NODES}]"
    else:
        args = ["--config", str(_write_config(tmp_path)), "--set", f"quad_nodes={too_many}"]
        message = f"error: quad_nodes must be in [16, {kernels.MAX_QUAD_NODES}]"
    result = runner.invoke(main, [command, *args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(message)
    assert calls == []
