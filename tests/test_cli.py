"""Command line: config validation, artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavedens
from wavedens.cli import (METHODS, ConfigError, ExperimentConfig, load_config, main,
                          make_fit)
from wavedens.processes import ProcessSpec, build_target, derived_seed, simulate
from wavedens.risk_metrics import covariance_decay
from wavedens.wavelet_basis import build_filter, cascade_tables

DATA = Path(__file__).parent / "data"

MINIMAL = {"experiment": "unit", "cases": [{"case": "iid"}]}

# a config that sets most fields; its theoretical schedule is degenerate at n = 256
PINNED = dict(experiment="pinned",
              cases=[{"case": "lsv", "lsv_alpha": 0.3},
                     {"case": "noncausal_ar", "target": "gaussian_mixture",
                      "target_params": {"means": [0.3, 0.7], "sds": [0.1, 0.1],
                                        "weights": [0.5, 0.5]}}],
              methods=["STCV", "theoretical-hard"], n=[256, 1024], M=20, p=[1, 2],
              moments=[2], seed=7, wavelet={"family": "daubechies", "N": 4},
              decay={"j": 3, "max_lag": 40}, K=0.5, b=2)


_COUNTER = itertools.count()


def write_config(tmp_path, **overrides):
    cfg = dict(MINIMAL)
    cfg.update(overrides)
    path = tmp_path / f"config{next(_COUNTER)}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def tiny_config(tmp_path, **overrides):
    """A config small enough that commands run in well under a second."""
    base = dict(
        experiment="unit",
        cases=[{"case": "iid"}],
        methods=["STCV"],
        n=[64],
        M=2,
        seed=11,
        out=str(tmp_path / "runs"),
        grid_points=128,
        wavelet={"family": "daubechies", "N": 1, "depth": 8},
    )
    base.update(overrides)
    return write_config(tmp_path, **base)


def _dir_bytes(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.methods == ("HTCV", "STCV")
        assert cfg.n == (1024,) and cfg.M == 100
        assert cfg.seed == 20260814 and cfg.threads == 1
        assert cfg.wavelet == {"family": "symmlet", "N": 8, "depth": 10}

    def test_overrides_beat_file_values(self, tmp_path):
        path = write_config(tmp_path, seed=5, out="a", threads=2)
        cfg = load_config(path, seed=9, out="b")
        assert (cfg.seed, cfg.out, cfg.threads) == (9, "b", 2)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(write_config(tmp_path, replicates=5))

    def test_unknown_case_key_and_target(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown case keys"):
            load_config(write_config(tmp_path, cases=[{"case": "iid", "alpha": 1}]))
        with pytest.raises(ConfigError, match="unknown target"):
            load_config(write_config(tmp_path, cases=[{"case": "iid",
                                                       "target": "pareto"}]))
        with pytest.raises(ConfigError, match="'case' key"):
            load_config(write_config(tmp_path, cases=[{"target": "gaussian_mixture"}]))

    # explicit ids, so adding or deleting a case renames no other test
    @pytest.mark.parametrize("field,value,hint", [
        pytest.param("methods", ["DTCV"], "unknown method", id="methods-value0-unknown method"),
        pytest.param("n", [4], "n values", id="n-value1-n values"),
        pytest.param("M", 0, "M must be", id="M-0-M must be"),
        pytest.param("p", [0.5], "p values", id="p-value3-p values"),
        pytest.param("moments", [0], "moment orders", id="moments-value4-moment orders"),
        pytest.param("grid_points", 32, "grid_points", id="grid_points-32-grid_points"),
        pytest.param("threads", 0, "threads", id="threads-0-threads"),
        pytest.param("wavelet", {"order": 3}, "unknown wavelet keys",
                     id="wavelet-value7-unknown wavelet keys"),
        pytest.param("cases", [], "at least one case", id="cases-value8-at least one case"),
        pytest.param("experiment", "", "experiment id", id="experiment--experiment id"),
        pytest.param("wavelet", {"family": "coiflet"}, "unsupported filter",
                     id="wavelet-value10-unsupported filter"),
        pytest.param("wavelet", {"N": 30}, "unsupported filter",
                     id="wavelet-value11-unsupported filter"),
        pytest.param("wavelet", {"depth": 2}, "depth must be", id="wavelet-value12-depth must be"),
        pytest.param("decay", {"j": 2, "lags": 10}, "unknown decay keys",
                     id="decay-value13-unknown decay keys"),
        pytest.param("cases", [{"case": "foo"}], "unknown case 'foo'",
                     id="cases-value14-unknown case 'foo'"),
        pytest.param("cases", [{"case": "lsv", "lsv_alpha": 2}], "lsv_alpha in",
                     id="cases-value15-lsv_alpha in"),
        # the moving average is summed in closed form, so no sweep count is read
        pytest.param("cases", [{"case": "noncausal_ar", "ar_depth": 50}], "unknown case keys",
                     id="cases-value16-unknown case keys"),
        # lsv has no known density, so a target in its block is refused
        pytest.param("cases", [{"case": "lsv", "target": "pareto"}], "unknown case keys",
                     id="cases-value17-unknown case keys"),
        pytest.param("wavelet", {"N": 8.0}, "wavelet.N must be int",
                     id="wavelet-value18-wavelet.N must be int"),
        pytest.param("wavelet", {"depth": "10"}, "wavelet.depth must be int",
                     id="wavelet-value19-wavelet.depth must be int"),
        pytest.param("decay", {"j": "x"}, "decay.j is invalid",
                     id="decay-value20-decay.j is invalid"),
        pytest.param("decay", {"n": 64, "max_lag": 17}, "decay.max_lag is invalid",
                     id="decay-value21-decay.max_lag is invalid"),
        # an lsv block's own lsv_alpha sets its regime; a sweep is written as blocks
        pytest.param("decay", {"alphas": [0.5]}, "unknown decay keys",
                     id="decay-value22-unknown decay keys"),
        pytest.param("K", 0.0, "K must be positive", id="K-0.0-K must be positive"),
        pytest.param("K", float("inf"), "K must be positive", id="K-inf-K must be positive"),
        pytest.param("b", -1.0, "b must be positive", id="b--1.0-b must be positive"),
        pytest.param("b", float("nan"), "b must be positive", id="b-nan-b must be positive"),
        # a value of the wrong JSON type is refused, never rounded or converted
        pytest.param("M", 2.9, "M must be int", id="M-2.9-M must be int"),
        pytest.param("M", True, "M must be int", id="M-True-M must be int"),
        pytest.param("n", [1024.7], r"n\[0\] must be int", id="n-value29-n\\[0\\] must be int"),
        pytest.param("seed", "5", "seed must be int", id="seed-5-seed must be int"),
        pytest.param("K", "2", "K must be float", id="K-2-K must be float"),
        pytest.param("b", True, "b must be float", id="b-True-b must be float"),
        pytest.param("out", 5, "out must be str", id="out-5-out must be str"),
        pytest.param("wavelet", [["N", 4]], "wavelet must be dict",
                     id="wavelet-value34-wavelet must be dict"),
        # each method's reports are keyed by its name, so a repeat is refused
        pytest.param("methods", ["HTCV", "STCV", "HTCV"], "methods must not repeat",
                     id="methods-value35-methods must not repeat"),
        # a run with no method would simulate every replicate and report nothing
        pytest.param("methods", [], "methods must list", id="methods-empty-methods must list"),
        # a key the case does not read is refused
        pytest.param("cases", [{"case": "iid", "lsv_alpha": 7}], "unknown case keys",
                     id="cases-value38-unknown case keys"),
        pytest.param("cases", [{"case": "lsv", "ar_depth": 50}], "unknown case keys",
                     id="cases-value39-unknown case keys"),
        # json reads Infinity and NaN, which no norm takes
        pytest.param("p", [float("inf")], "p values must be >= 1 and finite",
                     id="p-value40-p values must be >= 1 and finite"),
        pytest.param("p", [float("nan")], "p values must be >= 1 and finite",
                     id="p-value41-p values must be >= 1 and finite"),
        # each n, p and moment order names its own files, columns or counts
        pytest.param("n", [64, 64], "n must not repeat", id="n-value42-n must not repeat"),
        pytest.param("p", [2, 2.0], "p must not repeat", id="p-value43-p must not repeat"),
        # lp_{p:g} keeps 6 significant digits, so these would name one column twice
        pytest.param("p", [1.0000001, 1.0000002], "p values must differ",
                     id="p-labels-p values must differ"),
        pytest.param("moments", [3, 3], "moments must not repeat",
                     id="moments-value44-moments must not repeat"),
        # the probe translate is an integer and the decay sample needs n >= 8
        pytest.param("decay", {"k": 1.5}, "decay.k is invalid",
                     id="decay-value45-decay.k is invalid"),
        pytest.param("decay", {"n": 4}, "decay.n is invalid",
                     id="decay-value46-decay.n is invalid"),
        # the case name keys the per-case key check, so it must be a string
        pytest.param("cases", [{"case": ["iid"]}], "str 'case' key",
                     id="cases-value47-str 'case' key"),
        # a list field given one value is refused, never wrapped
        pytest.param("methods", "HTCV", "methods must be list",
                     id="methods-scalar-methods must be list"),
    ])
    def test_field_validation(self, tmp_path, field, value, hint):
        out = tmp_path / "runs"
        path = write_config(tmp_path, **{"out": str(out), field: value})
        with pytest.raises(ConfigError, match=hint):
            load_config(path)
        for command in ("simulate", "benchmark", "diagnose-decay"):
            assert main(["--config", path, command]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("overrides,hint", [
        (dict(methods=["STCV", "theoretical-hard"]), r"n=64, b=1\.0, K=1\.0: degenerate"),
        (dict(methods=["theoretical-soft"], n=[64, 4096], b=100.0, K=0.5),
         r"n=64, b=100\.0, K=0\.5: degenerate"),
        (PINNED, r"n=256, b=2\.0, K=0\.5: degenerate"),
    ])
    def test_degenerate_schedule_exits_before_output(self, tmp_path, capsys,
                                                     overrides, hint):
        """The theoretical schedule is a function of (n, N, b, K), so
        load_config refuses a degenerate one, and every config command stops
        before it writes or fits anything."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, out=str(out), **overrides)
        with pytest.raises(ConfigError, match=hint):
            load_config(path)
        for command in ("simulate", "benchmark", "diagnose-decay"):
            assert main(["--config", path, command]) == 2
            assert re.search(hint, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("block,hint", [
        ({"case": "iid", "target_params": {"sd": 0.1}}, "sine_uniform_mixture params"),
        ({"case": "logistic_map", "target": "gaussian_mixture",
          "target_params": {"mean": [0.5]}}, "gaussian_mixture params"),
        ({"case": "iid", "target": "gaussian_mixture",
          "target_params": {"sds": [0.1, -0.2]}}, "normalizable"),
        ({"case": "noncausal_ar", "target": "gaussian_mixture",
          "target_params": {"means": [0.5], "sds": [0.1], "weights": [1, 1, 1]}},
         "differ in length"),
        ({"case": "iid", "target": "gaussian_mixture",
          "target_params": {"sds": [0.1, 0.0009]}}, "sds must be at least"),
    ])
    def test_target_params_checked(self, tmp_path, block, hint):
        path = write_config(tmp_path, cases=[block])
        with pytest.raises(ConfigError, match=hint):
            load_config(path)
        assert main(["--config", path, "simulate"]) == 2

    def test_comparison_config_loads(self):
        """The checked-in wavelet-against-kernel comparison config."""
        cfg = load_config(str(Path(__file__).parents[1] / "configs" / "comparison.json"))
        assert [b["case"] for b in cfg.cases] == ["iid", "logistic_map", "noncausal_ar"]
        assert all("target" not in b for b in cfg.cases)
        assert cfg.methods == ("HTCV", "STCV", "kernel-rot", "kernel-cv")
        assert (cfg.n, cfg.M, cfg.p) == ((1024, 4096, 16384, 65536), 100, (1.0, 2.0))
        assert cfg.seed == ExperimentConfig.seed

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        """The benchmark writes its own configs, "threads" included; the schema
        must accept every one of them."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        for name, workload in workloads.WORKLOADS.items():
            raw = workload.config(workloads.REFERENCE_SEED, tmp_path / name)
            cfg = load_config(write_config(tmp_path, **raw))
            assert (cfg.experiment, cfg.threads) == (raw["experiment"], raw["threads"])

    def test_benchmark_layer_contract(self, monkeypatch, tmp_path):
        """The benchmark's traced run patches wavedens names and its probe
        times each layer on its own; both must keep working on small input."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        probe = importlib.import_module("probe")
        tracer = importlib.import_module("tracer").Tracer()
        originals = {attr: getattr(wavedens.cli, attr)
                     for attr in ("fit_cv", "empirical_coefficients", "kernel_estimate",
                                  "make_fit")}
        workloads.install_layer_spans(tracer)
        tracer.restore()
        assert all(getattr(wavedens.cli, a) is f for a, f in originals.items())
        tables = workloads.make_tables()
        sample = simulate(workloads.process_spec("iid", 256, seed=1))
        out = {**probe._cv_layers(sample, tables, build_target(workloads.TARGET), 256),
               **probe._adapter(sample, tables)}
        assert out and all(math.isfinite(v) for v in out.values())
        cfg = load_config(write_config(tmp_path, cases=[{"case": "lsv", "lsv_alpha": 0.5}]))
        assert (cfg.process_spec(cfg.cases[0], 256)
                == workloads.process_spec("lsv", 256, seed=cfg.seed))

    @pytest.mark.parametrize("method", METHODS)
    def test_bound_fits_call_the_names_patched_in_cli(self, monkeypatch, sym8_tables,
                                                       sine_target, method):
        """The traced benchmark run patches fit_cv, empirical_coefficients and
        kernel_estimate in wavedens.cli; a fit bound before the patch must call
        the patched name, once."""
        fit = make_fit(method, sym8_tables, 256, b=100.0)
        calls = []
        for name in ("fit_cv", "empirical_coefficients", "kernel_estimate"):
            def counted(*args, _name=name, _original=getattr(wavedens.cli, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(wavedens.cli, name, counted)
        fit(simulate(ProcessSpec("iid", 512, seed=3, target=sine_target)))
        want = ("fit_cv" if method.endswith("CV") else "empirical_coefficients"
                if method.startswith("theoretical") else "kernel_estimate")
        assert calls == [want]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("overrides,digest", [
        ({}, "26b48c1a6a4add7d8660058bbcec873a2e6adb85373e8aa8b7c50260402afea6"),
        ({**PINNED, "n": [16384, 65536], "b": 100},  # schedules j0..j1 = 2..4, 3..5
         "5fab4f6e663e68b412872587c9128fbb4ee9a871f61c5d0decc4c81d07c5c82d"),
    ])
    def test_hash_is_pinned(self, tmp_path, overrides, digest):
        """Validating a config must not change what it hashes to (cases and
        decay are hashed as given, wavelet with its defaults filled in)."""
        assert load_config(write_config(tmp_path, **overrides)).sha256() == digest

    def test_readme_table_lists_every_field_with_its_default(self):
        """README's config table names exactly the ExperimentConfig fields, and
        each backticked default reads (as JSON) as the field's default."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text.split("### Config schema", 1)[1].split("| key | default | meaning |\n", 1)[1]
        rows = [line.split(" | ") for line in
                itertools.takewhile(lambda line: line.startswith("| "), table.splitlines()[1:])]
        defaults = {row[0].strip("| `"): row[1] for row in rows}
        config_fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        assert list(defaults) == list(config_fields)
        for name, cell in defaults.items():
            f = config_fields[name]
            if cell == "(required)":
                assert f.default is f.default_factory is dataclasses.MISSING, name
                continue
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert cell.startswith("`") and cell.endswith("`"), name
            assert (json.dumps(json.loads(cell[1:-1]), sort_keys=True)
                    == json.dumps(default, sort_keys=True)), name

    def test_hash_ignores_out_and_threads(self, tmp_path):
        a = load_config(write_config(tmp_path, threads=1), out="x")
        b = load_config(write_config(tmp_path, threads=8), out="y")
        assert a.sha256() == b.sha256()
        c = load_config(write_config(tmp_path), seed=99)
        assert c.sha256() != a.sha256()


class TestExitCodes:
    def test_help_returns_0(self, capsys):
        """click returns --help's exit code instead of raising, since main
        runs it with standalone_mode=False."""
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("Usage: ")

    def test_missing_config_flag(self):
        assert main(["simulate"]) == 2

    def test_interrupt_maps_to_3(self, tmp_path, monkeypatch, capsys):
        """click turns a KeyboardInterrupt inside a command into click.Abort,
        which main maps to 3 without an error line."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr("wavedens.cli.load_config", interrupted)
        assert main(["--config", write_config(tmp_path), "simulate"]) == 3
        assert "error:" not in capsys.readouterr().err

    def test_config_error_maps_to_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[]")
        assert main(["--config", str(path), "simulate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_method_in_config(self, tmp_path):
        path = tiny_config(tmp_path, methods=["oracle"])
        assert main(["--config", path, "benchmark"]) == 2

    def test_unknown_method_flag(self, tmp_path):
        sample = tmp_path / "s.csv"
        sample.write_text("x\n0.5\n0.6\n")
        code = main(["--out", str(tmp_path), "fit", "--sample", str(sample),
                     "--method", "oracle"])
        assert code == 2

    def test_theoretical_fit_requires_K(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("x\n0.5\n0.6\n")
        code = main(["--out", str(tmp_path), "fit", "--sample", str(sample),
                     "--method", "theoretical-hard"])
        assert code == 2
        assert "--K" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("fit", "--N", "30"), ("fit", "--depth", "2"), ("fit", "--grid-points", "10"),
        ("tables", "--N", "30"), ("tables", "--depth", "2"),
    ])
    def test_bad_wavelet_flags_map_to_2(self, tmp_path, command, flag, value):
        sample = tmp_path / "s.csv"
        sample.write_text("x\n" + "\n".join(str(v / 100) for v in range(1, 100)) + "\n")
        out = tmp_path / "out"
        args = ["--sample", str(sample), "--method", "STCV"] if command == "fit" else []
        assert main(["--out", str(out), command, *args, flag, value]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lo,hi", [("0", "nan"), ("1", "0"), ("0", "0")])
    def test_bad_support_maps_to_2(self, tmp_path, capsys, lo, hi):
        sample = tmp_path / "s.csv"
        sample.write_text("x\n0.5\n0.6\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "fit", "--sample", str(sample),
                     "--method", "kernel-rot", "--support", lo, hi]) == 2
        assert "--support" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--K", "0"), ("--K", "nan"), ("--b", "-1"),
                                            ("--b", "inf")])
    def test_bad_theoretical_constant_maps_to_2(self, tmp_path, capsys, flag, value):
        """A bad K or b is refused before the output directory exists; before,
        --K nan fitted and wrote an estimate, and --K 0 exited 3."""
        sample = tmp_path / "s.csv"
        sample.write_text("x\n0.5\n0.6\n")
        out = tmp_path / "out"
        args = {"--K": "1.0", "--b": "1.0", flag: value}
        assert main(["--out", str(out), "fit", "--sample", str(sample),
                     "--method", "theoretical-soft", *itertools.chain(*args.items())]) == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_sample_file(self, tmp_path):
        code = main(["--out", str(tmp_path), "fit", "--sample",
                     str(tmp_path / "nope.csv"), "--method", "STCV"])
        assert code == 2

    def test_malformed_sample_maps_to_3(self, tmp_path, capsys):
        sample = tmp_path / "bad.csv"
        sample.write_text("x\n0.5\nbanana\n0.7\n")
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit", "--sample", str(sample),
                     "--method", "kernel-rot"])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv:3" in err and "banana" in err
        assert not out.exists()

    def test_empty_sample_maps_to_3(self, tmp_path, capsys):
        """A file with the header alone holds no sample, so nothing is fitted."""
        sample = tmp_path / "empty.csv"
        sample.write_text("x\n\n")
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit", "--sample", str(sample),
                     "--method", "kernel-rot"])
        assert code == 3
        assert "no sample values found" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_schedule_maps_to_3(self, tmp_path, capsys):
        """The theoretical schedule needs large n; at n = 20 it must refuse
        rather than fit something."""
        sample = tmp_path / "s.csv"
        sample.write_text("x\n" + "\n".join(f"0.{i:02d}" for i in range(5, 95, 4)) + "\n")
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit", "--sample", str(sample),
                     "--method", "theoretical-hard", "--K", "1.0"])
        assert code == 3
        assert "degenerate schedule" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only; the program must run without it."""
    env = {**os.environ, "PYTHONPATH": str(Path(wavedens.__file__).resolve().parents[1])}
    code = ("import sys, wavedens.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["wavelet_basis", "estimator", "cross_validation",
                                    "processes", "baseline_kernel", "risk_metrics"])
def test_package_exports_each_module_all(module):
    """The package re-exports every name its modules declare public, as the
    same objects, so each module's __all__ is the one list of its names."""
    mod = importlib.import_module(f"wavedens.{module}")
    for name in mod.__all__:
        assert getattr(wavedens, name, None) is getattr(mod, name), name


def test_module_entry_point_runs_without_warnings():
    """python -m wavedens.cli: the package root does not import cli, so runpy
    executes the module once and has nothing to warn about."""
    env = {**os.environ, "PYTHONPATH": str(Path(wavedens.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "wavedens.cli",
                           "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


class TestSimulateCommand:
    def test_writes_expected_files_and_seeds(self, tmp_path):
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, M=3, n=[16],
                           cases=[{"case": "iid"}, {"case": "lsv",
                                                    "lsv_alpha": 0.5}])
        assert main(["--config", path, "simulate"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["iid_n16_r000.csv", "iid_n16_r001.csv",
                         "iid_n16_r002.csv", "lsv_n16_r000.csv",
                         "lsv_n16_r001.csv", "lsv_n16_r002.csv",
                         "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert sorted(manifest["outputs"]) == names[:-1]
        for r in range(3):
            assert manifest["seeds"][f"iid_n16_r{r:03d}.csv"] == derived_seed(11, r)
        body = (out / "iid_n16_r000.csv").read_text().splitlines()
        assert body[0] == "x" and len(body) == 17
        assert all(0.0 <= float(v) <= 1.0 for v in body[1:])

    def test_reruns_are_byte_identical(self, tmp_path):
        path_a = tiny_config(tmp_path, out=str(tmp_path / "a"), M=2, n=[16])
        path_b = tiny_config(tmp_path, out=str(tmp_path / "b"), M=2, n=[16])
        assert main(["--config", path_a, "simulate"]) == 0
        assert main(["--config", path_b, "simulate"]) == 0
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_duplicate_case_blocks_get_labels(self, tmp_path):
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, M=1, n=[16], cases=[
            {"case": "iid"},
            {"case": "iid", "target": "gaussian_mixture"},
        ])
        assert main(["--config", path, "simulate"]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"iid0_n16_r000.csv", "iid1_n16_r000.csv"} <= names


class TestFitCommand:
    def test_cv_fit_matches_golden_bytes(self, tmp_path):
        """Frozen sample in, frozen estimate and selection out. Catches any
        drift in the numerics or in the serialization format."""
        sample = DATA / "fixture_sample.csv"
        code = main(["--out", str(tmp_path), "fit", "--sample", str(sample),
                     "--method", "STCV", "--family", "daubechies", "--N", "1",
                     "--depth", "8", "--grid-points", "128"])
        assert code == 0
        for name in ("fixture_sample_STCV_estimate.csv",
                     "fixture_sample_STCV_selection.json"):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()

    def test_kernel_fit_writes_only_estimate(self, tmp_path):
        sample = DATA / "fixture_sample.csv"
        code = main(["--out", str(tmp_path), "fit", "--sample", str(sample),
                     "--method", "kernel-rot", "--grid-points", "64"])
        assert code == 0
        assert (tmp_path / "fixture_sample_kernel-rot_estimate.csv").exists()
        assert not list(tmp_path.glob("*selection*"))
        header = (tmp_path / "fixture_sample_kernel-rot_estimate.csv").read_text()
        assert header.splitlines()[0] == "x,density"

    def test_theoretical_fit_on_large_sample(self, tmp_path):
        cfg = tiny_config(tmp_path, M=1, n=[4096])
        assert main(["--config", cfg, "simulate"]) == 0
        sample = tmp_path / "runs" / "iid_n4096_r000.csv"
        code = main(["--out", str(tmp_path), "fit", "--sample", str(sample),
                     "--method", "theoretical-hard", "--K", "1.0",
                     "--b", "100.0", "--grid-points", "256"])
        assert code == 0
        est = tmp_path / "iid_n4096_r000_theoretical-hard_estimate.csv"
        assert len(est.read_text().splitlines()) == 257
        assert not list(tmp_path.glob("*theoretical*selection*"))

    def test_support_flag(self, tmp_path):
        sample = tmp_path / "wide.csv"
        sample.write_text("x\n" + "\n".join(str(0.1 + 0.018 * i) for i in range(100)) + "\n")
        args = ["--out", str(tmp_path), "fit", "--sample", str(sample),
                "--method", "kernel-rot", "--grid-points", "64"]
        assert main(args + ["--support", "0.0", "2.0"]) == 0
        est = tmp_path / "wide_kernel-rot_estimate.csv"
        last = est.read_text().splitlines()[-1]
        assert last.startswith("2,") or last.startswith("2.0,")


class TestBenchmarkCommand:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, methods=["STCV", "kernel-rot"], moments=[1])
        assert main(["--config", path, "benchmark"]) == 0
        payload = json.loads((out / "reports.json").read_text())
        assert payload["experiment"] == "unit"
        assert len(payload["reports"]) == 2
        by_method = {r["method"]: r for r in payload["reports"]}
        assert by_method["STCV"]["mise"] > 0
        assert by_method["STCV"]["mean_j1"] is not None
        assert by_method["kernel-rot"]["mean_j1"] is None
        summary = (out / "risk_summary.csv").read_text().splitlines()
        assert summary[0] == "case,n,method,mise,lp_2,mean_j1"
        assert len(summary) == 3
        profile = (out / "threshold_profile.csv").read_text().splitlines()
        assert profile[0] == "case,n,method,level,mean_lambda,killed_fraction"
        moments = (out / "integrated_moments.csv").read_text().splitlines()
        assert moments[0] == "case,n,method,order,value"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == payload["config_sha256"]
        assert manifest["outputs"] == sorted(manifest["outputs"])

    def test_risk_summary_columns_per_p(self, tmp_path):
        """One lp column per p, between mise and mean_j1; the lsv map has no
        known density, so its risk cells are empty."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, p=[1, 2],
                           cases=[{"case": "iid"}, {"case": "lsv", "lsv_alpha": 0.3}])
        assert main(["--config", path, "benchmark"]) == 0
        summary = [line.split(",") for line in
                   (out / "risk_summary.csv").read_text().splitlines()]
        assert summary[0] == ["case", "n", "method", "mise", "lp_1", "lp_2", "mean_j1"]
        by_case = {row[0]: row for row in summary[1:]}
        assert by_case.keys() == {"iid", "lsv"}
        assert by_case["lsv"][3:6] == ["", "", ""]
        assert all(cell for cell in by_case["iid"])

    @pytest.mark.parametrize("support,means", [((2.0, 3.0), (2.35, 2.65)),
                                               ((-1.0, 3.0), (0.5, 1.5))])
    def test_moments_follow_the_support(self, tmp_path, support, means):
        """The moment interval is the grid's [lo + (hi - lo)/100, hi], so the
        first moment of a kernel fit holds nearly all its mass."""
        out = tmp_path / "runs"
        block = {"case": "iid", "target": "gaussian_mixture",
                 "target_params": {"means": means, "sds": (0.2, 0.2), "support": support}}
        path = tiny_config(tmp_path, cases=[block], methods=["STCV", "kernel-rot"],
                           moments=[1])
        assert main(["--config", path, "benchmark"]) == 0
        moments = {r["method"]: r["integrated_moments"]["1"] for r in
                   json.loads((out / "reports.json").read_text())["reports"]}
        assert np.isfinite(moments["STCV"])
        assert moments["kernel-rot"] == pytest.approx(1.0, abs=0.05)

    def test_single_replicate_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["--config", tiny_config(tmp_path, M=1), "benchmark"]) == 2
        assert "M >= 2" in capsys.readouterr().err
        assert not (out / "reports.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        path_a = tiny_config(tmp_path, out=str(tmp_path / "a"))
        path_b = tiny_config(tmp_path, out=str(tmp_path / "b"))
        assert main(["--config", path_a, "benchmark"]) == 0
        assert main(["--config", path_b, "benchmark"]) == 0
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_threads_do_not_change_bytes(self, tmp_path):
        path_a = tiny_config(tmp_path, out=str(tmp_path / "a"))
        assert main(["--config", path_a, "benchmark"]) == 0
        path_b = tiny_config(tmp_path, out=str(tmp_path / "b"), threads=4)
        assert main(["--config", path_b, "--threads", "4", "benchmark"]) == 2
        assert main(["--config", path_b, "benchmark"]) == 0
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_repeated_blocks_get_labels(self, tmp_path):
        """Two lsv blocks report under their block labels, as simulate names
        their files, so an alpha sweep's rows stay apart."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, cases=[{"case": "lsv", "lsv_alpha": 0.3},
                                            {"case": "lsv", "lsv_alpha": 0.7}])
        assert main(["--config", path, "benchmark"]) == 0
        reports = json.loads((out / "reports.json").read_text())["reports"]
        assert [r["case"] for r in reports] == ["lsv0", "lsv1"]
        summary = (out / "risk_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in summary] == ["lsv0", "lsv1"]


def _expected_flags(path):
    """Each block's flag by the command's rule, from covariance_decay on the
    sample the command profiles (its derived seed, the config's tables)."""
    cfg = load_config(path)
    d = cfg.decay_settings
    flags = []
    for i, block in enumerate(cfg.cases):
        spec = replace(cfg.process_spec(block, d["n"]), seed=derived_seed(cfg.seed, i))
        prof = covariance_decay(simulate(spec), cfg.tables(), j=d["j"], k=d["k"],
                                max_lag=d["max_lag"])
        if prof.sub_noise:
            flags.append("exponential-or-faster")
        elif prof.slope is not None:
            flags.append(f"polynomial, slope = {prof.slope:.2f}")
        else:
            flags.append("inconclusive")
    return flags


class TestDiagnoseDecay:
    def test_profiles_and_flags(self, tmp_path):
        out = tmp_path / "runs"
        path = tiny_config(
            tmp_path, n=[2048],
            cases=[{"case": "lsv", "lsv_alpha": 0.5}, {"case": "iid"}],
            decay={"j": 2, "k": 1, "max_lag": 32},
        )
        assert main(["--config", path, "diagnose-decay"]) == 0
        summary = json.loads((out / "decay_summary.json").read_text())
        assert summary["probe"] == {"kind": "phi", "j": 2, "k": 1}
        labels = [p["label"] for p in summary["profiles"]]
        assert labels == ["lsv", "iid"]
        assert _expected_flags(path) == [p["flag"] for p in summary["profiles"]]
        csv_lines = (out / "decay_lsv.csv").read_text().splitlines()
        assert csv_lines[0] == "lag,covariance,floor"
        assert len(csv_lines) == 33

    def test_slow_mixing_reaches_the_other_flags(self, tmp_path):
        """Slowly mixing lsv blocks (alpha 0.9 and 0.8) reach the polynomial
        and the inconclusive flags."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, n=[2048],
                           cases=[{"case": "lsv", "lsv_alpha": a} for a in (0.9, 0.8)],
                           decay={"j": 2, "k": 1, "max_lag": 32})
        assert main(["--config", path, "diagnose-decay"]) == 0
        flags = [p["flag"] for p in
                 json.loads((out / "decay_summary.json").read_text())["profiles"]]
        assert flags == _expected_flags(path)
        assert flags[0].startswith("polynomial, slope = ") and flags[1] == "inconclusive"

    def test_each_block_is_profiled_as_written(self, tmp_path, capsys):
        """Block i runs at its own lsv_alpha with seed derived_seed(seed, i),
        under its block label; an alpha sweep is written as lsv blocks."""
        out = tmp_path / "runs"
        alphas = (0.3, 0.7)
        path = tiny_config(tmp_path, cases=[{"case": "lsv", "lsv_alpha": a} for a in alphas]
                           + [{"case": "iid"}], decay={"n": 512, "max_lag": 16})
        assert main(["--config", path, "diagnose-decay"]) == 0
        assert capsys.readouterr().out.startswith("wrote 3 profiles")
        profiles = json.loads((out / "decay_summary.json").read_text())["profiles"]
        assert [p["label"] for p in profiles] == ["lsv0", "lsv1", "iid"]
        assert [p["lsv_alpha"] for p in profiles] == [0.3, 0.7, None]
        tables = cascade_tables(build_filter("daubechies", 1), depth=8)
        for i, alpha in enumerate(alphas):
            sample = simulate(ProcessSpec("lsv", 512, derived_seed(11, i), lsv_alpha=alpha))
            prof = covariance_decay(sample, tables, j=2, k=1, max_lag=16)
            rows = [line.split(",") for line in
                    (out / f"decay_lsv{i}.csv").read_text().splitlines()[1:]]
            assert [int(r[0]) for r in rows] == prof.lags.tolist()
            assert [float(r[1]) for r in rows] == prof.covariances.tolist()
            assert [float(r[2]) for r in rows] == prof.floor.tolist()
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) == 4

    @pytest.mark.parametrize("k", [16, 15, -8])
    def test_probe_off_the_support_exits_2(self, tmp_path, capsys, k):
        """phi_{3,k} with N = 8 lives on [(k - 7)/8, (k + 8)/8]: k = 15 and
        k = -8 touch [0, 1] only at an endpoint and k = 16 misses it, so the
        profile would read 0."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, cases=[{"case": "iid"}, {"case": "lsv", "lsv_alpha": 0.3}],
                           wavelet={"family": "symmlet", "N": 8, "depth": 8},
                           decay={"j": 3, "k": k, "n": 256})
        assert main(["--config", path, "diagnose-decay"]) == 2
        err = capsys.readouterr().err
        assert f"decay.k = {k}" in err and "'iid'" in err
        assert "[0.0, 1.0]" in err and "-7 .. 14" in err
        assert not out.exists()

    def test_probe_at_the_support_edge_runs(self, tmp_path):
        """phi_{3,9} keeps 3.4% of its energy on [0, 1], above the 1% floor."""
        path = tiny_config(tmp_path, cases=[{"case": "iid"}, {"case": "lsv", "lsv_alpha": 0.3}],
                           wavelet={"family": "symmlet", "N": 8, "depth": 8},
                           decay={"j": 3, "k": 9, "n": 256})
        assert main(["--config", path, "diagnose-decay"]) == 0
        summary = json.loads((tmp_path / "runs" / "decay_summary.json").read_text())
        assert summary["probe"] == {"kind": "phi", "j": 3, "k": 9}

    def test_probe_without_energy_on_the_support_exits_2(self, tmp_path, capsys):
        """phi_{3,14} meets [0, 1] but keeps only 5.6e-15 of its energy there,
        so its profile would read rounding noise."""
        out = tmp_path / "runs"
        path = tiny_config(tmp_path, cases=[{"case": "iid"}, {"case": "lsv", "lsv_alpha": 0.3}],
                           wavelet={"family": "symmlet", "N": 8, "depth": 8},
                           decay={"j": 3, "k": 14, "n": 256})
        assert main(["--config", path, "diagnose-decay"]) == 2
        err = capsys.readouterr().err
        assert "decay.k = 14" in err and "'iid'" in err
        assert "share of 5.6e-15" in err and "below the floor 0.01" in err
        assert not out.exists()

    def test_off_support_default_probe_still_loads(self, tmp_path):
        """The probe check is the command's: a custom support that the
        default probe misses loads for benchmark."""
        block = {"case": "iid", "target": "gaussian_mixture",
                 "target_params": {"means": [12.0], "sds": [1.0], "weights": [1.0],
                                   "support": [10.0, 14.0]}}
        path = tiny_config(tmp_path, cases=[block])
        assert load_config(path).process_spec(block, 64).support == (10.0, 14.0)
        assert main(["--config", path, "diagnose-decay"]) == 2


class TestTablesCommand:
    def test_dumps_both_kinds(self, tmp_path):
        code = main(["--out", str(tmp_path), "tables", "--family", "daubechies",
                     "--N", "1", "--depth", "6"])
        assert code == 0
        lines = (tmp_path / "daubechies1_depth6.csv").read_text().splitlines()
        assert lines[0] == "kind,t,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"phi", "psi"}
        assert len(lines) == 1 + 2 * (2**6 + 1)
