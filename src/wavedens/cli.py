"""Config-driven command line: simulate, fit, benchmark, diagnose-decay, tables.

Experiments are described by a JSON config (see the README for the schema);
every artifact is written with sorted keys and no timestamps so identical
configs give byte-identical outputs, and each run directory carries a
manifest listing the produced files under the sha256 of the effective config.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import click
import numpy as np

from .baseline_kernel import KernelConfig, kernel_estimate
from .cross_validation import fit_cv
from .estimator import (Sample, apply_plan, empirical_coefficients,
                        reconstruct, theoretical_plan)
from .processes import CASE_FIELDS, ProcessSpec, build_target, derived_seed, simulate
from .risk_metrics import Fit, covariance_decay, monte_carlo_risks
from .wavelet_basis import WaveletTables, build_filter, cascade_tables

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "main"]

METHODS = ("HTCV", "STCV", "theoretical-hard", "theoretical-soft",
           "kernel-rot", "kernel-cv")
_FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Raised for malformed experiment configs (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: sampling regimes x methods x sample sizes.

    The annotations are the config's JSON types, which load_config enforces.
    A degenerate theoretical schedule is refused here, before any output.
    """

    experiment: str
    cases: tuple[dict, ...]
    methods: tuple[str, ...] = ("HTCV", "STCV")
    n: tuple[int, ...] = (1024,)
    M: int = 100
    p: tuple[float, ...] = (2.0,)
    moments: tuple[int, ...] = ()
    seed: int = 20260814
    out: str = "runs"
    wavelet: dict = field(default_factory=lambda: dict(_WAVELET_DEFAULTS))
    grid_points: int = 4096
    threads: int = 1  # accepted for compatibility, ignored
    K: float = 1.0
    b: float = 1.0
    decay: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.experiment:
            raise ConfigError("experiment id must be a non-empty string")
        if not self.cases:
            raise ConfigError("config needs at least one case block")
        if not self.methods:
            raise ConfigError("methods must list at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}, expected one of {METHODS}")
        for name in ("methods", "n", "p", "moments"):  # each value keys its own outputs
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} must not repeat, got {list(getattr(self, name))}")
        if len({f"{p:g}" for p in self.p}) < len(self.p):  # each names an lp_<p> column
            raise ConfigError(f"p values must differ in their first 6 significant digits, "
                              f"got {list(self.p)}")
        if not self.n or any(v < 8 for v in self.n):
            raise ConfigError(f"n values must be >= 8, got {self.n}")
        for block in self.cases:
            if not isinstance(block, dict) or type(block.get("case")) is not str:
                raise ConfigError(f"case block must be an object with a str 'case' key: {block!r}")
            # a block holds its case's fields, with target_params beside a target;
            # an unknown case passes here, and building it below names the case
            reads = CASE_FIELDS.get(block["case"], tuple(block))
            keys = {"case", *reads} | ({"target_params"} if "target" in reads else set())
            bad = set(block) - keys
            if bad:
                raise ConfigError(f"unknown case keys {sorted(bad)} for case "
                                  f"{block['case']!r} in {block!r}")
            try:
                self.process_spec(block, self.n[0])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid case block {block!r}: {exc}") from exc
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if not all(1 <= p < math.inf for p in self.p):
            raise ConfigError(f"p values must be >= 1 and finite, got {self.p}")
        if any(k < 1 for k in self.moments):
            raise ConfigError(f"moment orders must be >= 1, got {self.moments}")
        for name, allowed in (("wavelet", _WAVELET_DEFAULTS), ("decay", _DECAY_KEYS)):
            bad = set(getattr(self, name)) - set(allowed)
            if bad:
                raise ConfigError(f"unknown {name} keys {sorted(bad)}")
        object.__setattr__(self, "wavelet", {**_WAVELET_DEFAULTS, **self.wavelet})
        _check_wavelet(self.wavelet, "wavelet.{}")
        if self.grid_points < 64:
            raise ConfigError("grid_points must be >= 64")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        for name in ("K", "b"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if any(m.startswith("theoretical") for m in self.methods):
            for n in self.n:  # the schedule depends on (n, N, b, K) alone
                try:
                    theoretical_plan(n, self.wavelet["N"], b=self.b, K=self.K)
                except ValueError as exc:
                    raise ConfigError(f"theoretical schedule at n={n}, b={self.b}, "
                                      f"K={self.K}: {exc}") from exc
        self.decay_settings  # resolve and check the decay block at load

    def sha256(self) -> str:
        """Hash of the result-determining config fields.

        The output directory changes where results land, never what they
        are, and `threads` is ignored, so both stay out of the hash: the same
        experiment always lands under the same identity.
        """
        semantic = {k: v for k, v in asdict(self).items()
                    if k not in ("out", "threads")}
        return hashlib.sha256(_dumps(semantic).encode()).hexdigest()

    @cached_property
    def decay_settings(self) -> dict:
        """The `decay` block with its defaults filled in; not part of the hash."""
        d = {"j": 2, "k": 1, "n": int(max(self.n)), **self.decay}
        n = d["n"] if type(d["n"]) is int else 0  # a non-integer n fails below
        lag = d.setdefault("max_lag", min(200, n // 4))
        for key, ok in (("j", type(d["j"]) is int and d["j"] >= 0),
                        ("k", type(d["k"]) is int), ("n", n >= 8),
                        ("max_lag", type(lag) is int and 1 <= lag <= n // 4)):
            if not ok:
                raise ConfigError(f"decay.{key} is invalid: {d[key]!r} (need integers "
                                  "j >= 0, k, n >= 8 and max_lag in [1, n/4])")
        return d

    def tables(self) -> WaveletTables:
        w = self.wavelet
        return cascade_tables(build_filter(w["family"], w["N"]), depth=w["depth"])

    def process_spec(self, block: dict, n: int) -> ProcessSpec:
        """The block's regime at size n; every case block is built here at load."""
        reads = CASE_FIELDS.get(block["case"], ())
        kwargs = {name: block[name] for name in reads if name in block}
        if "lsv_alpha" in reads:
            kwargs.setdefault("lsv_alpha", 0.5)
        if "target" in reads:
            kwargs["target"] = build_target(block.get("target", "sine_uniform_mixture"),
                                            block.get("target_params"))
        return ProcessSpec(case=block["case"], n=n, seed=self.seed, **kwargs)


_WAVELET_DEFAULTS = {"family": "symmlet", "N": 8, "depth": 10}
_DECAY_KEYS = {"j", "k", "n", "max_lag"}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _typed(label: str, value, kind):
    """A JSON value as the annotated type: a list becomes a tuple element by
    element and an int widens to a float; any other mismatch names the label."""
    if typing.get_origin(kind) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{label} must be list, got {value!r}")
        return tuple(_typed(f"{label}[{i}]", v, typing.get_args(kind)[0])
                     for i, v in enumerate(value))
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{label} must be {kind.__name__}, got {value!r}")
    return value


def _check_wavelet(w: dict, name: str) -> None:
    """Reject a bad wavelet before any table is built; name formats a key's label."""
    for key, default in _WAVELET_DEFAULTS.items():
        _typed(name.format(key), w[key], type(default))
    try:
        build_filter(w["family"], w["N"])
    except ValueError as exc:
        raise ConfigError(f"{name.format('family')}, {name.format('N')}: {exc}") from exc
    if w["depth"] < 4:
        raise ConfigError(f"{name.format('depth')} must be >= 4, got {w['depth']}")


def load_config(path: str, seed: int | None = None,
                out: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config, applying the CLI overrides.

    --seed/--out replace the config values before validation, which refuses
    a degenerate theoretical schedule too. A seed override changes the config
    hash; out is excluded from it, as is `threads`, which is still checked
    (>= 1) but ignored: replicates run in order on one thread.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    bad = set(raw) - set(_FIELD_TYPES)
    if bad:
        raise ConfigError(f"unknown config keys {sorted(bad)}")
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out"] = out
    kwargs = {k: _typed(k, v, _FIELD_TYPES[k]) for k, v in raw.items()}
    return ExperimentConfig(**{"experiment": "", "cases": (), **kwargs})


# ---------------------------------------------------------------------------
# fit binding: method name -> Sample -> Fit

def make_fit(method: str, tables: WaveletTables, grid_points: int,
             K: float = ExperimentConfig.K, b: float = ExperimentConfig.b):
    """Bind a method name to a fit callable usable by monte_carlo_risks; the fit
    reads fit_cv, empirical_coefficients and kernel_estimate from this module
    each time it runs, so a name patched here is the one called."""
    if method in ("HTCV", "STCV"):
        def cv_fit(sample):
            estimate, sel = fit_cv(sample, tables, mode=method, grid_points=grid_points)
            return Fit(estimate, j1=sel.j1_hat, lambdas=sel.lambdas,
                       killed_fraction=sel.killed_fraction, diagnostics=sel)
        return cv_fit
    if method in ("theoretical-hard", "theoretical-soft"):
        mode = method.split("-")[1]

        def theoretical_fit(sample):
            plan = theoretical_plan(sample.n, tables.vanishing_moments, b=b, K=K, mode=mode)
            coeffs = apply_plan(empirical_coefficients(sample, tables, plan.j0, plan.j1), plan)
            return Fit(reconstruct(coeffs, tables, grid_points), j1=plan.j1,
                       lambdas=plan.lambdas, killed_fraction=coeffs.zero_fractions())
        return theoretical_fit
    if method in ("kernel-rot", "kernel-cv"):
        rule = "rule_of_thumb" if method == "kernel-rot" else "cv"
        config = KernelConfig(bandwidth_rule=rule, grid_points=grid_points)
        return lambda sample: Fit(kernel_estimate(sample, config))
    raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")


# ---------------------------------------------------------------------------
# deterministic writers

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str, outputs: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    outputs.append(path.name)


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, command: str,
                    outputs: list, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.sha256(),
        "experiment": cfg.experiment,
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    _write(out_dir / "manifest.json", _dumps(manifest), [])


def _csv(rows: list[dict]) -> str:
    """The rows as CSV under the first row's keys; every row has the same keys, in order."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return _FLOAT_FMT % v
        return str(v)
    lines = [",".join(rows[0])]
    lines += [",".join(cell(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _read_sample_csv(path: str, support: tuple[float, float]) -> Sample:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or (lineno == 1 and text == "x"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no sample values found")
    return Sample(values=np.asarray(values), support=support)


# ---------------------------------------------------------------------------
# commands

@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON experiment config.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--out", type=click.Path(), default=None, help="Override the output directory.")
@click.pass_context
def cli(ctx, config_path, seed, out):
    """Wavelet density estimation experiments for dependent samples."""
    ctx.obj = {"config": config_path, "seed": seed, "out": out}


def _need_config(ctx) -> ExperimentConfig:
    opts = ctx.obj
    if opts["config"] is None:
        raise click.UsageError("this command needs --config PATH")
    return load_config(opts["config"], seed=opts["seed"], out=opts["out"])


def _case_labels(cases: tuple[dict, ...]) -> list[str]:
    """Each block's label in file names and reports: its case name, suffixed
    with the block index when the name repeats."""
    names = [block["case"] for block in cases]
    return [name if names.count(name) == 1 else f"{name}{i}"
            for i, name in enumerate(names)]


@cli.command(name="simulate")
@click.pass_context
def simulate_cmd(ctx):
    """Write one sample CSV per (case, n, replicate) plus a seed manifest."""
    cfg = _need_config(ctx)
    out_dir = Path(cfg.out)
    outputs: list = []
    seeds = {}
    for block, label in zip(cfg.cases, _case_labels(cfg.cases)):
        for n in cfg.n:
            spec = cfg.process_spec(block, n)
            for r in range(cfg.M):
                seed = derived_seed(cfg.seed, r)
                sample = simulate(replace(spec, seed=seed))
                name = f"{label}_n{n}_r{r:03d}.csv"
                body = "x\n" + "\n".join(_FLOAT_FMT % v for v in sample.values) + "\n"
                _write(out_dir / name, body, outputs)
                seeds[name] = seed
    _write_manifest(out_dir, cfg, "simulate", outputs, {"seeds": seeds})
    click.echo(f"wrote {len(outputs)} samples to {out_dir}")


@cli.command(name="fit")
@click.option("--sample", "sample_path", type=click.Path(exists=True), required=True,
              help="Single-column sample CSV.")
@click.option("--method", type=click.Choice(METHODS), required=True)
@click.option("--K", "K", type=float, default=None,
              help="Threshold constant (required for theoretical-* methods).")
@click.option("--b", "b", type=float, default=ExperimentConfig.b,
              help="Dependence exponent for the theoretical schedule.")
@click.option("--support", nargs=2, type=float, default=(0.0, 1.0),
              help="Sample support (lo hi).")
@click.option("--family", default=_WAVELET_DEFAULTS["family"])
@click.option("--N", "N", type=int, default=_WAVELET_DEFAULTS["N"])
@click.option("--depth", type=int, default=_WAVELET_DEFAULTS["depth"])
@click.option("--grid-points", type=click.IntRange(min=64),
              default=ExperimentConfig.grid_points)
@click.pass_context
def fit_cmd(ctx, sample_path, method, K, b, support, family, N, depth, grid_points):
    """Fit one method to one sample file; write estimate CSV (+ selection JSON)."""
    if method.startswith("theoretical"):
        if K is None:
            raise click.UsageError(f"method {method} requires --K")
        for name, value in (("--K", K), ("--b", b)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
    _check_wavelet({"family": family, "N": N, "depth": depth}, "--{}")
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"--support must be finite with lo < hi, got {lo} {hi}")
    out_dir = Path(ctx.obj["out"] or ".")
    sample = _read_sample_csv(sample_path, (lo, hi))
    tables = cascade_tables(build_filter(family, N), depth=depth)
    result = make_fit(method, tables, grid_points, K=K, b=b)(sample)
    stem = Path(sample_path).stem
    outputs: list = []
    rows = [{"x": float(x), "density": float(v)}
            for x, v in zip(result.estimate.grid, result.estimate.values)]
    _write(out_dir / f"{stem}_{method}_estimate.csv", _csv(rows), outputs)
    if result.diagnostics is not None:
        _write(out_dir / f"{stem}_{method}_selection.json",
               _dumps(result.diagnostics.to_dict()), outputs)
    click.echo(f"wrote {', '.join(outputs)} to {out_dir}")


@cli.command()
@click.pass_context
def benchmark(ctx):
    """Monte-Carlo risk for every case x n x method in the config."""
    cfg = _need_config(ctx)
    if cfg.M < 2:
        raise ConfigError(f"benchmark needs M >= 2 replicates, got M={cfg.M}")
    out_dir = Path(cfg.out)
    tables = cfg.tables()
    fits = {method: make_fit(method, tables, cfg.grid_points, K=cfg.K, b=cfg.b)
            for method in cfg.methods}
    reports = []
    for block, label in zip(cfg.cases, _case_labels(cfg.cases)):
        for n in cfg.n:
            reports += [replace(r, case=label) for r in monte_carlo_risks(
                cfg.process_spec(block, n), fits, cfg.M, p_list=cfg.p,
                moment_orders=cfg.moments)]

    outputs: list = []
    payload = {"config_sha256": cfg.sha256(), "experiment": cfg.experiment,
               "reports": [r.to_dict() for r in reports]}
    _write(out_dir / "reports.json", _dumps(payload), outputs)

    rows = [{"case": r.case, "n": r.n, "method": r.method, "mise": r.mise,
             **{f"lp_{p:g}": r.lp_risks.get(p) for p in cfg.p}, "mean_j1": r.mean_j1}
            for r in reports]
    _write(out_dir / "risk_summary.csv", _csv(rows), outputs)

    profile_rows = [
        {"case": r.case, "n": r.n, "method": r.method, "level": j,
         "mean_lambda": r.threshold_profile[j],
         "killed_fraction": r.thresholded_fraction[j]}
        for r in reports if r.threshold_profile
        for j in sorted(r.threshold_profile)
    ]
    if profile_rows:
        _write(out_dir / "threshold_profile.csv", _csv(profile_rows), outputs)

    moment_rows = [
        {"case": r.case, "n": r.n, "method": r.method, "order": k,
         "value": r.integrated_moments[k]}
        for r in reports if r.integrated_moments
        for k in sorted(r.integrated_moments)
    ]
    if moment_rows:
        _write(out_dir / "integrated_moments.csv", _csv(moment_rows), outputs)

    _write_manifest(out_dir, cfg, "benchmark", outputs)
    click.echo(f"wrote {len(outputs)} files to {out_dir}")


@cli.command(name="diagnose-decay")
@click.pass_context
def diagnose_decay(ctx):
    """Covariance-decay profile of each case block, as written, at size decay.n."""
    cfg = _need_config(ctx)
    out_dir = Path(cfg.out)
    j, k, n, max_lag = (cfg.decay_settings[key] for key in ("j", "k", "n", "max_lag"))
    tables = cfg.tables()
    labels = _case_labels(cfg.cases)
    specs = [replace(cfg.process_spec(block, n), seed=derived_seed(cfg.seed, i))
             for i, block in enumerate(cfg.cases)]
    for spec, label in zip(specs, labels):  # a probe off the support reads 0 everywhere
        k_min, k_max = tables.k_range(j, *spec.support)
        if not k_min < k < k_max - 1:
            raise ConfigError(f"decay.k = {k} puts the probe phi_{{{j},{k}}} off the support "
                              f"{list(spec.support)} of case block {label!r}; at j = {j} "
                              f"only k in {k_min + 1} .. {k_max - 2} meets it")
    outputs: list = []
    summary = []
    for spec, label in zip(specs, labels):
        prof = covariance_decay(simulate(spec), tables, j=j, k=k, max_lag=max_lag)
        rows = [{"lag": int(r), "covariance": float(c), "floor": float(f)}
                for r, c, f in zip(prof.lags, prof.covariances, prof.floor)]
        _write(out_dir / f"decay_{label}.csv", _csv(rows), outputs)
        if prof.sub_noise:
            flag = "exponential-or-faster"
        elif prof.slope is not None:
            flag = f"polynomial, slope = {prof.slope:.2f}"
        else:
            flag = "inconclusive"
        summary.append({"label": label, "case": spec.case, "lsv_alpha": spec.lsv_alpha,
                        "n": spec.n, "slope": prof.slope, "variance": prof.variance,
                        "flag": flag})
    _write(out_dir / "decay_summary.json", _dumps({
        "config_sha256": cfg.sha256(), "experiment": cfg.experiment,
        "probe": {"kind": "phi", "j": j, "k": k}, "profiles": summary}), outputs)
    _write_manifest(out_dir, cfg, "diagnose-decay", outputs)
    click.echo(f"wrote {len(summary)} profiles to {out_dir}")


@cli.command(name="tables")
@click.option("--family", default=_WAVELET_DEFAULTS["family"])
@click.option("--N", "N", type=int, default=_WAVELET_DEFAULTS["N"])
@click.option("--depth", type=int, default=_WAVELET_DEFAULTS["depth"])
@click.pass_context
def tables_cmd(ctx, family, N, depth):
    """Dump the sampled scaling/wavelet tables as CSV."""
    _check_wavelet({"family": family, "N": N, "depth": depth}, "--{}")
    out_dir = Path(ctx.obj["out"] or ".")
    tables = cascade_tables(build_filter(family, N), depth=depth)
    rows = []
    for kind, values in (("phi", tables.phi_values), ("psi", tables.psi_values)):
        grid = tables.sample_grid(kind)
        rows += [{"kind": kind, "t": float(t), "value": float(v)}
                 for t, v in zip(grid, values)]
    name = f"{family}{N}_depth{depth}.csv"
    _write(out_dir / name, _csv(rows), [])
    click.echo(f"wrote {name} to {out_dir}")


def main(argv=None) -> int:
    """Entry point with the documented exit codes (0 ok, 2 config, 3 runtime)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except (ConfigError, click.UsageError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.Abort:
        return 3
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
