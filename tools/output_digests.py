"""The sha256 of every output the program writes or returns on fixed inputs.

    python3 tools/output_digests.py [--src DIR]

Imports `wavedens` from DIR (default: this checkout's src/), so the same
copy of this script can hash an older checkout's package for comparison.
It runs two parts, always on the inputs fixed below:

- commands: `benchmark`, `diagnose-decay` and `--seed 5 simulate` on CONFIG,
  `fit` of the first block's replicate 0 at the largest n for each of
  FIT_METHODS (with --K 0.7 --b 200), and `tables --family daubechies --N 4
  --depth 8`, each in its own directory; each output is one file;
- library calls under warnings.simplefilter("error"): `simulate`,
  `kernel_estimate` and `cv_bandwidth` on dependent samples, and the
  HTCV, STCV and theoretical-soft wavelet fits on supports other than
  [0, 1]; each output is one call's arrays (and its record as sorted-key
  JSON).

Prints one `<sha256>  <name>` line per output, sorted by name, then
`overall <sha256>`, the sha256 of those lines. It is a record of what the
program computes, not a gate: two checkouts that print the same overall
line wrote and returned the same bytes on these inputs.

Standard library and wavedens only; run from anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import struct
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = {
    "experiment": "output-digests",
    "cases": [{"case": "iid", "target": "gaussian_mixture"},
              {"case": "logistic_map", "target": "gaussian_mixture"},
              {"case": "noncausal_ar", "target": "gaussian_mixture"},
              {"case": "lsv", "lsv_alpha": 0.3}],
    "methods": ["HTCV", "STCV", "theoretical-soft", "kernel-rot", "kernel-cv"],
    "n": [512, 1024], "M": 4, "p": [1, 2, 3], "moments": [1, 2, 3],
    "K": 0.5, "b": 100, "grid_points": 512, "decay": {"n": 2048, "max_lag": 64},
}
FIT_METHODS = ("HTCV", "STCV", "theoretical-hard", "kernel-rot", "kernel-cv")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _json(record) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def command_digests(config: dict, fit_methods) -> dict[str, str]:
    """Run each command on `config` in its own directory; the digest of every file written."""
    from wavedens import cli

    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        work = Path(tmp)
        path = work / "config.json"
        path.write_text(json.dumps(config))
        first = config["cases"][0]["case"]
        sample = work / "simulate" / f"{first}_n{max(config['n'])}_r000.csv"
        runs = {
            "benchmark": ["--config", str(path), "--out", str(work / "benchmark"), "benchmark"],
            "diagnose-decay": ["--config", str(path), "--out", str(work / "diagnose-decay"),
                               "diagnose-decay"],
            "simulate": ["--config", str(path), "--seed", "5", "--out",
                         str(work / "simulate"), "simulate"],
            **{f"fit-{method}": ["--out", str(work / "fit"), "fit", "--sample", str(sample),
                                 "--method", method, "--K", "0.7", "--b", "200"]
               for method in fit_methods},
            "tables": ["--out", str(work / "tables"), "tables", "--family", "daubechies",
                       "--N", "4", "--depth", "8"],
        }
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                sys.exit(f"output_digests: command {name} ({' '.join(argv)}) exited {code}")
        return {f"cmd/{f.relative_to(work).as_posix()}": _sha(f.read_bytes())
                for f in sorted(work.rglob("*")) if f.is_file() and f != path}


def library_digests() -> dict[str, str]:
    """The digest of each library call's arrays and record, warnings raised as errors."""
    from wavedens import cli
    from wavedens.baseline_kernel import KernelConfig, cv_bandwidth, kernel_estimate
    from wavedens.cross_validation import fit_cv
    from wavedens.estimator import Sample
    from wavedens.processes import ProcessSpec, build_target, simulate
    from wavedens.wavelet_basis import build_filter, cascade_tables

    sine = build_target("sine_uniform_mixture")

    def spec(case, n, seed, alpha=None):
        if case == "lsv":
            return ProcessSpec(case, n, seed, lsv_alpha=alpha)
        return ProcessSpec(case, n, seed, target=sine)

    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case, alpha in (("logistic_map", None), ("lsv", 0.3), ("lsv", 0.5), ("lsv", 0.7)):
            label = case if alpha is None else f"{case}-a{alpha}"
            for n in (64, 1024):
                for seed in range(20):
                    x = simulate(spec(case, n, seed, alpha)).values
                    out[f"lib/simulate/{label}/n{n}/s{seed:02d}"] = _sha(x.tobytes())

        for case in ("iid", "logistic_map", "noncausal_ar", "lsv"):
            for n in (256, 1024, 4096):
                for seed in (1, 2, 3):
                    sample = simulate(spec(case, n, seed, 0.5))
                    stem = f"lib/kernel/{case}/n{n}/s{seed}"
                    for rule in ("rule_of_thumb", "cv"):
                        for points in (64, 4096):
                            est = kernel_estimate(sample, KernelConfig(rule, points))
                            out[f"{stem}/{rule}-g{points}"] = _sha(est.grid.tobytes(),
                                                                   est.values.tobytes())
                    out[f"{stem}/cv_bandwidth"] = _sha(struct.pack("<d", cv_bandwidth(sample)))

        tables = cascade_tables(build_filter("symmlet", 8), depth=10)
        u = simulate(spec("iid", 1024, 0)).values
        theoretical = cli.make_fit("theoretical-soft", tables, 4096, K=0.5, b=100)
        for lo, hi in ((-0.5, 2.0), (0.0, 4.0)):
            sample = Sample(lo + (hi - lo) * u, (lo, hi))
            stem = f"lib/wavelet/support{lo:g}_{hi:g}"
            for mode in ("HTCV", "STCV"):
                est, sel = fit_cv(sample, tables, mode=mode)
                out[f"{stem}/{mode}"] = _sha(est.grid.tobytes(), est.values.tobytes(),
                                             _json(sel.to_dict()))
            fit = theoretical(sample)
            record = {"j1": fit.j1, "lambdas": fit.lambdas,
                      "killed_fraction": fit.killed_fraction}
            out[f"{stem}/theoretical-soft"] = _sha(fit.estimate.grid.tobytes(),
                                                   fit.estimate.values.tobytes(), _json(record))
    return out


def report_lines(digests: dict[str, str]) -> list[str]:
    """One `<sha256>  <name>` line per output, sorted by name, then the overall line."""
    lines = [f"{digests[name]}  {name}" for name in sorted(digests)]
    overall = _sha("".join(line + "\n" for line in lines).encode())
    return lines + [f"overall {overall}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the wavedens package")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import wavedens

    if not Path(wavedens.__file__).resolve().is_relative_to(src):
        sys.exit(f"output_digests: imported wavedens from {wavedens.__file__}, not from {src}")
    digests = {**command_digests(CONFIG, FIT_METHODS), **library_digests()}
    print("\n".join(report_lines(digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
