"""The benchmark workloads and their correctness gates.

Both workloads are closed loops in one process with sym8 wavelets at cascade
depth 10, a 4096-point grid and the sine-plus-plateau target.

- mc-acceptance: ``wavedens benchmark`` in-process on the paper's grid
  {iid, logistic_map, noncausal_ar} x {HTCV, STCV}, n = 1024, threads = 1.
- mc-baselines: ``wavedens benchmark`` on {iid, lsv} x {kernel-rot,
  kernel-cv}, n = 1024, threads = 2; the only workload that runs the kernel
  baseline and the thread pool.

A loop repeats whole units (one ``wavedens benchmark`` run) until the time
is up, so every unit is complete and the reported rate counts only finished
items.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

from wavedens import cli, cross_validation, risk_metrics
from wavedens.processes import ProcessSpec, build_target
from wavedens.wavelet_basis import WaveletTables, build_filter, cascade_tables

from tracer import Tracer

GRID_POINTS = 4096
WAVELET = {"family": "symmlet", "N": 8, "depth": 10}
TARGET = "sine_uniform_mixture"
REFERENCE_SEED = 20260814  # the config default: a digest every run can compare


def sub_seed(seed: int, *labels) -> int:
    """A 63-bit seed derived from the run seed and labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def make_tables() -> WaveletTables:
    """The sym8, depth-10 tables every workload and the probe use."""
    return cascade_tables(build_filter(WAVELET["family"], WAVELET["N"]), WAVELET["depth"])


def process_spec(case: str, n: int, seed: int) -> ProcessSpec:
    """The regime as ``wavedens benchmark`` builds it: LSV at alpha 0.5, else the target."""
    if case == "lsv":
        return ProcessSpec(case="lsv", n=n, seed=seed, lsv_alpha=0.5)
    return ProcessSpec(case=case, n=n, seed=seed, target=build_target(TARGET))


def cv_levels(n: int, vanishing_moments: int = WAVELET["N"]) -> tuple[int, int]:
    """(j0, j_star) of the CV estimator: floor(ln n/(1+N)) + 1 and floor(log2 n)."""
    return math.floor(math.log(n) / (1 + vanishing_moments)) + 1, math.floor(math.log2(n))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry point where its caller imports it."""
    tracer.patch(risk_metrics, "simulate", "processes.simulate", starts_item=True)
    tracer.patch(risk_metrics, "lp_distance", "risk_metrics.lp_distance")
    tracer.patch(cli, "fit_cv", "cross_validation.fit_cv")
    tracer.patch(cli, "empirical_coefficients", "estimator.empirical_coefficients")
    tracer.patch(cli, "kernel_estimate", "baseline_kernel.kernel_estimate")
    tracer.patch(cross_validation, "apply_plan", "estimator.apply_plan")
    tracer.patch(cross_validation, "reconstruct", "estimator.reconstruct")
    tracer.patch_factory(cli, "make_fit", "cli.fit")


class LoopResult:
    """Counts and clocks of one closed loop, kept per unit and in total.

    A unit is the loop's repeated step: one ``wavedens benchmark`` run. The
    machine's speed drifts from second to second, so rates are reported as
    medians over units.
    """

    def __init__(self):
        self.items = self.failed = 0
        self.fit_times: list[float] = []
        self.units: list[dict] = []
        self.t0, self.r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        self._unit = None

    def begin_unit(self) -> None:
        self._unit = (time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF),
                      len(self.fit_times), self.items - self.failed)

    def end_unit(self) -> None:
        t, r, first_fit, done = self._unit
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        fits = self.fit_times[first_fit:]
        self.units.append({
            "wall_s": time.perf_counter() - t,
            "cpu_s": r1.ru_utime - r.ru_utime + r1.ru_stime - r.ru_stime,
            "done": self.items - self.failed - done,
            "fit_mean_s": statistics.fmean(fits) if fits else None,
        })

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def finish(self) -> None:
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        self.wall_s = self.elapsed()
        self.user_s = r1.ru_utime - self.r0.ru_utime
        self.sys_s = r1.ru_stime - self.r0.ru_stime

    def items_per_s(self) -> float:
        """Successful items per wall second, median over units."""
        return statistics.median(u["done"] / u["wall_s"] for u in self.units)

    def cpu_s_per_item(self) -> float:
        """User + system CPU of all threads per successful item, median over units."""
        return statistics.median(u["cpu_s"] / u["done"] for u in self.units if u["done"])

    def fit_s_p50(self) -> float:
        """Median over units of the unit's mean fit wall time.

        A unit mixes methods of very different cost (kernel-rot and
        kernel-cv differ 4x), so a median over single fits would jump between
        the two groups; each unit's mix is fixed, so its mean is comparable.
        """
        return statistics.median(u["fit_mean_s"] for u in self.units
                                 if u["fit_mean_s"] is not None)


class McWorkload:
    """``wavedens benchmark`` runs over a (cases x methods) grid at n = 1024."""

    n = 1024

    def __init__(self, name, cases, methods, M, threads):
        self.name = name
        self.cases, self.methods, self.M, self.threads = cases, methods, M, threads

    @property
    def items_per_unit(self) -> int:
        return len(self.cases) * len(self.methods) * self.M

    def config(self, seed: int, out: Path) -> dict:
        return {"experiment": f"perfbench-{self.name}", "cases": self.cases,
                "methods": list(self.methods), "n": [self.n], "M": self.M,
                "seed": seed, "out": str(out), "wavelet": dict(WAVELET),
                "grid_points": GRID_POINTS, "threads": self.threads}

    def _unit(self, seed: int, out: Path, problems: list) -> str | None:
        """One ``wavedens benchmark`` run; returns the reports.json digest."""
        out.mkdir(parents=True, exist_ok=True)
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(self.config(seed, out)))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--config", str(cfg_path), "benchmark"])
        if rc != 0:
            problems.append(f"wavedens benchmark exited {rc} at seed {seed}")
            return None
        raw = (out / "reports.json").read_bytes()
        self._gate(json.loads(raw), seed, problems)
        return hashlib.sha256(raw).hexdigest()

    def _gate(self, payload: dict, seed: int, problems: list) -> None:
        j0, j_star = cv_levels(self.n)
        reports = payload["reports"]
        if len(reports) != len(self.cases) * len(self.methods):
            problems.append(f"seed {seed}: {len(reports)} reports")
        for r in reports:
            where = f"seed {seed} {r['case']}/{r['method']}"
            if r["replicates"] != self.M:
                problems.append(f"{where}: {r['replicates']} replicates")
            if r["case"] != "lsv":
                values = [r["mise"], *r["lp_risks"].values()]
                if not values[1:] or not all(
                        v is not None and math.isfinite(v) and v >= 0 for v in values):
                    problems.append(f"{where}: MISE/Lp not finite and >= 0: {values}")
            if r["method"] in ("HTCV", "STCV"):
                if r["mean_j1"] is None or not j0 <= r["mean_j1"] <= j_star:
                    problems.append(f"{where}: mean_j1 {r['mean_j1']} outside [{j0}, {j_star}]")

    def loop(self, seed: int, seconds: float, work: Path, problems: list, digests: dict,
             tracer: Tracer | None = None, between_units=None) -> LoopResult:
        """Repeat the grid; when traced, spans come from install_layer_spans.

        The first unit runs at the fixed reference seed, so its reports.json
        digest can be compared across every run of the same code; later
        units run at seeds derived from the run seed. `between_units` is
        called after each unit, outside its clocks.
        """
        res = LoopResult()
        original = cli.make_fit
        if tracer is None:
            cli.make_fit = _timed_factory(original, res.fit_times)
        try:
            while True:
                index = len(res.units)
                unit_seed = REFERENCE_SEED if index == 0 else sub_seed(seed, self.name, index)
                res.begin_unit()
                digest = self._unit(unit_seed, work / f"unit{index}", problems)
                res.items += self.items_per_unit
                if digest is None:
                    res.failed += self.items_per_unit
                res.end_unit()
                if index <= 1:
                    key = ("reference" if index == 0 else "seeded") + "_reports_sha256"
                    if digests.setdefault(key, digest) != digest:
                        problems.append(f"{key} changed between loops of the same run")
                if between_units is not None:
                    between_units()
                if res.elapsed() >= seconds and len(res.units) >= 2:
                    break
            res.finish()
        finally:
            cli.make_fit = original
        return res


def _timed_factory(make_fit, times: list):
    """cli.make_fit whose fits append their wall time to `times`."""
    def factory(*args, **kwargs):
        fit = make_fit(*args, **kwargs)

        def timed(sample):
            t = time.perf_counter()
            try:
                return fit(sample)
            finally:
                times.append(time.perf_counter() - t)
        return timed
    return factory


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mc-acceptance": McWorkload(
        "mc-acceptance",
        cases=[{"case": "iid", "target": TARGET}, {"case": "logistic_map", "target": TARGET},
               {"case": "noncausal_ar", "target": TARGET}],
        methods=("HTCV", "STCV"), M=10, threads=1),
    "mc-baselines": McWorkload(
        "mc-baselines",
        cases=[{"case": "iid", "target": TARGET}, {"case": "lsv", "lsv_alpha": 0.5}],
        methods=("kernel-rot", "kernel-cv"), M=5, threads=2),
}
