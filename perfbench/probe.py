"""Per-level and scaling probe: each layer timed on its own at n = 1024, 4096, 65536.

Every timed call goes through the public wavedens API. Timings are medians over
repeats, taken in interleaved order so that drift hits all of them alike.
Derived timings:

- estimator.coeff_sums_ms.j<J>: empirical_coefficients(j0=J, jmax=J) minus
  empirical_coefficients(j0=J, jmax=J-1), i.e. the detail level's sums only.
- cross_validation.select_ms.j<J>: select_lambda at level J minus the same
  level's sums, i.e. the threshold search itself. Where the search is far
  cheaper than the sums (low levels at n = 65536) the difference is within
  timing noise and can read slightly negative.
- cli.cv_adapter_extra_ms: what the CLI's CV adapter adds on top of fit_cv.
- cross_validation.candidates.n<N>: thresholds the exact search tries, summed
  over levels j0..j_star; each level's count is the length of the candidate
  set the program's own ``cross_validation._candidates`` returns during
  select_lambda. Should that helper go, the count falls back to its current
  formula (0, each distinct |beta|, the value just above each, one above the
  largest) and the run record says so.

The probe measures the same inputs whatever the workload: its samples are
iid draws from the target (and one of each regime for the simulate timings),
seeded from the run seed alone.

The kernel baselines run at n = 1024 and 4096 only: kernel-cv at n = 65536
keeps ~10^9 pair distances, more memory than the benchmark may take.
"""

from __future__ import annotations

import statistics
import time
import numpy as np

from wavedens import cli, cross_validation
from wavedens.baseline_kernel import (KernelConfig, kernel_estimate, lscv_score,
                                      rule_of_thumb_bandwidth)
from wavedens.cross_validation import fit_cv, select_j1, select_lambda
from wavedens.estimator import (ThresholdPlan, apply_plan, empirical_coefficients,
                                reconstruct)
from wavedens.processes import build_target, simulate
from wavedens.risk_metrics import lp_distance
from wavedens.wavelet_basis import build_filter, cascade_tables

from tracer import Tracer
from workloads import (GRID_POINTS, TARGET, WAVELET, cv_levels, make_tables, process_spec,
                       sub_seed)

SIZES = (1024, 4096, 65536)
KERNEL_SIZES = (1024, 4096)
CASES = ("iid", "logistic_map", "noncausal_ar", "lsv")


def _reps(n: int) -> int:
    return 9 if n <= 4096 else 5


def _time(fn, inner: int = 1) -> float:
    t = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t) / inner


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples)


def run_probe(seed: int) -> tuple[dict, dict]:
    """Every probe metric, and notes on how the counts were taken."""
    out: dict[str, float] = {}
    notes: dict[str, str] = {}
    filt = build_filter(WAVELET["family"], WAVELET["N"])
    out["wavelet_basis.cascade_tables_s"] = statistics.median(
        _time(lambda: cascade_tables(filt, WAVELET["depth"])) for _ in range(5))
    tables = make_tables()
    target = build_target(TARGET)

    for n in SIZES:
        sims = {c: [] for c in CASES}
        inv = []
        u = np.random.default_rng(sub_seed(seed, "probe-u", n)).random(n)
        for r in range(_reps(n)):
            for c in CASES:
                spec = process_spec(c, n, sub_seed(seed, "probe", c, n, r))
                sims[c].append(_time(lambda: simulate(spec)))
            inv.append(_time(lambda: target.inverse_cdf(u)))
        for c in CASES:
            out[f"processes.simulate_ms.{c}.n{n}"] = _median_ms(sims[c])
        out[f"processes.inverse_cdf_ms.n{n}"] = _median_ms(inv)
        sample = simulate(process_spec("iid", n, sub_seed(seed, "probe", n)))
        out.update(_cv_layers(sample, tables, target, n))
        out[f"cross_validation.candidates.n{n}"], notes["candidates_source"] = (
            _candidate_count(sample, tables, n))
        if n in KERNEL_SIZES:
            out.update(_kernel_layers(sample, n))
        if n == SIZES[0]:
            out.update(_adapter(sample, tables))
    return out, notes


def _candidate_count(sample, tables, n: int) -> tuple[int, str]:
    """Thresholds select_lambda tries over j0..j_star, and where the count came from."""
    j0, j_star = cv_levels(n, tables.vanishing_moments)
    levels = range(j0, j_star + 1)
    original = getattr(cross_validation, "_candidates", None)
    sizes = []
    if original is not None:
        def counted(beta):
            cands = original(beta)
            sizes.append(len(cands))
            return cands

        cross_validation._candidates = counted
        try:
            for j in levels:
                select_lambda(sample, tables, j, "HTCV")
        finally:
            cross_validation._candidates = original
    if len(sizes) == len(levels):
        return sum(sizes), "cross_validation._candidates"
    # the helper is gone or no longer called once per level
    coeffs = empirical_coefficients(sample, tables, j0, j_star)
    return sum(2 * np.unique(np.abs(coeffs.detail(j).values)).size + 2
               for j in levels), "formula"


def _cv_layers(sample, tables, target, n: int) -> dict:
    out = {}
    j0, j_star = cv_levels(n, tables.vanishing_moments)
    levels = range(j0, j_star + 1)
    with_detail = {j: [] for j in levels}
    scaling_only = {j: [] for j in levels}
    select = {j: [] for j in levels}
    for _ in range(_reps(n)):
        for j in levels:
            with_detail[j].append(_time(lambda: empirical_coefficients(sample, tables, j, j)))
            scaling_only[j].append(_time(lambda: empirical_coefficients(sample, tables, j, j - 1)))
            select[j].append(_time(lambda: select_lambda(sample, tables, j, "HTCV")))
    for j in levels:
        # differences are paired within a repeat, whose calls ran back to back
        sums = [a - b for a, b in zip(with_detail[j], scaling_only[j])]
        out[f"estimator.coeff_sums_ms.j{j}.n{n}"] = _median_ms(sums)
        out[f"cross_validation.select_ms.j{j}.n{n}"] = _median_ms(
            [c - d for c, d in zip(select[j], sums)])

    tracer = Tracer()
    tracer.patch(cross_validation, "apply_plan", "estimator.apply_plan")
    tracer.patch(cross_validation, "reconstruct", "estimator.reconstruct")
    try:
        fit = tracer.wrap("cross_validation.fit_cv", fit_cv)
        estimate, selection = fit(sample, tables, mode="STCV", grid_points=GRID_POINTS)
    finally:
        tracer.restore()
    out[f"cross_validation.fit_cv_self_ms.n{n}"] = (
        tracer.summary(1.0, 1)["by_name"]["cross_validation.fit_cv"]["self_ms"])

    values = {cv.j: cv.value for cv in selection.criterion_values}
    j1 = selection.j1_hat
    plan = ThresholdPlan(mode="soft", lambdas={j: selection.lambdas[j] for j in range(j0, j1 + 1)},
                         j0=j0, j1=j1)
    kept = empirical_coefficients(sample, tables, j0, j1)
    thresholded = apply_plan(kept, plan)
    j1_t, apply_t, recon_t = [], [], []
    for _ in range(_reps(n)):
        j1_t.append(_time(lambda: select_j1(values, j0, j_star), inner=1000))
        apply_t.append(_time(lambda: apply_plan(kept, plan), inner=20))
        recon_t.append(_time(lambda: reconstruct(thresholded, tables, GRID_POINTS)))
    out[f"cross_validation.select_j1_ms.n{n}"] = _median_ms(j1_t)
    out[f"estimator.apply_plan_ms.n{n}"] = _median_ms(apply_t)
    out[f"estimator.reconstruct_ms.n{n}"] = _median_ms(recon_t)
    # levels reconstruct synthesises: the scaling level and each nonzero detail
    out[f"estimator.reconstruct_levels.n{n}"] = 1 + sum(
        bool(np.any(lev.values != 0.0)) for lev in thresholded.details)
    if n == SIZES[0]:
        # lp_distance works on the 4096-point grid, so its cost does not scale with n
        out["risk_metrics.lp_distance_ms"] = _median_ms(
            _time(lambda: lp_distance(estimate, target, 2.0), inner=20) for _ in range(9))
    return out


def _kernel_layers(sample, n: int) -> dict:
    h_rot = rule_of_thumb_bandwidth(sample)
    reps = 3 if n <= 1024 else 1
    rot = [_time(lambda: kernel_estimate(sample, KernelConfig("rule_of_thumb")))
           for _ in range(reps)]
    cv = [_time(lambda: kernel_estimate(sample, KernelConfig("cv"))) for _ in range(reps)]
    lscv = [_time(lambda: lscv_score(sample, h_rot)) for _ in range(5)]
    # pairs within 2h that one LSCV pass keeps, averaged over the default
    # 40-bandwidth grid of cv_bandwidth
    xs = np.sort(sample.values)
    pairs = [int((np.searchsorted(xs, xs + 2.0 * h, side="right") - np.arange(1, n + 1)).sum())
             for h in np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40)]
    return {f"baseline_kernel.kernel_rot_ms.n{n}": _median_ms(rot),
            f"baseline_kernel.kernel_cv_ms.n{n}": _median_ms(cv),
            f"baseline_kernel.lscv_score_ms.n{n}": _median_ms(lscv),
            f"baseline_kernel.pairs_per_lscv.n{n}": statistics.mean(pairs)}


def _adapter(sample, tables) -> dict:
    """Extra time and coefficient passes of the CLI's CV adapter per fit."""
    extra, passes = [], 0
    for _ in range(_reps(sample.n)):
        tracer = Tracer()
        tracer.patch(cli, "fit_cv", "cross_validation.fit_cv")
        tracer.patch(cli, "empirical_coefficients", "estimator.empirical_coefficients")
        tracer.patch_factory(cli, "make_fit", "cli.fit")
        try:
            cli.make_fit("STCV", tables, GRID_POINTS)(sample)
        finally:
            tracer.restore()
        by = tracer.summary(1.0, 1)["by_name"]
        extra.append(by["cli.fit"]["total_ms"] - by["cross_validation.fit_cv"]["total_ms"])
        passes = sum(by[k]["calls"] for k in
                     ("cross_validation.fit_cv", "estimator.empirical_coefficients") if k in by)
    return {"cli.cv_adapter_extra_ms": statistics.median(extra),
            "cli.coeff_passes_per_fit": passes,
            "cli.coeff_useful_ratio": 1.0 / passes}
