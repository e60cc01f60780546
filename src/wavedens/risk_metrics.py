"""Distances, Monte-Carlo risk aggregation, and the covariance-decay diagnostic."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cross_validation import CvSelection
from .estimator import DensityEstimate, Sample
from .processes import ProcessSpec, TargetDensity, derived_seed, simulate
from .wavelet_basis import WaveletTables

__all__ = [
    "Fit",
    "RiskReport",
    "DecayProfile",
    "lp_distance",
    "monte_carlo_risks",
    "integrated_moments",
    "covariance_decay",
]


@dataclass(frozen=True)
class Fit:
    """One method's estimate on one sample and the levels it chose.

    A kernel fit sets only the estimate. `killed_fraction` is 1.0 above j1;
    HTCV and STCV keep their CvSelection in `diagnostics`.
    """

    estimate: DensityEstimate
    j1: int | None = None
    lambdas: dict[int, float] | None = None
    killed_fraction: dict[int, float] | None = None
    diagnostics: CvSelection | None = None


# A fit maps one replicate's sample to its Fit.
FitFunction = Callable[[Sample], Fit]


@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo risk summary for one method on one sampling regime."""

    method: str
    case: str
    n: int
    replicates: int
    mise: float | None
    lp_risks: dict[float, float]
    mean_j1: float | None = None
    threshold_profile: dict[int, float] | None = None
    thresholded_fraction: dict[int, float] | None = None
    integrated_moments: dict[int, float] | None = None
    moment_clamps: int = 0

    def __post_init__(self):
        if self.mise is not None and self.mise < 0:
            raise ValueError("negative mise")
        if any(v < 0 for v in self.lp_risks.values()):
            raise ValueError("negative lp risk")
        if self.thresholded_fraction is not None and any(
            not 0.0 <= v <= 1.0 for v in self.thresholded_fraction.values()
        ):
            raise ValueError("thresholded fraction outside [0, 1]")

    def to_dict(self) -> dict:
        """The fields as JSON; each dict is keyed by str in ascending key order."""
        return {name: {str(k): v[k] for k in sorted(v)} if isinstance(v, dict) else v
                for name, v in asdict(self).items()}


@dataclass(frozen=True)
class DecayProfile:
    """Empirical autocovariance of a probe function along the sample path."""

    lags: np.ndarray
    covariances: np.ndarray
    variance: float
    floor: np.ndarray
    slope: float | None
    sub_noise: bool

    def __post_init__(self):
        lags = np.asarray(self.lags)
        if lags.size == 0 or lags[0] < 1 or np.any(np.diff(lags) <= 0):
            raise ValueError("lags must be strictly increasing and >= 1")


def lp_distance(estimate: DensityEstimate, truth: TargetDensity, p: float) -> float:
    """(integral |g - f|^p)^(1/p) by trapezoid quadrature on the estimate grid."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    lo, hi = truth.support
    grid = estimate.grid
    if grid[0] > lo or grid[-1] < hi:
        raise ValueError(
            f"estimate grid [{grid[0]}, {grid[-1]}] does not cover the "
            f"target support [{lo}, {hi}]"
        )
    diff = np.abs(estimate.values - truth.on_grid(grid))
    return float(np.trapezoid(diff**p, grid) ** (1.0 / p))


def integrated_moments(estimates: Sequence[DensityEstimate], k: int) -> tuple[float, int]:
    """integral over (a, b) of (mean across replicates of g^k)^(1/k).

    (a, b) is (lo + 0.01 (hi - lo), hi) of the shared grid [lo, hi], which is
    (0.01, 1.0) on the unit interval.
    Returns (value, clamp_count). For odd k >= 3 the pointwise mean of g^k can
    dip below zero (wavelet estimates are not nonnegative); those points are
    clamped to 0 before the k-th root and counted. k = 1 integrates the
    signed pointwise mean directly and is never clamped.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if not estimates:
        raise ValueError("need at least one estimate")
    grid = estimates[0].grid
    for est in estimates[1:]:
        if not np.array_equal(est.grid, grid):
            raise ValueError("estimates must share a common grid")
    stack = np.stack([est.values for est in estimates])
    return _moment_integral(grid, (stack**k).mean(axis=0), k)


def _moment_integral(grid: np.ndarray, moment: np.ndarray, k: int) -> tuple[float, int]:
    """integrated_moments' (value, clamp_count) of the pointwise mean `moment` of g^k."""
    a = grid[0] + 0.01 * (grid[-1] - grid[0])
    inside = grid > a
    xs = np.concatenate([[a], grid[inside]])
    ys = np.concatenate([[np.interp(a, grid, moment)], moment[inside]])
    clamps = 0
    if k == 1:
        integrand = ys
    elif k % 2 == 1:
        clamps = int((ys < 0).sum())
        integrand = np.maximum(ys, 0.0) ** (1.0 / k)
    else:
        integrand = np.abs(ys) ** (1.0 / k)
    return float(np.trapezoid(integrand, xs)), clamps


def monte_carlo_risks(spec: ProcessSpec, fits: dict[str, FitFunction], M: int,
                      p_list: Sequence[float] = (2.0,),
                      moment_orders: Sequence[int] = ()) -> list[RiskReport]:
    """Simulate M replicates, fit each with every method, and aggregate risks.

    Replicate r uses derived_seed(spec.seed, r); replicates run one after another,
    in replicate order. Each replicate's sample is simulated once and fitted
    by every method in dict order, and the reports come back in that order.
    Risks are measured against spec.target; a spec without one (lsv) gets
    only selection statistics and moments. No estimate outlives its replicate:
    a method keeps its selections, Lp distances and one sum of g^k per order k.
    """
    if M < 2:
        raise ValueError(f"need M >= 2 replicates, got M={M}")
    if any(k < 1 for k in moment_orders):
        raise ValueError(f"moment order must be >= 1, got {min(moment_orders)}")
    truth = spec.target
    norms = sorted(set(p_list) | {2.0}) if truth is not None else []

    # per method: each replicate's (j1, lambdas, killed_fraction) and Lp distances
    done = {method: ([], [], {}) for method in fits}  # and {k: running sum of g^k}
    grids = {}  # per method: its first estimate's grid
    for r in range(M):
        seed = derived_seed(spec.seed, r)
        method = "simulate"
        try:
            sample = simulate(replace(spec, seed=seed))
            for method, fit in fits.items():
                result = fit(sample)
                est = result.estimate
                picks, dists, sums = done[method]
                picks.append((result.j1, result.lambdas, result.killed_fraction))
                dists.append({p: lp_distance(est, truth, p) for p in norms})
                grid = grids.setdefault(method, est.grid)
                if moment_orders and not np.array_equal(est.grid, grid):
                    raise ValueError("estimates must share a common grid")
                for k, total in sums.items():
                    total += est.values**k
                if r == 0:  # replicate 0's terms start each sum, as in numpy's axis-0 mean
                    sums.update({k: est.values**k for k in moment_orders})
        except Exception as exc:
            raise RuntimeError(
                f"replicate {r} (seed {seed}) failed for {method}: {exc}") from exc
    return [_report(spec, method, *done[method], grids[method], p_list, moment_orders)
            for method in fits]


def _report(spec: ProcessSpec, method: str, picks: list[tuple], dists: list[dict],
            sums: dict[int, np.ndarray], grid: np.ndarray,
            p_list: Sequence[float], moment_orders: Sequence[int]) -> RiskReport:
    """One method's RiskReport from its kept selections, Lp distances and sums of g^k."""
    j1s, lambdas, killed = zip(*picks)
    mise = None
    lp_risks: dict[float, float] = {}
    if spec.target is not None:
        mise = float(np.mean([d[2.0] ** 2 for d in dists]))
        lp_risks = {p: float(np.mean([d[p] ** p for d in dists]) ** (1.0 / p))
                    for p in p_list}

    moments = None
    clamps = 0
    if moment_orders:
        moments = {}
        for k in moment_orders:
            moments[k], c = _moment_integral(grid, sums[k] / len(picks), k)
            clamps += c

    return RiskReport(
        method=method,
        case=spec.case,
        n=spec.n,
        replicates=len(picks),
        mise=mise,
        lp_risks=lp_risks,
        mean_j1=None if None in j1s else float(np.mean(j1s)),
        threshold_profile=_level_means(lambdas),
        thresholded_fraction=_level_means(killed),
        integrated_moments=moments,
        moment_clamps=clamps,
    )


def _level_means(per_fit: Sequence[dict | None]) -> dict[int, float] | None:
    """Replicate mean of a per-level dict, or None when any fit lacks it."""
    if any(d is None for d in per_fit):
        return None
    return {j: float(np.mean([d[j] for d in per_fit])) for j in sorted(per_fit[0])}


def covariance_decay(sample: Sample, tables: WaveletTables, j: int, k: int,
                     max_lag: int) -> DecayProfile:
    """Autocovariance of delta(X_i) = phi_{j,k}(X_i) over lags 1..max_lag.

    c_hat(r) = (n-r)^-1 sum_i delta~(X_i) delta~(X_{i+r}) with delta~ centered
    by the sample mean. The per-lag noise floor is three standard errors of
    the lag products; the log-log slope is fitted over lags in [5, max_lag]
    whose |c_hat| clears the floor. Fewer than 3 usable lags leaves the slope
    absent; when at most 5% of all lags clear the floor the profile is
    flagged sub_noise (covariances indistinguishable from an iid sequence).
    """
    n = sample.n
    if not 1 <= max_lag <= n // 4:
        raise ValueError(f"max_lag must be in [1, n/4], got {max_lag} with n={n}")
    delta = tables.eval("phi", j, k, sample.values)
    delta = delta - delta.mean()
    variance = float(np.mean(delta * delta))

    lags = np.arange(1, max_lag + 1)
    covs = np.empty(max_lag)
    floor = np.empty(max_lag)
    for i, r in enumerate(lags):
        prods = delta[:-r] * delta[r:]
        covs[i] = prods.mean()
        floor[i] = 3.0 * prods.std() / math.sqrt(n - r)

    above = np.abs(covs) > floor
    sub_noise = above.mean() <= 0.05
    fit_mask = above & (lags >= 5)
    slope = None
    if fit_mask.sum() >= 3:
        slope = float(np.polyfit(np.log(lags[fit_mask]), np.log(np.abs(covs[fit_mask])), 1)[0])
    return DecayProfile(lags=lags, covariances=covs, variance=variance,
                        floor=floor, slope=slope, sub_noise=sub_noise)
