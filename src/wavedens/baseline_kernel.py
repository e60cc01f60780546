"""Epanechnikov kernel density estimation with plug-in and CV bandwidths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import DensityEstimate, Sample

__all__ = [
    "KernelConfig",
    "rule_of_thumb_bandwidth",
    "kernel_estimate",
    "cv_bandwidth",
    "lscv_score",
]

_RULES = ("rule_of_thumb", "cv", "fixed")


@dataclass(frozen=True)
class KernelConfig:
    bandwidth_rule: str = "rule_of_thumb"
    h: float | None = None
    grid_points: int = 4096

    def __post_init__(self):
        if self.bandwidth_rule not in _RULES:
            raise ValueError(f"bandwidth_rule must be one of {_RULES}")
        if self.bandwidth_rule == "fixed" and (self.h is None or self.h <= 0):
            raise ValueError("fixed bandwidth rule needs h > 0")


def rule_of_thumb_bandwidth(sample: Sample) -> float:
    """(q3 - q1)/(2 * 0.6745) * (4/(3n))^(1/5).

    Quartiles use linearly interpolated order statistics (numpy's default,
    the type-7 convention).
    """
    if sample.n < 4:
        raise ValueError(f"need at least 4 observations, got {sample.n}")
    q1, q3 = np.percentile(sample.values, [25, 75])
    if q3 <= q1:
        raise ValueError("zero interquartile range")
    return float((q3 - q1) / (2 * 0.6745) * (4.0 / (3.0 * sample.n)) ** 0.2)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _epanechnikov_selfconv(t: np.ndarray) -> np.ndarray:
    """(K * K)(t) for the Epanechnikov kernel, supported on [-2, 2]."""
    a = np.abs(t)
    val = 3.0 / 160.0 * (2.0 - a) ** 3 * (a * a + 6.0 * a + 4.0)
    return np.where(a <= 2.0, val, 0.0)


def kernel_estimate(sample: Sample, config: KernelConfig = KernelConfig()) -> DensityEstimate:
    """f_h(x) = (nh)^-1 sum_i K((x - X_i)/h) on a uniform grid over the support."""
    if config.bandwidth_rule == "fixed":
        h = float(config.h)
        label = "kernel-fixed"
    elif config.bandwidth_rule == "rule_of_thumb":
        h = rule_of_thumb_bandwidth(sample)
        label = "kernel-1"
    else:
        h = cv_bandwidth(sample)
        label = "kernel-2"
    grid = np.linspace(*sample.support, config.grid_points)
    values = np.empty(len(grid))
    x = sample.values
    # about 2^16 kernel values per block, so the temporaries stay in cache;
    # each grid row is still one sum over the whole sample
    chunk = max(1, 2**16 // max(1, sample.n))
    for start in range(0, len(grid), chunk):
        g = grid[start:start + chunk]
        values[start:start + chunk] = _epanechnikov(
            (g[:, None] - x[None, :]) / h
        ).sum(axis=1)
    values /= sample.n * h
    return DensityEstimate(grid=grid, values=values, meta=f"{label} h={h:.6g} n={sample.n}")


def _lscv_scores(sample: Sample, hs: np.ndarray) -> list[float]:
    """LSCV scores at the ascending bandwidths hs, from one list of pairs.

    The pairs i < j of the sorted sample with xs[j] <= xs[i] + 2 max(hs) are
    built once, row by row. Going down the grid, each h keeps the pairs with
    xs[j] <= xs[i] + 2h, so every score sums the same distances in the same
    order as a list built for that h alone.
    """
    if sample.n < 2:
        raise ValueError("leave-one-out score needs n >= 2")
    n = sample.n
    xs = np.sort(sample.values)
    upper = np.searchsorted(xs, xs + 2.0 * hs[-1], side="right")
    lo = np.repeat(xs, upper - np.arange(1, n + 1))
    hi = np.concatenate([xs[i + 1:u] for i, u in enumerate(upper)])
    buf = np.empty(len(lo))
    scores = []
    for h in hs[::-1]:
        if h < hs[-1]:
            keep = hi <= lo + 2.0 * h
            lo, hi = lo[keep], hi[keep]
        d = hi - lo
        kk = buf[:len(d)]
        # 2^16 values per block, so the temporaries stay in cache; the sum
        # still runs once over the whole pair list
        for start in range(0, len(d), 2**16):
            kk[start:start + 2**16] = _epanechnikov_selfconv(d[start:start + 2**16] / h)
        sum_kk = kk.sum()
        sum_k = _epanechnikov(d[d <= h] / h).sum()
        sq_norm = (0.6 * n + 2.0 * sum_kk) / (n * n * h)
        loo = 2.0 * sum_k / ((n - 1) * h)
        scores.append(float(sq_norm - 2.0 * loo / n))
    return scores[::-1]


def lscv_score(sample: Sample, h: float) -> float:
    """Least-squares CV score: integral of f_h^2 minus (2/n) sum_i f_{h,-i}(X_i).

    Both terms are evaluated in closed form through pairwise distances; the
    squared-norm term uses the polynomial self-convolution of the kernel.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return _lscv_scores(sample, np.array([float(h)]))[0]


def cv_bandwidth(sample: Sample, candidates=None) -> float:
    """Bandwidth minimizing the LSCV score over a candidate grid.

    Defaults to 40 log-spaced candidates between h_rot/10 and 3 h_rot; ties
    break toward the smaller bandwidth.
    """
    if candidates is None:
        h_rot = rule_of_thumb_bandwidth(sample)
        candidates = np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40)
    candidates = np.sort(np.asarray(candidates, dtype=np.float64))  # NaN sorts last
    if candidates.size == 0 or not (candidates[0] > 0 and np.isfinite(candidates[-1])):
        raise ValueError("candidate bandwidths must be a nonempty, positive, finite grid")
    return float(candidates[int(np.argmin(_lscv_scores(sample, candidates)))])
