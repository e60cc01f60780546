"""Epanechnikov kernel density estimation with plug-in and CV bandwidths."""

from __future__ import annotations

import math
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

_RULES = ("rule_of_thumb", "cv")


@dataclass(frozen=True)
class KernelConfig:
    bandwidth_rule: str = "rule_of_thumb"
    grid_points: int = 4096

    def __post_init__(self):
        if self.bandwidth_rule not in _RULES:
            raise ValueError(f"bandwidth_rule must be one of {_RULES}")


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


def _epanechnikov(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.75 (1 - u^2) where |u| <= 1, else +0.0; out may be u itself.

    For finite u, u*u > 1 exactly when |u| > 1, so clipping 0.75 (1 - u*u)
    at 0 gives the same bits as testing |u| and every zero is +0.0.
    """
    out = np.square(u, out=out)
    np.subtract(1.0, out, out=out)
    out *= 0.75
    return np.maximum(out, 0.0, out=out)


# (K * K)(a) = sum of c a^k over the items (k, c), for a = |t| <= 2: the
# expansion of 3/160 (2 - a)^3 (a^2 + 6a + 4)
_SELFCONV = {0: 0.6, 2: -0.75, 3: 0.375, 5: -0.01875}


def _epanechnikov_selfconv(t: np.ndarray) -> np.ndarray:
    """(K * K)(t) for the Epanechnikov kernel, supported on [-2, 2]."""
    a = np.abs(t)
    val = sum(c * a**k for k, c in _SELFCONV.items())
    return np.where(a <= 2.0, val, 0.0)


def kernel_estimate(sample: Sample, config: KernelConfig = KernelConfig()) -> DensityEstimate:
    """f_h(x) = (nh)^-1 sum_i K((x - X_i)/h) on a uniform grid over the support.

    The grid is taken in blocks of min(64, 2^16 // n) rows, so a block's
    window spans at most 63 grid steps plus 2 pad. A block evaluates the
    kernel only on its window: the sorted sample values in
    [fl(g_first - pad), fl(g_last + pad)], found by two searchsorted calls,
    with pad = h + 1e-9 (h + s) and s = max(|lo|, |hi|). It writes those
    values at their sample positions into a zero-filled n-column buffer,
    sums every full row, and zeroes the written cells again.

    This gives the bits of the dense evaluation of every (grid, sample) pair.
    For x outside the window and any row g of the block, fl(g_first - pad)
    and fl(g_last + pad) are within 2^-52 (s + pad) of their exact values, so
    |g - x| > pad - 2^-52 (s + pad) > h (1 + 1e-10). Then
    fl(fl(g - x)/h)^2 > 1, where _epanechnikov gives +0.0: the buffer's
    zero. A window that errs wide only adds columns whose kernel is also
    computed, so each row holds the dense row's n values in sample order,
    and rows.sum(axis=1) adds them by the same pairwise tree.
    """
    if config.bandwidth_rule == "rule_of_thumb":
        h = rule_of_thumb_bandwidth(sample)
    else:
        h = cv_bandwidth(sample)
    grid = np.linspace(*sample.support, config.grid_points)
    values = np.empty(len(grid))
    n = sample.n
    order = np.argsort(sample.values)
    xs = sample.values[order]
    pad = h + 1e-9 * (h + max(abs(grid[0]), abs(grid[-1])))
    chunk = max(1, min(64, 2**16 // n))
    starts = np.arange(0, len(grid), chunk)
    lows = np.searchsorted(xs, grid[starts] - pad, side="left")
    highs = np.searchsorted(xs, grid[np.minimum(starts + chunk, len(grid)) - 1] + pad,
                            side="right")
    rows = np.zeros((min(chunk, len(grid)), n))
    cells = rows.reshape(-1)
    row_offsets = np.arange(len(rows))[:, None] * n
    for start, lo, hi in zip(starts.tolist(), lows.tolist(), highs.tolist()):
        g = grid[start:start + chunk]
        u = np.subtract(g[:, None], xs[lo:hi])
        u /= h
        flat = row_offsets[:len(g)] + order[lo:hi]
        cells[flat] = _epanechnikov(u, out=u)
        values[start:start + chunk] = rows[:len(g)].sum(axis=1)
        cells[flat] = 0.0
    values /= n * h
    return DensityEstimate(grid=grid, values=values)


def _prefix_sums(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """p[:c].sum() for each c in counts, in counts' shape.

    Each whole 4096-value block of p is summed pairwise and the block sums are
    chained; the partial block is summed on its own. So each value depends on
    p[:c] alone, never on the other counts or on what follows in p, and its
    error stays near the pairwise sum's rather than a running sum's.
    """
    block = 4096
    whole = p[:len(p) // block * block].reshape(-1, block).sum(axis=1)
    chained = np.concatenate(([0.0], np.cumsum(whole)))
    return np.reshape([chained[c // block] + p[c // block * block:c].sum()
                       for c in counts.ravel()], counts.shape)


def _over_h(sums: np.ndarray, hs: np.ndarray, k: int) -> np.ndarray:
    """sums / h^k, by k divisions, so no power of h under- or overflows."""
    for _ in range(k):
        sums = sums / hs
    return sums


def _lscv_scores(sample: Sample, hs: np.ndarray) -> list[float]:
    """LSCV scores at the ascending bandwidths hs, from one sorted list of
    pair distances.

    With a = d/h, (K * K)(a) is a polynomial in a (_SELFCONV) and K(a) is
    0.75 (1 - a^2), so a score needs only the count and the sums of d^2, d^3
    and d^5 over the pairs with d <= 2h, and the same for d^2 over d <= h.
    On the sorted distances these are prefix sums, read at the index
    searchsorted gives for 2h (and h). Neither the list nor a prefix sum
    depends on the other bandwidths: the list holds every pair within
    2 max(hs), plus a slack far above the rounding of xs + reach, so each
    score equals lscv_score's bit for bit.
    """
    if sample.n < 2:
        raise ValueError("leave-one-out score needs n >= 2")
    n = sample.n
    xs = np.sort(sample.values)
    top = 2.0 * hs[-1]
    reach = top + 1e-9 * (top + max(-xs[0], xs[-1]))
    upper = np.searchsorted(xs, xs + reach, side="right")
    d = np.concatenate([xs[i + 1:u] - xs[i] for i, u in enumerate(upper)])
    d.sort()
    within = np.searchsorted(d, 2.0 * hs, side="right")  # pairs with d <= 2h
    near = np.searchsorted(d, hs, side="right")  # pairs with d <= h
    power = d * d
    s2_within, s2_near = _prefix_sums(power, np.stack((within, near)))
    sum_k = 0.75 * (near - _over_h(s2_near, hs, 2))
    sum_kk = _SELFCONV[0] * within + _SELFCONV[2] * _over_h(s2_within, hs, 2)
    power *= d
    sum_kk += _SELFCONV[3] * _over_h(_prefix_sums(power, within), hs, 3)
    power *= d
    power *= d
    sum_kk += _SELFCONV[5] * _over_h(_prefix_sums(power, within), hs, 5)
    sq_norm = (_SELFCONV[0] * n + 2.0 * sum_kk) / (n * n * hs)
    loo = 2.0 * sum_k / ((n - 1) * hs)
    return (sq_norm - 2.0 * loo / n).tolist()


def lscv_score(sample: Sample, h: float) -> float:
    """Least-squares CV score: integral of f_h^2 minus (2/n) sum_i f_{h,-i}(X_i).

    Both terms are closed forms in the pairwise distances d: the squared norm
    sums the kernel's polynomial self-convolution over the pairs with
    d <= 2h, the leave-one-out term sums K(d/h) over those with d <= h.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return _lscv_scores(sample, np.array([float(h)]))[0]


def cv_bandwidth(sample: Sample) -> float:
    """Bandwidth minimizing the LSCV score over 40 log-spaced candidates
    between h_rot/10 and 3 h_rot; ties break toward the smaller bandwidth."""
    h_rot = rule_of_thumb_bandwidth(sample)
    candidates = np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40)
    return float(candidates[int(np.argmin(_lscv_scores(sample, candidates)))])
