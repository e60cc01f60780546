"""Epanechnikov kernel density estimation with plug-in and CV bandwidths."""

from __future__ import annotations

import math
import numbers
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
        if not isinstance(self.grid_points, numbers.Integral) or self.grid_points < 2:
            raise ValueError(f"grid_points must be an integer >= 2, got {self.grid_points!r}")


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


# (K * K)(a) = sum of c a^k over the items (k, c), for a = |t| <= 2: the
# expansion of 3/160 (2 - a)^3 (a^2 + 6a + 4)
_SELFCONV = {0: 0.6, 2: -0.75, 3: 0.375, 5: -0.01875}


def kernel_estimate(sample: Sample, config: KernelConfig = KernelConfig()) -> DensityEstimate:
    """f_h(g) = (nh)^-1 sum_i K((g - X_i)/h) on a uniform grid over the support.

    K(u) = 0.75 (1 - u^2) on |u| <= 1 is a quadratic, so f_h(g) needs only
    the count c and the sums S1, S2 of y and y^2 over g's window, the sample
    points within h of g, which two binary searches find in the sorted
    sample: f_h(g) = 0.75/(nh) max(0, c - (c g'^2 - 2 g' S1 + S2)), with
    y = (x - o)/h and g' = (g - o)/h. The grid is cut into blocks no wider
    than h, o is each block's first grid point, and a block's running sums
    (_running_sums) span its points' windows, so 0 <= g' <= 1, -1 <= y <= 2,
    and the cancellation costs a few ulps of c. The windows are exact
    (_reach), so no term is negative, and a grid point with an empty window
    reads +0.0.
    """
    if config.bandwidth_rule == "rule_of_thumb":
        h = rule_of_thumb_bandwidth(sample)
    else:
        h = cv_bandwidth(sample)
    grid = np.linspace(*sample.support, config.grid_points)
    n, m = sample.n, len(grid)
    xs = np.sort(sample.values)
    lo = np.searchsorted(xs, _reach(grid, -h), side="left")
    hi = np.searchsorted(xs, _reach(grid, h), side="right")
    size = int(min(m, 1.0 + h * (m - 1) / (grid[-1] - grid[0])))  # grid points a block
    starts = np.arange(0, m, size)
    origins = grid[starts]
    sums, base = _running_sums(xs, lo[starts], hi[np.minimum(starts + size, m) - 1], origins, h, 2)
    block = np.arange(m) // size
    base = base[block]
    count, s1, s2 = sums[:, base + hi] - sums[:, base + lo]
    g = (grid - origins[block]) / h
    values = count - (count * g * g - 2.0 * g * s1 + s2)
    np.maximum(values, 0.0, out=values)
    values *= 0.75 / (n * h)
    return DensityEstimate(grid=grid, values=values)


def _reach(g: np.ndarray, d: float) -> np.ndarray:
    """The last float from g toward g + d that lies within |d| of g: fl(g + d),
    moved one ulp back toward g where it rounded past g + d (the TwoSum error
    of g + d says where)."""
    s = g + d
    t = s - g
    past = ((g - (s - t)) + (d - t)) * d < 0
    s[past] = np.nextafter(s[past], g[past])
    return s


def _running_sums(xs: np.ndarray, starts: np.ndarray, ends: np.ndarray, origins: np.ndarray,
                  scale: float, powers: int):
    """Running sums of y^r, r = 0..powers, over blocks of the sorted sample xs.

    Block b runs over xs[starts[b]:ends[b]] with y = (xs[i] - origins[b]) / scale.
    Returns (sums, base) such that sums[r, base[b] + u], for starts[b] <= u
    <= ends[b], is the sum of y^r over starts[b] <= i < u; row 0 counts.
    A block's row starts with a zero column and is padded to the power of two
    above its length; rows of one width are cumulated together, so the
    padding never exceeds the rows. Powers are repeated products of y.
    """
    widths = 2 ** np.frexp(ends - starts + 1)[1]
    by_width = np.argsort(widths, kind="stable")
    sizes = widths[by_width]
    first = np.empty(len(starts), dtype=np.int64)
    first[by_width] = np.cumsum(sizes) - sizes
    row = np.repeat(by_width, sizes)
    sums = np.empty((powers + 1, len(row)))
    col = np.arange(len(row)) - first[row]
    sums[0] = col
    at = starts[row] + col - 1
    np.clip(at, 0, len(xs) - 1, out=at)
    np.subtract(xs[at], origins[row], out=sums[1])
    sums[1] /= scale
    sums[1, first] = 0.0
    for r in range(2, powers + 1):
        np.multiply(sums[r - 1], sums[1], out=sums[r])
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    for a, b in zip(cuts, cuts[1:]):
        start, width = int(first[by_width[a]]), int(sizes[a])
        matrix = sums[1:, start:start + (b - a) * width].reshape(powers, b - a, width)
        np.cumsum(matrix, axis=-1, out=matrix)
    return sums, first - starts


def _over_h(sums: np.ndarray, hs: np.ndarray, k: int) -> np.ndarray:
    """sums / h^k, by k divisions, so no power of h under- or overflows."""
    for _ in range(k):
        sums = sums / hs
    return sums


def _level_sums(xs: np.ndarray, hs: np.ndarray, w: float) -> np.ndarray:
    """Pair counts and distance power sums at the bandwidths hs of one block width w.

    For c = 2h, rows 0-3 hold the count and the sums of d^2, d^3 and d^5
    over the pairs i < j of the sorted sample with xs[j] <= xs[i] + c,
    d = xs[j] - xs[i]; for c = h, rows 4-5 hold the count and the sum of d^2.

    The sample is cut into blocks, the cells of width w from xs[0]. A
    block's row runs from its first point o to the last point that any of
    its points reaches, and holds the running count and the running sums of
    y^r = (x - o)^r, r = 1..5. A point i reads its block's row at i and at
    its last partner u - 1, found by a binary search for xs[i] + c; the sums
    of d^m = (y_j - y_i)^m over (i, u) then follow from the binomial
    expansion. The rows are laid out and cumulated by _running_sums.

    The bits of each h's sums depend on xs, w and h alone: a running sum
    reads only its row up to there, the expansion is elementwise in (h,
    point), and each h's terms are summed along their own contiguous row.
    """
    n = len(xs)
    cells = np.floor((xs - xs[0]) / w)
    new = cells[1:] != cells[:-1]
    block = np.concatenate(([0], np.cumsum(new)))
    starts = np.flatnonzero(np.concatenate(([True], new)))
    lasts = np.append(starts[1:], n) - 1
    ends = np.searchsorted(xs, xs[lasts] + 2.0 * hs.max(), side="right")
    rows, base = _running_sums(xs, starts, ends, xs[starts], 1.0, 5)
    base = base[block]  # rows[:, base[i] + u]: block(i)'s sums over its points below u
    origin = starts[block]
    t = xs[origin] - xs  # -y_i
    # d^m is the sum over r of C(m, r) t^(m-r) y_j^r; the part of each
    # running sum up to i itself is one value per point, subtracted once
    tp = [np.ones(n), t]
    for _ in range(4):
        tp.append(tp[-1] * t)
    coef = {m: np.array([math.comb(m, r) * tp[m - r] for r in range(m + 1)]) for m in (2, 3, 5)}
    low = rows[:, base + np.arange(1, n + 1)]
    fold = {m: np.einsum("ri,ri->i", coef[m], low[:m + 1]) for m in coef}
    out = np.empty((6, len(hs)))
    chunk = max(1, 2**12 // n)  # chunks of about 4096 reads keep them in cache
    for a in range(0, len(hs), chunk):
        h = hs[a:a + chunk]
        for c, ms, into in ((2.0 * h, (2, 3, 5), slice(0, 4)), (h, (2,), slice(4, 6))):
            upper = np.searchsorted(xs, xs + c[:, None], side="right")
            sums = rows[:ms[-1] + 1].take(upper + base, axis=1)
            out[into, a:a + len(h)] = [sums[0].sum(axis=1) - low[0].sum()] + [
                (np.einsum("rki,ri->ki", sums[:m + 1], coef[m]) - fold[m]).sum(axis=1)
                for m in ms]
    return out


def _lscv_scores(sample: Sample, hs: np.ndarray) -> list[float]:
    """LSCV scores at the bandwidths hs, in any order, from block-local prefix sums.

    With a = d/h, (K * K)(a) is a polynomial in a (_SELFCONV) and K(a) is
    0.75 (1 - a^2), so a score needs only the count and the sums of d^2, d^3
    and d^5 over the pairs with xs[j] <= xs[i] + 2h, and the count and the
    sum of d^2 over those with xs[j] <= xs[i] + h (_level_sums). Each h
    takes the block width w = 4^floor(log4 2h), so w <= 2h < 4w: every
    |y| stays below 4h, the binomial terms of d^m below (6h)^m, and the
    cancellation costs a bounded number of ulps of h^m a pair, on any
    sample. The width depends on h alone, so each score equals
    lscv_score's bit for bit, whatever the other bandwidths.
    """
    if sample.n < 2:
        raise ValueError("leave-one-out score needs n >= 2")
    n = sample.n
    xs = np.sort(sample.values)
    hs = np.asarray(hs, dtype=float)
    level = (np.frexp(2.0 * hs)[1] - 1) // 2
    sums = np.empty((6, len(hs)))
    for k in np.unique(level).tolist():
        at = level == k
        sums[:, at] = _level_sums(xs, hs[at], math.ldexp(1.0, 2 * k))
    within, s2_within, s3, s5, near, s2_near = sums
    sum_k = 0.75 * (near - _over_h(s2_near, hs, 2))
    sum_kk = (_SELFCONV[0] * within + _SELFCONV[2] * _over_h(s2_within, hs, 2)
              + _SELFCONV[3] * _over_h(s3, hs, 3) + _SELFCONV[5] * _over_h(s5, hs, 5))
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
