"""Empirical wavelet coefficients, thresholding, and reconstruction.

The estimator is the classical thresholded wavelet series: scaling
coefficients at a coarse level j0, detail coefficients up to a level j1, with
detail coefficients shrunk by a hard or soft rule before synthesis on a grid.
Scaling coefficients are never thresholded.

Both the level sums and the synthesis read the wavelet tables through their
polyphase form (WaveletTables.polyphase): one residue per point, then one
gather per tap. A level sum is one np.bincount over the tap-major (2N, n)
index array; a synthesis adds the 2N taps in turn, each a run-length fill (np.repeat)
of coefficients over the grid's runs times that tap's weights on the grid. The
runs and weights depend only on (kind, level, grid), so WaveletTables.grid_weights
builds them once per tables object and keeps them: 2N * points * 8 bytes per
entry, 512 KiB for sym8 on the 4096-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .wavelet_basis import WaveletTables

__all__ = [
    "Sample",
    "CoefficientLevel",
    "CoefficientSet",
    "ThresholdPlan",
    "DensityEstimate",
    "empirical_coefficients",
    "hard_threshold",
    "soft_threshold",
    "theoretical_plan",
    "apply_plan",
    "reconstruct",
]


@dataclass(frozen=True)
class Sample:
    """An ordered sample (time order is meaningful) on a known support."""

    values: np.ndarray
    support: tuple[float, float]
    # cross_validation's level records of this sample, one per tables object
    _cv: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"support must be finite with lo < hi, got [{lo}, {hi}]")
        if vals.ndim != 1:
            raise ValueError(f"sample values must be 1-D, got shape {vals.shape}")
        if vals.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample contains non-finite values")
        if vals.min() < lo or vals.max() > hi:
            raise ValueError(
                f"sample values outside declared support [{lo}, {hi}]: "
                f"range [{vals.min()}, {vals.max()}]"
            )

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CoefficientLevel:
    """Coefficients at one level: values[i] belongs to translate k_min + i."""

    j: int
    k_min: int
    values: np.ndarray

    def k_values(self) -> np.ndarray:
        return self.k_min + np.arange(len(self.values))


@dataclass(frozen=True)
class CoefficientSet:
    """Scaling coefficients at j0 = scaling.j plus detail levels j0..jmax.

    `details` is ordered by level; it may be empty for a pure scaling-level
    projection. Each level stores every translate of tables.k_range(j,
    *support), its first and last two included, which meet the support at most at an end.
    """

    scaling: CoefficientLevel
    details: tuple[CoefficientLevel, ...]
    support: tuple[float, float]

    @property
    def jmax(self) -> int:
        return self.details[-1].j if self.details else self.scaling.j - 1

    def detail(self, j: int) -> CoefficientLevel:
        for lev in self.details:
            if lev.j == j:
                return lev
        raise KeyError(f"no detail level j={j}")

    def zero_fractions(self) -> dict[int, float]:
        """Each detail level's share of zero coefficients."""
        return {lev.j: float(np.mean(lev.values == 0.0)) for lev in self.details}


@dataclass(frozen=True)
class ThresholdPlan:
    """One threshold for each detail level j0..j1; j1 is the highest retained level."""

    mode: str  # hard | soft
    lambdas: dict[int, float]
    j0: int
    j1: int

    def __post_init__(self):
        if self.mode not in ("hard", "soft"):
            raise ValueError(f"threshold mode must be hard or soft, got {self.mode!r}")
        if self.j1 < self.j0:
            raise ValueError(f"plan has j1={self.j1} < j0={self.j0}")
        if sorted(self.lambdas) != list(range(self.j0, self.j1 + 1)):
            raise ValueError(f"plan needs one lambda for each level {self.j0}..{self.j1}, "
                             f"got levels {sorted(self.lambdas)}")
        for lam in self.lambdas.values():
            _check_threshold(lam)


@dataclass(frozen=True)
class DensityEstimate:
    """A function tabulated on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        steps = np.diff(self.grid)
        if len(self.grid) < 2 or steps.min() <= 0:
            raise ValueError("grid must be strictly increasing")
        if not np.abs(steps - steps[0]).max() <= 1e-9 * abs(steps[0]):
            raise ValueError("grid must be uniform")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("estimate contains non-finite values")

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def _level_lookups(tables: WaveletTables, kind: str, j: int,
                   sample: Sample) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(k_min, size, i, w): the translates k_min..k_min + size - 1 that meet
    the support, which hold every tap, and each tap's (i = k - k_min, w) for
    the sample points, tap-major.

    np.bincount(i, w, minlength=size) then adds each translate's weights tap
    by tap, each tap in sample order; the zero weights of taps off the table
    leave a bin as it is, since bins start at +0.0. The 2^(j/2) dilation
    factor is not applied.
    """
    k_min, k_max = tables.k_range(j, *sample.support)
    poly = tables.polyphase(kind)
    kbase, rho = tables.residues(j, sample.values)
    i = (kbase - k_min)[None, :] + np.arange(len(poly))[:, None]
    return k_min, k_max - k_min + 1, i.ravel(), poly.take(rho, axis=1).ravel()


def _synthesize_level(tables: WaveletTables, kind: str, lev: CoefficientLevel,
                      grid: tuple[float, float, int]) -> np.ndarray:
    """sum_k c_k * (phi|psi)_{j,k}(x) for one coefficient level, x the points of
    np.linspace(*grid). Tap t reads c[k0 + i + t] over the i-th run of points
    times the tap's weights, which grid_weights keeps per (kind, level, grid)
    on the tables object: 2N * points * 8 bytes, shared by every later fit.

    The level must hold every translate a tap reaches, as each level over the
    grid's support does; any other level is refused. A zero coefficient or a
    tap off the table adds +-0.0, which leaves out as it is: out starts at
    +0.0, so it never holds -0.0.
    """
    k0, weights, counts = tables.grid_weights(kind, lev.j, *grid)
    first, m = k0 - lev.k_min, len(counts)
    if first < 0 or len(lev.values) < first + m - 1 + len(weights):
        raise ValueError(f"level j={lev.j} lacks translates in {k0}..{k0 + m - 2 + len(weights)}")
    out = np.zeros(weights.shape[1])
    for t, w in enumerate(weights):
        tmp = lev.values[first + t:first + t + m].repeat(counts)
        tmp *= w
        out += tmp
    out *= 2.0 ** (lev.j / 2)
    return out


def empirical_coefficients(sample: Sample, tables: WaveletTables,
                           j0: int, jmax: int) -> CoefficientSet:
    """Empirical coefficients n^-1 sum_i phi_{j,k}(X_i) (resp. psi).

    Detail levels run from j0 to jmax inclusive; jmax = j0 - 1 gives a pure
    scaling-level set.
    """
    if jmax < j0 - 1:
        raise ValueError(f"jmax={jmax} below j0-1 with j0={j0}")

    def level(kind: str, j: int) -> CoefficientLevel:
        k_min, size, i, w = _level_lookups(tables, kind, j, sample)
        S = np.bincount(i, w, minlength=size)
        return CoefficientLevel(j=j, k_min=k_min, values=2.0 ** (j / 2) * S / sample.n)

    return CoefficientSet(
        scaling=level("phi", j0),
        details=tuple(level("psi", j) for j in range(j0, jmax + 1)),
        support=sample.support,
    )


def _check_threshold(lam) -> None:
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"negative or non-finite threshold {lam}")


def hard_threshold(beta, lam):
    """beta if |beta| > lam else 0 (strict inequality)."""
    _check_threshold(lam)
    b = np.asarray(beta, dtype=np.float64)
    out = np.where(np.abs(b) > lam, b, 0.0)
    return float(out) if b.ndim == 0 else out


def soft_threshold(beta, lam):
    """sign(beta) * max(|beta| - lam, 0)."""
    _check_threshold(lam)
    b = np.asarray(beta, dtype=np.float64)
    out = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    return float(out) if b.ndim == 0 else out


def _coarse_level(n: int, N: int) -> int:
    """j0, the smallest integer larger than ln(n) / (1 + N)."""
    return math.floor(math.log(n) / (1 + N)) + 1


def theoretical_plan(n: int, N: int, b: float, K: float, mode: str = "hard") -> ThresholdPlan:
    """The theoretical schedule: j0, j1 and lambda_j = K sqrt(j/n).

    j0 is the smallest integer larger than ln(n)/(1+N) and j1 the largest
    integer smaller than log2(n * ln(n)**(-2/b - 3)). Small n (or small b)
    leaves no room between j0 and j1, which raises a degenerate-schedule
    error.
    """
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    if N < 1 or not (b > 0 and math.isfinite(b)) or not (K > 0 and math.isfinite(K)):
        raise ValueError(f"need N >= 1 and finite b > 0, K > 0, got N={N}, b={b}, K={K}")
    j0 = _coarse_level(n, N)
    w = (math.log(n) + (-2.0 / b - 3.0) * math.log(math.log(n))) / math.log(2.0)
    j1 = math.ceil(w) - 1
    if j1 < j0:
        raise ValueError(
            f"degenerate schedule: j1={j1} < j0={j0} for n={n}, b={b} (n too small)"
        )
    lambdas = {j: K * math.sqrt(j / n) for j in range(j0, j1 + 1)}
    return ThresholdPlan(mode=mode, lambdas=lambdas, j0=j0, j1=j1)


def apply_plan(coeffs: CoefficientSet, plan: ThresholdPlan) -> CoefficientSet:
    """Threshold each detail level j0..j1, exactly the set's levels; keep scaling."""
    levels = [lev.j for lev in coeffs.details]
    if levels != list(range(plan.j0, plan.j1 + 1)):
        raise ValueError(f"plan levels {plan.j0}..{plan.j1} do not match the "
                         f"stored detail levels {levels}")
    gamma = hard_threshold if plan.mode == "hard" else soft_threshold
    return replace(coeffs, details=tuple(
        replace(lev, values=gamma(lev.values, plan.lambdas[lev.j])) for lev in coeffs.details))


def reconstruct(coeffs: CoefficientSet, tables: WaveletTables,
                grid_points: int = 4096) -> DensityEstimate:
    """Synthesize the coefficient set on a uniform grid over its support."""
    if grid_points < 64:
        raise ValueError(f"grid_points must be at least 64, got {grid_points}")
    spec = (*coeffs.support, grid_points)
    values = _synthesize_level(tables, "phi", coeffs.scaling, spec)
    for lev in coeffs.details:
        if np.any(lev.values != 0.0):
            values += _synthesize_level(tables, "psi", lev, spec)
    return DensityEstimate(grid=np.linspace(*spec), values=values)
