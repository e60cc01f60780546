"""Cross-validated threshold and resolution selection (HTCV / STCV).

Both criteria score a level's surviving coefficients by an unbiased risk
proxy: the squared empirical coefficient minus twice the mean over ordered
pairs of psi_{j,k}(X_i) psi_{j,k}(X_h). The soft variant adds lambda^2 per
survivor. Thresholds are chosen by exact minimization over the finite set of
values the criterion can distinguish, and the top resolution j1 is the start
of the all-zero tail of per-level minima, searched only up to the resolution
bound 2^j1 <= sqrt(n). Without the bound the hard criterion never reaches an
all-zero tail (its bracket is negative for every noise coefficient larger
than about sqrt(2) standard errors), so HTCV would keep every level up to
log2(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import (
    CoefficientLevel,
    CoefficientSet,
    DensityEstimate,
    Sample,
    ThresholdPlan,
    _check_threshold,
    _coarse_level,
    _level_lookups,
    apply_plan,
    empirical_coefficients,
    reconstruct,
)
from .wavelet_basis import WaveletTables

__all__ = [
    "CvCriterionValue",
    "CvSelection",
    "cv_criterion",
    "select_lambda",
    "select_j1",
    "fit_cv",
]

_RULES = {"HTCV": "hard", "STCV": "soft"}  # each mode's thresholding rule
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CvCriterionValue:
    """The criterion value CV_j(lam) at one level and threshold."""

    j: int
    lam: float
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"criterion value at j={self.j} is not finite")
        _check_threshold(self.lam)


@dataclass(frozen=True)
class CvSelection:
    """Selected thresholds and resolution for one sample and mode.

    `criterion_values` lists every level j0 <= j <= j_star in order, with its
    minimizing threshold and CV_j there; levels above j1_hat are dropped from
    the estimate but their selections are kept for diagnostics.
    `killed_fraction` is each level's share of zeroed coefficients (not in to_dict).
    """

    mode: str
    j0: int
    j_star: int
    j1_hat: int
    criterion_values: tuple[CvCriterionValue, ...]
    killed_fraction: dict[int, float] | None = None

    def __post_init__(self):
        if self.mode not in _RULES:
            raise ValueError(f"mode must be one of {tuple(_RULES)}, got {self.mode!r}")
        if not self.j0 <= self.j1_hat <= self.j_star:
            raise ValueError(
                f"need j0 <= j1_hat <= j_star, got {self.j0}, {self.j1_hat}, {self.j_star}"
            )
        if [cv.j for cv in self.criterion_values] != list(range(self.j0, self.j_star + 1)):
            raise ValueError("criterion_values must list the levels j0..j_star in order")

    @property
    def lambdas(self) -> dict[int, float]:
        return {cv.j: cv.lam for cv in self.criterion_values}

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "j0": self.j0,
            "j_star": self.j_star,
            "j1_hat": self.j1_hat,
            "levels": [
                {"j": cv.j, "lambda": cv.lam, "cv": cv.value}
                for cv in self.criterion_values
            ],
        }


def _level_stats(sample: Sample, tables: WaveletTables, j: int):
    """Per-translate ingredients of the criterion at one detail level.

    Returns (k_min, beta, bracket) where beta[k] is the empirical coefficient
    and bracket[k] = beta^2 - 2 (S^2 - Q) / (n (n-1)) is the survivor's
    contribution to the hard criterion, with S and Q the plain and squared
    sums of psi_{j,k} over the sample.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"the pairwise term needs n >= 2, got n={n}")
    k_min, size, i, w = _level_lookups(tables, "psi", j, sample)
    S = np.bincount(i, w, minlength=size) * 2.0 ** (j / 2)
    Q = np.bincount(i, w * w, minlength=size) * 2.0**j
    beta = S / n
    bracket = beta * beta - 2.0 * (S * S - Q) / (n * (n - 1))
    return k_min, beta, bracket


@dataclass(frozen=True)
class _CvLevel:
    """One sample's criterion ingredients at one level, for every mode: its
    coefficients, a = |beta| in ascending order (stable sort), suffix[i] the sum
    of the hard brackets of a[i:] (suffix[len(a)] = 0), cands the thresholds
    that can win."""

    coeffs: CoefficientLevel
    a: np.ndarray
    suffix: np.ndarray
    cands: np.ndarray


def _cv_level(sample: Sample, tables: WaveletTables, j: int) -> _CvLevel:
    """The sample's _CvLevel at level j, built on first use and kept per tables object."""
    levels = sample._cv.setdefault(tables, {})
    if j not in levels:
        k_min, beta, bracket = _level_stats(sample, tables, j)
        order = np.argsort(np.abs(beta), kind="stable")
        a = np.abs(beta[order])
        suffix = np.concatenate([np.cumsum(bracket[order][::-1])[::-1], [0.0]])
        levels[j] = _CvLevel(CoefficientLevel(j, k_min, beta), a, suffix, _candidates(a))
    return levels[j]


def cv_criterion(sample: Sample, tables: WaveletTables, j: int, lam: float,
                 mode: str = "HTCV") -> float:
    """CV_j(lam): sum over translates with |beta_{j,k}| >= lam of the risk proxy.

    The hard bracket is beta^2 - 2 (S^2 - Q)/(n (n-1)); STCV adds lam^2 per
    survivor on top of the identical hard sum, so the two modes differ by
    exactly lam^2 times the survivor count. The sum is the threshold search's
    own, so at a selected lam this is its reported value bit for bit.
    """
    _check_threshold(lam)
    lev = _cv_level(sample, tables, j)
    return float(_level_criterion(lev, np.array([float(lam)]), mode)[0])


def _level_criterion(lev: _CvLevel, lams: np.ndarray, mode: str) -> np.ndarray:
    """CV_j at each lam: the survivors {|beta| >= lam} are the suffix of a
    from searchsorted on. Every entry point reaches the mode here, so it is checked here."""
    if mode not in _RULES:
        raise ValueError(f"mode must be one of {tuple(_RULES)}, got {mode!r}")
    i = np.searchsorted(lev.a, lams, side="left")
    vals = lev.suffix[i]
    if _RULES[mode] == "soft":
        vals = vals + lams * lams * (len(lev.a) - i)
    return vals


def _candidates(a: np.ndarray) -> np.ndarray:
    """The thresholds that can win, from the ascending |beta| values a.

    0 and just above each distinct value. With distinct values b_0 < ... <
    b_last, the survivor set {|beta| >= lam} is the same for every lam in
    (b_{i-1}, b_i], so there the hard criterion is constant and the soft one
    grows with lam. With ties going to the smaller lam, b_i never beats
    nextafter(b_{i-1}), b_0 never beats 0, and no lam above b_last beats
    nextafter(b_last) (empty set).
    """
    first = np.concatenate([[True], a[1:] != a[:-1]])  # first of each run of equal values
    return np.concatenate([[0.0], np.nextafter(a[first], np.inf)])


def _select_level(lev: _CvLevel, mode: str) -> tuple[float, float]:
    """Exact argmin of the criterion over the candidate set, ties to smaller lam."""
    vals = _level_criterion(lev, lev.cands, mode)
    best = int(np.argmin(vals))  # the first minimum
    return float(lev.cands[best]), float(vals[best])


def select_lambda(sample: Sample, tables: WaveletTables, j: int,
                  mode: str = "HTCV") -> float:
    """The threshold minimizing CV_j over all lam >= 0 (ties to smallest)."""
    return _select_level(_cv_level(sample, tables, j), mode)[0]


def select_j1(criterion_values: dict[int, float], j0: int, j_star: int) -> int:
    """Start of the all-zero tail of CV_j(lam_hat_j), or j_star if there is none.

    Zero is tested with absolute tolerance 1e-12; an exactly empty survivor
    set gives an exact zero.
    """
    if j_star < j0:
        raise ValueError(f"j_star={j_star} below j0={j0}")
    j1 = j_star + 1
    while j1 > j0 and abs(criterion_values[j1 - 1]) <= _ZERO_TOL:
        j1 -= 1
    return min(j1, j_star)


def fit_cv(sample: Sample, tables: WaveletTables, mode: str = "HTCV",
           grid_points: int = 4096) -> tuple[DensityEstimate, CvSelection]:
    """Cross-validated wavelet estimate: select, threshold, reconstruct.

    j0 is the smallest integer larger than log(n)/(1+N) and j_star = log2(n)
    (floored); every level in between gets its own minimizing threshold and
    is reported in the selection. j1 is searched only over j0..j1_max with
    j1_max = floor(log2(n) / 2) (2^j1 <= sqrt(n)), raised to j0 if it falls
    below. No source at hand states this bound for CV thresholding; it is the
    linear-projection resolution n^(1/(1+2s)) at smoothness s = 1/2, the L2
    smoothness of a density with jumps, and of the bounds measured
    (log2(n), log2(n / ln n), log2(sqrt(n))) the only one whose mean selected
    level falls in the simulation study's band. The hard criterion drives a
    hard-thresholded estimate, the soft criterion a soft one.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"cross validation needs n >= 2, got n={n}")
    j0 = _coarse_level(n, tables.vanishing_moments)
    j_star = math.floor(math.log2(n))

    criterion_values = tuple(
        CvCriterionValue(j, *_select_level(_cv_level(sample, tables, j), mode))
        for j in range(j0, j_star + 1)
    )
    j1_max = max(j0, j_star // 2)  # floor(log2(n) / 2), i.e. 2^j1 <= sqrt(n)
    j1_hat = select_j1({cv.j: cv.value for cv in criterion_values}, j0, j1_max)

    record = sample._cv.setdefault(tables, {})  # the j0 scaling level joins the record
    if "phi" not in record:
        record["phi"] = empirical_coefficients(sample, tables, j0, j0 - 1).scaling
    coeffs = CoefficientSet(
        scaling=record["phi"],
        details=tuple(_cv_level(sample, tables, j).coeffs for j in range(j0, j1_hat + 1)),
        support=sample.support,
    )
    plan = ThresholdPlan(
        mode=_RULES[mode],
        lambdas={cv.j: cv.lam for cv in criterion_values[:j1_hat - j0 + 1]},
        j0=j0,
        j1=j1_hat,
    )
    thresholded = apply_plan(coeffs, plan)
    killed = thresholded.zero_fractions()
    killed.update((j, 1.0) for j in range(j1_hat + 1, j_star + 1))
    selection = CvSelection(mode=mode, j0=j0, j_star=j_star, j1_hat=j1_hat,
                            criterion_values=criterion_values, killed_fraction=killed)
    return reconstruct(thresholded, tables, grid_points), selection
