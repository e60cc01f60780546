"""Samplers for the dependence regimes sharing a common target marginal.

Four regimes: iid draws, the chaotic logistic map, a non-causal two-sided
moving average driven by coin flips, and the intermittent LSV map. The first
three are pushed through quantile transforms so their marginal law is a
chosen target density; the LSV map is returned raw because its invariant
density has no closed form.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .estimator import Sample

__all__ = [
    "TargetDensity",
    "ProcessSpec",
    "build_target",
    "simulate",
    "lsv_step",
    "case3_marginal_cdf",
    "derived_seed",
]

# The ProcessSpec fields each case reads; the lsv map alone has no known density.
CASE_FIELDS = {"iid": ("target",), "logistic_map": ("target",),
               "noncausal_ar": ("target",), "lsv": ("lsv_alpha",)}
# Flips on each side of a noncausal_ar site; the tail beyond weighs 2**-64.
_CASE3_REACH = 64
# The params each target kind reads; build_target rejects any other key.
_TARGET_PARAMS = {"sine_uniform_mixture": set(), "custom": {"density", "support"},
                  "gaussian_mixture": {"means", "sds", "weights", "support"}}


@dataclass(frozen=True)
class TargetDensity:
    """A density with matching cdf and inverse cdf on a compact support."""

    support: tuple[float, float]
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    inverse_cdf: Callable[[np.ndarray], np.ndarray]
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """density(grid), read-only; the last grid and its values are kept (one entry)."""
        if not (self._last and np.array_equal(self._last[0], grid)):
            self._last[:] = [np.array(grid), np.array(self.density(grid), dtype=np.float64)]
            self._last[1].flags.writeable = False
        return self._last[1]


@dataclass(frozen=True)
class ProcessSpec:
    """One sampling regime; a field its case does not read must keep its default."""

    case: str
    n: int
    seed: int
    target: TargetDensity | None = None
    lsv_alpha: float | None = None

    def __post_init__(self):
        if self.case not in CASE_FIELDS:
            raise ValueError(f"unknown case {self.case!r}, expected one of {tuple(CASE_FIELDS)}")
        for f in fields(self):
            unread = f.name not in ("case", "n", "seed", *CASE_FIELDS[self.case])
            if unread and getattr(self, f.name) != f.default:
                raise ValueError(f"case {self.case!r} takes no {f.name}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.case == "lsv":
            if self.lsv_alpha is None or not 0 < self.lsv_alpha < 1:
                raise ValueError("lsv case needs lsv_alpha in (0, 1)")
        elif self.target is None:
            raise ValueError(f"case {self.case!r} needs a target density")

    @property
    def support(self) -> tuple[float, float]:
        """The interval the regime's samples lie in: [0, 1] for lsv, else the target's."""
        return (0.0, 1.0) if self.case == "lsv" else self.target.support


def derived_seed(master: int, r: int) -> int:
    """Replicate seed: first 8 bytes of SHA-256 over (master, r), little endian."""
    digest = hashlib.sha256(struct.pack("<QQ", master & (2**64 - 1), r)).digest()
    return int.from_bytes(digest[:8], "little")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def _tabulated_target(kind: str, density, support) -> TargetDensity:
    """Normalize `density` by trapezoid quadrature on 2^16 + 1 points.

    The cdf interpolates the cumulative table (non-decreasing, 0.0 to 1.0),
    and the inverse cdf interpolates it the other way, which inverts that
    piecewise-linear cdf exactly; the normalized density is 0 off the support.
    """
    lo, hi = support
    xs = np.linspace(lo, hi, 2**16 + 1)
    ys = np.asarray(density(xs), dtype=np.float64)
    if np.any(ys < 0) or not np.all(np.isfinite(ys)):
        raise ValueError(f"{kind} density must be finite and nonnegative")
    cum = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) / 2 * np.diff(xs))])
    mass = cum[-1]
    if mass <= 0:
        raise ValueError(f"{kind} density has no mass on the support")
    cum /= mass

    def normalized(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where((x >= lo) & (x <= hi), np.asarray(density(x)) / mass, 0.0)

    def cdf(x):
        return np.interp(np.asarray(x, dtype=np.float64), xs, cum)

    def inverse_cdf(u):
        return np.interp(np.asarray(u, dtype=np.float64), cum, xs)

    return TargetDensity((float(lo), float(hi)), normalized, cdf, inverse_cdf)


def build_target(kind: str, params: dict | None = None) -> TargetDensity:
    """Construct one of the built-in target densities (or a custom one).

    sine_uniform_mixture: c*(1 + sin(pi x)) on [0, 1/2), constant c on
    [1/2, 1], c = pi/(pi+1), so the density jumps at 1/2; closed-form cdf.
    Its inverse is closed form on [1/2, 1] and 8 Newton steps below 1/2,
    where the last steps move x by no more than the cdf's own rounding.
    gaussian_mixture: equal-weight normals at 0.35 and 0.65 (sd 0.1 each),
    truncated to [0, 1] and renormalized. An sd below (hi - lo)/1000 is
    rejected, since the tabulated cdf cannot resolve it.
    custom: params must carry a `density` callable and `support`.
    Both of the latter get a tabulated cdf and its exact reverse
    interpolation as inverse (see _tabulated_target).
    A param the kind does not read raises ValueError.
    """
    params = dict(params or {})
    if kind not in _TARGET_PARAMS:
        raise ValueError(f"unknown target kind {kind!r}")
    bad = set(params) - _TARGET_PARAMS[kind]
    if bad:
        raise ValueError(f"unknown {kind} params {sorted(bad)}")
    if kind == "sine_uniform_mixture":
        c = math.pi / (math.pi + 1.0)

        def density(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x < 0.5, c * (1.0 + np.sin(np.pi * x)), c) * (
                (x >= 0.0) & (x <= 1.0)
            )

        def cdf(x):
            x = np.asarray(x, dtype=np.float64)
            xc = np.clip(x, 0.0, 1.0)
            left = c * (xc + (1.0 - np.cos(np.pi * xc)) / np.pi)
            right = c * (xc + 1.0 / np.pi)
            return np.where(xc < 0.5, left, right)

        u_mid = cdf(np.asarray(0.5))

        def inverse_cdf(u):
            u = np.asarray(u, dtype=np.float64)
            x = np.asarray(np.clip(u / c - 1.0 / np.pi, 0.0, 1.0))
            curved = u < u_mid
            v = u[curved]
            # cdf(y) >= c*y, so the start lies at or right of the root, and
            # Newton on the convex, increasing cdf descends to it monotonically.
            y = np.minimum(v / c, 0.5)
            for _ in range(8):
                y = y - (cdf(y) - v) / (c * (1.0 + np.sin(np.pi * y)))
            x[curved] = y
            return x

        return TargetDensity((0.0, 1.0), density, cdf, inverse_cdf)

    if kind == "gaussian_mixture":
        means = np.asarray(params.get("means", (0.35, 0.65)), dtype=np.float64)
        sds = np.asarray(params.get("sds", (0.1, 0.1)), dtype=np.float64)
        weights = np.asarray(params.get("weights", (0.5, 0.5)), dtype=np.float64)
        lo, hi = params.get("support", (0.0, 1.0))
        if not len(means) == len(sds) == len(weights):
            raise ValueError("gaussian_mixture means, sds and weights differ in length")
        if np.any(sds <= 0) or weights.sum() <= 0:
            raise ValueError("gaussian_mixture parameters are not normalizable")
        if np.any(sds < (hi - lo) / 1000):
            raise ValueError(f"gaussian_mixture sds must be at least (hi - lo)/1000 = "
                             f"{(hi - lo) / 1000:g}, got {sds.tolist()}")
        weights = weights / weights.sum()

        def density(x):
            z = (x[..., None] - means) / sds
            return (weights * np.exp(-0.5 * z * z) / (sds * math.sqrt(2 * math.pi))).sum(axis=-1)

        return _tabulated_target(kind, density, (lo, hi))

    if "density" not in params or "support" not in params:
        raise ValueError("custom target needs 'density' and 'support' params")
    lo, hi = params["support"]
    return _tabulated_target(kind, params["density"], (lo, hi))


def _orbit(start: Callable[[], float], step: Callable[[float, float], float], theta: float,
           n: int, burn: int, warning: str) -> np.ndarray:
    """States burn .. burn + n - 1 of the orbit start(), step(z, theta), ...

    A state that step leaves unchanged in floating point (a fixed point, or a
    point too close to one for the step to move it) is followed by a fresh
    start(), with the warning, so the orbit never sticks.
    """
    z = start()
    states = []
    for _ in range(burn + n):
        states.append(z)
        z, last = step(z, theta), z
        if z == last:
            warnings.warn(warning)
            z = start()
    return np.array(states[burn:])


def _case3_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Coin flips on the sites -64..n+63: the n core flips first, then the
    extension, alternating left and right outward from the core."""
    r = _CASE3_REACH
    xi = np.empty(n + 2 * r)
    xi[r:r + n] = rng.integers(0, 2, size=n)
    ext = rng.integers(0, 2, size=2 * r)
    xi[r - 1::-1] = ext[0::2]
    xi[r + n:] = ext[1::2]
    return xi


def _case3_latent(n: int, rng: np.random.Generator) -> np.ndarray:
    """Y_t = sum_k 2**-|k| xi_{t-k} / 3, the stationary solution of
    Y = 2(Y_-1 + Y_+1)/5 + xi/5, as (U_t + U'_t + xi_t)/3 at the core sites.

    U'_t and U_t are the binary fractions of the 64 flips after and before t,
    summed by doubling: windows of up to 32 flips sum exactly, so only the
    last of the six elementwise passes rounds, and no BLAS reduction is used.
    """
    r = _CASE3_REACH
    xi = _case3_noise(n, rng)
    s = np.stack([xi[r + 1:], xi[n + r - 2::-1]])  # the flips after t; before t, reversed
    for m in (1, 2, 4, 8, 16, 32):
        s = s[:, :-m] + 2.0**-m * s[:, m:]
    return (0.5 * (s[0] + s[1, ::-1]) + xi[r:r + n]) / 3.0


def case3_marginal_cdf(y):
    """Closed-form cdf of (U + U' + xi0)/3 with uniform U, U' and a coin xi0."""
    y_arr = np.asarray(y, dtype=np.float64)

    def irwin_hall2(s):
        s = np.clip(s, 0.0, 2.0)
        return np.where(s <= 1.0, s * s / 2.0, 1.0 - (2.0 - s) ** 2 / 2.0)

    out = 0.5 * (irwin_hall2(3.0 * y_arr) + irwin_hall2(3.0 * y_arr - 1.0))
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def lsv_step(x: float, alpha: float) -> float:
    """One step of the intermittent map: x(1 + 2^a x^a) on [0, 1/2], 2x-1 above."""
    if x <= 0.5:
        return x * (1.0 + (2.0 * x) ** alpha)
    return 2.0 * x - 1.0


def simulate(spec: ProcessSpec) -> Sample:
    """Draw one sample from the regime; identical specs give identical output."""
    rng = _rng(spec.seed)
    if spec.case == "lsv":
        # a uniform start; the sample is states n + 1 .. 2n
        values = _orbit(rng.random, lsv_step, spec.lsv_alpha, spec.n, spec.n + 1,
                        "lsv orbit stuck at or near a boundary fixed point; restarted")
        return Sample(values, spec.support)

    target = spec.target
    if spec.case == "iid":
        u = rng.random(spec.n)
    elif spec.case == "logistic_map":
        # started from the invariant (arcsine) law, r = 4
        y = _orbit(lambda: math.sin(math.pi * rng.random() / 2.0) ** 2,
                   lambda y, r: r * y * (1.0 - y), 4.0, spec.n, 0,
                   "logistic orbit hit a fixed point; restarted from the arcsine law")
        u = (2.0 / math.pi) * np.arcsin(np.sqrt(y))
    else:  # noncausal_ar
        y = _case3_latent(spec.n, rng)
        u = case3_marginal_cdf(y)
    values = target.inverse_cdf(u)
    return Sample(np.clip(values, *target.support), target.support)
