"""Compactly supported orthonormal wavelet bases on dyadic tables.

Builds Daubechies and symmlet filters from embedded tap tables, tabulates the
scaling function phi and wavelet psi by the cascade refinement, and evaluates
phi_{j,k}, psi_{j,k} at arbitrary points by snapping to the nearest dyadic
grid point of the table.

The 2N translates that reach a point x at level j read the table 2**depth
apart, at one shared residue. So each point is snapped once: its first
translate is kbase = floor(2**j x - N + 1), and its residue rho in
0..2**depth is 2**j x - kbase - (N - 1) in table steps, rounded by rint (ties
to even). A (2N, 2**depth + 1) polyphase table, built once per kind, holds
every translate's weight at [k - kbase, rho]; level sums, synthesis and eval
all gather from it.

Conventions: phi has natural support [0, 2N-1] and is stored that way; for
evaluation it is re-indexed by the integer shift N-1 so that both phi and psi
live on [1-N, N]. Integer shifts only relabel the translates k, so the family
stays orthonormal across levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._taps import REC_LO

__all__ = ["WaveletFilter", "WaveletTables", "build_filter", "cascade_tables"]

_FAMILIES = ("symmlet", "daubechies")
_QMF_TOL = 1e-10


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal low-pass filter: 2N taps summing to sqrt(2)."""

    vanishing_moments: int
    low_pass: np.ndarray


def build_filter(family: str, vanishing_moments: int) -> WaveletFilter:
    """Look up the canonical orthonormal filter for (family, N).

    Raises ValueError for unknown families or N outside the embedded range
    (daubechies 1..10, symmlet 2..10). The taps are re-verified against the
    sum and quadrature-mirror identities on every call.
    """
    key = (family, vanishing_moments)
    if family not in _FAMILIES or key not in REC_LO:
        raise ValueError(
            f"unsupported filter: {family!r} with N={vanishing_moments} "
            f"(families {_FAMILIES}, daubechies N in 1..10, symmlet N in 2..10)"
        )
    h = np.asarray(REC_LO[key], dtype=np.float64)
    if abs(h.sum() - math.sqrt(2)) > _QMF_TOL:
        raise ValueError(f"filter taps for {key} do not sum to sqrt(2)")
    for ell in range(len(h) // 2):
        target = 1.0 if ell == 0 else 0.0
        if abs(h[: len(h) - 2 * ell] @ h[2 * ell:] - target) > _QMF_TOL:
            raise ValueError(f"filter taps for {key} fail the QMF identity at shift {ell}")
    return WaveletFilter(vanishing_moments=vanishing_moments, low_pass=h)


def _integer_values(h: np.ndarray) -> np.ndarray:
    """phi at the integers 0..2N-1, from the eigenvector of the transfer matrix."""
    L = len(h)
    if L == 2:  # Haar: the eigenproblem is degenerate, fix the half-open convention
        return np.array([1.0, 0.0])
    size = L - 1  # interior integers 0..2N-2; phi(2N-1) = 0
    M = np.zeros((size, size))
    for i in range(size):
        for ip in range(size):
            m = 2 * i - ip
            if 0 <= m < L:
                M[i, ip] = math.sqrt(2) * h[m]
    eigvals, eigvecs = np.linalg.eig(M)
    v = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1.0))])
    v = v / v.sum()
    return np.concatenate([v, [0.0]])


def cascade_tables(filt: WaveletFilter, depth: int) -> WaveletTables:
    """Tabulate phi and psi at resolution 2**-depth by cascade refinement."""
    if depth < 4:
        raise ValueError(f"table depth must be at least 4, got {depth}")
    h = filt.low_pass
    N = filt.vanishing_moments
    L = 2 * N
    width = 2 * N - 1  # support length of both phi and psi

    phi = _integer_values(h)
    for level in range(depth):
        step = 2**level
        nxt = np.zeros(width * 2 * step + 1)
        nxt[::2] = phi
        odd = np.arange(1, len(nxt), 2)
        acc = np.zeros(len(odd))
        for m in range(L):
            src = odd - m * step
            ok = (src >= 0) & (src < len(phi))
            acc[ok] += h[m] * phi[src[ok]]
        nxt[1::2] = math.sqrt(2) * acc
        phi = nxt

    # psi(x) = sqrt(2) sum_m g_m phi(2x - m) on [1-N, N], g_m = (-1)^m h_{1-m}
    scale = 2**depth
    idx = np.arange(width * scale + 1)
    psi = np.zeros(len(idx))
    for m in range(2 - L, 2):
        g = (-1) ** m * h[1 - m]
        src = 2 * idx + (2 * (1 - N) - m) * scale
        ok = (src >= 0) & (src < len(phi))
        psi[ok] += g * phi[src[ok]]
    psi *= math.sqrt(2)

    return WaveletTables(
        filter=filt,
        depth=depth,
        phi_values=phi,
        psi_values=psi,
    )


@dataclass(frozen=True, eq=False)
class WaveletTables:
    """Sampled phi/psi values on the dyadic grid of step 2**-depth.

    phi_values covers the natural support [0, 2N-1] and psi_values [1-N, N].
    Instances are equal only to themselves and safe to share: the tables are
    immutable, and the grid cache only grows. grid_weights keeps one read-only
    (2N, points) weight array per (kind, level, grid), 2N * points * 8 bytes:
    512 KiB for sym8 on a 4096-point grid, six entries (phi at j0, psi at
    j0..5) in an n = 1024 fit.
    """

    filter: WaveletFilter
    depth: int
    phi_values: np.ndarray
    psi_values: np.ndarray
    _polyphase: dict[str, np.ndarray] = field(init=False, repr=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        N, step = self.vanishing_moments, 2**self.depth
        idx = np.arange(step + 1) + (2 * N - 2 - np.arange(2 * N))[:, None] * step
        object.__setattr__(self, "_polyphase", {
            kind: np.where(idx >= 0, table[np.maximum(idx, 0)], 0.0)
            for kind, table in (("phi", self.phi_values), ("psi", self.psi_values))
        })

    @property
    def vanishing_moments(self) -> int:
        return self.filter.vanishing_moments

    def sample_grid(self, kind: str) -> np.ndarray:
        """The x values the table of `kind` is sampled at."""
        N = self.vanishing_moments
        lo = 0.0 if kind == "phi" else float(1 - N)
        return lo + np.arange(len(self.psi_values)) / 2**self.depth

    def polyphase(self, kind: str) -> np.ndarray:
        """The (2N, 2**depth + 1) polyphase table of the centered phi or psi.

        Entry [t, rho] is the table value at rho + (2N - 2 - t) * 2**depth,
        and 0 where that index falls below the table.
        """
        if kind not in ("phi", "psi"):
            raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
        return self._polyphase[kind]

    def residues(self, j: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(kbase, rho) of the points x at level j (see the module docstring).

        Translate kbase + t, t = 0..2N-1, weighs x by polyphase(kind)[t, rho].
        rho lies in 0..2**depth; the clip acts only beyond |2**j x| of about
        2**(52 - depth), where 2**j x - N + 1 can round up to an integer.
        """
        N = self.vanishing_moments
        u = x * float(2**j)
        kbase = np.floor(u - N + 1)
        rho = np.rint((u - kbase + (N - 1)) * 2**self.depth).astype(np.int64)
        rho -= (2 * N - 2) * 2**self.depth
        np.clip(rho, 0, 2**self.depth, out=rho)
        return kbase.astype(np.int64), rho

    def grid_weights(self, kind: str, j: int, lo: float, hi: float, points: int) -> tuple:
        """The tap weights of np.linspace(lo, hi, points) at level j, as (k0,
        weights, counts): with kbase, rho = residues(j, grid), kbase never
        decreases, so counts[i] points have kbase = k0 + i, and weights is the
        (2N, points) array polyphase(kind)[:, rho]. Built once per (kind, level,
        grid); weights and counts are read-only, since every later caller shares
        them."""
        key = (kind, j, lo, hi, points)
        if key not in self._weights:
            kbase, rho = self.residues(j, np.linspace(lo, hi, points))
            if np.any(kbase[1:] < kbase[:-1]):
                raise ValueError(f"grid [{lo}, {hi}] is not increasing")
            counts = np.bincount(kbase - kbase[0])
            weights = self.polyphase(kind).take(rho, axis=1)
            weights.flags.writeable = counts.flags.writeable = False
            self._weights[key] = (int(kbase[0]), weights, counts)
        return self._weights[key]

    def eval(self, kind: str, j: int, k: int, x):
        """Evaluate phi_{j,k} or psi_{j,k} at x (scalar or array).

        Returns 2**(j/2) * table[nearest dyadic point of 2**j x - k], and 0
        outside the support [1-N, N] of the centered functions.
        """
        poly = self.polyphase(kind)
        x_arr = np.asarray(x, dtype=np.float64)
        finite = np.isfinite(np.atleast_1d(x_arr))  # nan and inf have no translate
        kbase, rho = self.residues(j, np.where(finite, x_arr, 0.0))
        t = k - kbase
        ok = finite & (t >= 0) & (t < len(poly))
        out = np.zeros(t.shape)
        out[ok] = poly[t[ok], rho[ok]] * 2.0 ** (j / 2)
        return float(out[0]) if x_arr.ndim == 0 else out

    def k_range(self, j: int, lo: float, hi: float) -> tuple[int, int]:
        """Inclusive range floor(2^j lo) - N .. ceil(2^j hi) + N at level j: the
        translates whose supports [(k+1-N)/2^j, (k+N)/2^j] meet [lo, hi] in more
        than a point, plus its first and last two, which touch it at most at an end."""
        pad = self.vanishing_moments  # supports are [1-N, N]
        return (math.floor(2**j * lo) - pad, math.ceil(2**j * hi) + pad)
