"""The polyphase kernel against the per-tap table lookup it replaced, byte for byte.

The reference snaps every tap on its own: translate k of the point x reads the
table at rint((2^j x - k + N - 1) * 2^depth), zero off the table. The kernel
snaps once per point and reads every tap from one polyphase column, so the two
agree only while each tap's own rounding lands on the shared residue; these
tests hold the kernel to that, for level sums, the criterion's plain and
squared sums, synthesis (through the cached grid residues) and pointwise
evaluation.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavedens.cross_validation import _level_stats
from wavedens.estimator import (Sample, _level_lookups, _synthesize_level,
                                empirical_coefficients)
from wavedens.wavelet_basis import build_filter, cascade_tables

TABLES = {name: cascade_tables(build_filter(family, N), depth=10)
          for name, family, N in (("haar", "daubechies", 1), ("sym4", "symmlet", 4),
                                  ("sym8", "symmlet", 8))}


def _reference_taps(tables, kind, j, x, k_min, k_max):
    """Per tap t = 0..2N-1: (ok, i, w) of translate k = floor(2^j x - N + 1) + t.

    ok masks the points whose tap hits the table and has k in k_min..k_max;
    i = k - k_min and w the table values there, in sample order.
    """
    N = tables.vanishing_moments
    table = tables.phi_values if kind == "phi" else tables.psi_values
    u = x * float(2**j)
    kbase = np.floor(u - N + 1).astype(np.int64)
    for t in range(2 * N):
        k = kbase + t
        idx = np.rint((u - k + (N - 1)) * 2**tables.depth)
        ok = (idx >= 0) & (idx < len(table)) & (k >= k_min) & (k <= k_max)
        yield ok, k[ok] - k_min, table[idx[ok].astype(np.int64)]


def _reference_sums(tables, kind, j, x, k_min, k_max):
    """Plain and squared sums per translate, tap-major and in sample order."""
    _, i, w = (np.concatenate(parts) for parts in
               zip(*_reference_taps(tables, kind, j, x, k_min, k_max)))
    size = k_max - k_min + 1
    return np.bincount(i, w, minlength=size), np.bincount(i, w * w, minlength=size)


def _reference_synthesis(tables, kind, lev, x):
    out = np.zeros(len(x))
    k_max = lev.k_min + len(lev.values) - 1
    for ok, i, w in _reference_taps(tables, kind, lev.j, x, lev.k_min, k_max):
        out[ok] += lev.values[i] * w
    return out * 2.0 ** (lev.j / 2)


def _reference_eval(tables, kind, j, k, x):
    N = tables.vanishing_moments
    table = tables.phi_values if kind == "phi" else tables.psi_values
    idx = np.rint((np.atleast_1d(np.asarray(x, dtype=np.float64)) * float(2**j) - k
                   + (N - 1)) * 2**tables.depth)
    ok = (idx >= 0) & (idx < len(table))
    out = np.zeros(idx.shape)
    out[ok] = table[idx[ok].astype(np.int64)] * 2.0 ** (j / 2)
    return out


def _samples():
    rng = np.random.default_rng(20261018)
    raw = rng.random(700)
    edges = np.array([0.0, 1.0, 0.5, 0.25, 2.0**-10, 1.0 - 2.0**-11, 3 * 2.0**-12])
    return {"raw": np.concatenate([raw, edges]), "2dec": np.round(raw, 2)}


def _assert_level_matches(tables, x, j):
    """Level sums, the criterion's ingredients: same bytes as the reference."""
    sample = Sample(values=x, support=(0.0, 1.0))
    n = len(x)
    k_min, k_max = tables.k_range(j, 0.0, 1.0)
    coeffs = empirical_coefficients(sample, tables, j, j)
    for kind, lev in (("phi", coeffs.scaling), ("psi", coeffs.details[0])):
        S, _ = _reference_sums(tables, kind, j, x, k_min, k_max)
        assert lev.values.tobytes() == (2.0 ** (j / 2) * S / n).tobytes(), (kind, j)
    S, Q = _reference_sums(tables, "psi", j, x, k_min, k_max)
    S, Q = S * 2.0 ** (j / 2), Q * 2.0**j
    beta = S / n
    bracket = beta * beta - 2.0 * (S * S - Q) / (n * (n - 1))
    got_kmin, got_beta, got_bracket = _level_stats(sample, tables, j)
    assert got_kmin == k_min
    assert got_beta.tobytes() == beta.tobytes()
    assert got_bracket.tobytes() == bracket.tobytes()


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("rounding", ["raw", "2dec"])
def test_level_sums_match_reference(name, rounding):
    x = _samples()[rounding]
    for j in range(0, 11):
        _assert_level_matches(TABLES[name], x, j)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_synthesis_matches_reference(name):
    """Full levels and levels with -0.0 coefficients, on supports [0, 1],
    [-0.5, 2] and [0, 4].

    Two grids take turns on one tables object, so each cached grid entry is
    read again after the other grid's entry of the same level was built.
    """
    for support in ((0.0, 1.0), (-0.5, 2.0), (0.0, 4.0)):
        _assert_synthesis_matches(TABLES[name], support)


def _assert_synthesis_matches(tables, support):
    lo, hi = support
    x = lo + (hi - lo) * _samples()["raw"]
    sample = Sample(values=x, support=support)
    full = empirical_coefficients(sample, tables, 1, 6)
    grids = ((lo, hi, 4096), (lo, hi, 1000))
    # at j = 11 the 1000-point grid steps over translates: runs of length 0
    fine = empirical_coefficients(sample, tables, 11, 11).details
    levels = [("phi", full.scaling)] + [("psi", lev) for lev in full.details + fine]
    for kind, lev in levels:
        signed = lev.values.copy()
        signed[::3] = -0.0
        for version in (lev, replace(lev, values=signed)):
            for grid in grids:
                got = _synthesize_level(tables, kind, version, grid)
                want = _reference_synthesis(tables, kind, version, np.linspace(*grid))
                assert got.tobytes() == want.tobytes(), (kind, lev.j, grid)
    for kind in ("phi", "psi"):
        for j in (*range(1, 7), 11):
            for grid in grids:
                k0, weights, counts = tables.grid_weights(kind, j, *grid)
                kbase, rho = tables.residues(j, np.linspace(*grid))
                assert weights.tobytes() == tables.polyphase(kind)[:, rho].tobytes()
                assert (np.repeat(k0 + np.arange(len(counts)), counts).tobytes()
                        == kbase.tobytes())


def test_grid_weights_are_built_once_per_kind_level_and_grid():
    """phi and psi of one level get their own weights, and so does another grid.

    The weights are polyphase(kind)[:, rho] byte for byte, the weights and run
    lengths are read-only, a decreasing grid is refused, and a synthesis gives
    the same bytes from a cold cache and a warm one.
    """
    tables = replace(TABLES["sym8"])  # fresh caches
    sample = Sample(values=_samples()["raw"], support=(0.0, 1.0))
    coeffs = empirical_coefficients(sample, tables, 3, 3)
    big, small = (0.0, 1.0, 4096), (0.0, 1.0, 1000)
    cold = {}
    for grid in (big, small, big, small):
        for kind, lev in (("phi", coeffs.scaling), ("psi", coeffs.details[0])):
            got = _synthesize_level(tables, kind, lev, grid).tobytes()
            assert cold.setdefault((kind, grid), got) == got, (kind, grid)
    assert sorted(tables._weights) == [(kind, 3, *grid) for kind in ("phi", "psi")
                                       for grid in (small, big)]
    for kind in ("phi", "psi"):
        for grid in (big, small):
            entry = tables.grid_weights(kind, 3, *grid)
            assert tables.grid_weights(kind, 3, *grid) is entry
            k0, weights, counts = entry
            kbase, rho = tables.residues(3, np.linspace(*grid))
            assert k0 == kbase[0]
            assert counts.tobytes() == np.bincount(kbase - kbase[0]).tobytes()
            assert weights.shape == (16, grid[2])
            assert weights.tobytes() == tables.polyphase(kind)[:, rho].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                counts[0] = 0
    with pytest.raises(ValueError, match="not increasing"):
        tables.grid_weights("psi", 3, 1.0, 0.0, 64)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_level_lookup_weights_match_fancy_indexing(name):
    """The contiguous take gives the weights of poly[:, rho], bit for bit."""
    tables = TABLES[name]
    x = _samples()["raw"]
    sample = Sample(values=x, support=(0.0, 1.0))
    for kind in ("phi", "psi"):
        for j in (0, 3, 10):
            _, _, _, w = _level_lookups(tables, kind, j, sample)
            _, rho = tables.residues(j, x)
            assert w.tobytes() == tables.polyphase(kind)[:, rho].ravel().tobytes()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_eval_matches_reference(name):
    """Points inside, at the edges of and outside the support, array and scalar."""
    tables = TABLES[name]
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-12.0, 12.0, 1500), np.round(rng.uniform(-3, 3, 400), 2),
                        np.arange(-4096, 4097) / 512.0, [-0.0]])
    for kind in ("phi", "psi"):
        for j in (0, 1, 4, 9):
            for k in (-9, -1, 0, 2, 7, 600):
                got = tables.eval(kind, j, k, x)
                assert got.tobytes() == _reference_eval(tables, kind, j, k, x).tobytes()
                for xi in x[:: 997]:
                    got_scalar = np.float64(tables.eval(kind, j, k, float(xi)))
                    want = _reference_eval(tables, kind, j, k, xi)[0]
                    assert got_scalar.tobytes() == want.tobytes()


@given(x=arrays(np.float64, st.integers(2, 40),
                elements=st.floats(0.0, 1.0, allow_subnormal=False)),
       j=st.integers(0, 12), name=st.sampled_from(sorted(TABLES)))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_property(x, j, name):
    tables = TABLES[name]
    _assert_level_matches(tables, x, j)
    for kind in ("phi", "psi"):
        for k in (-2, 0, 3):
            got = tables.eval(kind, j, k, x * 3.0 - 1.0)
            assert got.tobytes() == _reference_eval(tables, kind, j, k, x * 3.0 - 1.0).tobytes()


def test_eval_is_zero_at_non_finite_points():
    x = np.array([np.nan, np.inf, -np.inf, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = TABLES["sym8"].eval("psi", 2, 1, x)
    assert got.tobytes() == _reference_eval(TABLES["sym8"], "psi", 2, 1, x).tobytes()
    assert not got[:3].any()


def test_haar_last_tap_reads_the_left_end():
    """Haar's tap 1 hits the table only at residue 2^depth, where phi is 1."""
    tables = TABLES["haar"]
    poly = tables.polyphase("phi")
    assert poly.shape == (2, 2**tables.depth + 1)
    assert poly[1, 2**tables.depth] == tables.phi_values[0] == 1.0
    assert not poly[1, :-1].any()


def test_polyphase_rejects_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        TABLES["sym8"].polyphase("theta")


def test_residue_stays_on_the_table_where_floor_rounds():
    """2^j x - N + 1 can round up to an integer where it crosses a binade.

    For sym8 at x = -(2^44 - 7 + 2^-9), it rounds to -2^44, floor overshoots
    the first translate and the unclipped residue reads -2, which would index
    the polyphase table from its far end.
    """
    tables = TABLES["sym8"]
    _, rho = tables.residues(0, np.array([-(2.0**44 - 7 + 2.0**-9)]))
    assert 0 <= rho[0] <= 2**tables.depth
