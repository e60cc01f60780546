"""Kernel baseline: bandwidth rules, CV score closed forms, estimates."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens import baseline_kernel
from wavedens.baseline_kernel import (KernelConfig, cv_bandwidth,
                                      kernel_estimate, lscv_score,
                                      rule_of_thumb_bandwidth)
from wavedens.baseline_kernel import _SELFCONV, _lscv_scores, _running_sums
from wavedens.cli import make_fit
from wavedens.estimator import Sample
from wavedens.processes import ProcessSpec, build_target, simulate


def _epa(u):
    u = np.asarray(u, dtype=np.float64)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    """0.75 (1 - u^2) where |u| <= 1, else +0.0.

    For finite u, u*u > 1 exactly when |u| > 1, so clipping 0.75 (1 - u*u)
    at 0 gives the same bits as testing |u| and every zero is +0.0.
    """
    return np.maximum(0.75 * (1.0 - np.square(u)), 0.0)


def _epanechnikov_selfconv(t: np.ndarray) -> np.ndarray:
    """(K * K)(t) for the Epanechnikov kernel, supported on [-2, 2], from _SELFCONV."""
    a = np.abs(t)
    val = sum(c * a**k for k, c in _SELFCONV.items())
    return np.where(a <= 2.0, val, 0.0)


def _check_against_dense(grid, values, x, h):
    """The estimate's values on grid against the dense evaluation of every
    (grid point, sample point) pair with _epa: within 1e-13 of the dense
    maximum, nonnegative with no -0.0, and exactly +0.0 wherever no sample
    point x has g - h <= x <= g + h. Returns the count of such empty rows."""
    rows = max(1, 2**20 // len(x))  # about 8 MB of pairs at a time
    dense, empty = [], []
    for a in range(0, len(grid), rows):
        g = grid[a:a + rows, None]
        dense.append(_epa((g - x[None, :]) / h).sum(axis=1))
        empty.append(~np.any((x[None, :] >= g - h) & (x[None, :] <= g + h), axis=1))
    dense, empty = np.concatenate(dense) / (len(x) * h), np.concatenate(empty)
    assert np.max(np.abs(values - dense)) <= 1e-13 * dense.max()
    assert np.all(values >= 0.0) and not np.any(np.signbit(values))
    assert np.all(values[empty] == 0.0)
    return int(empty.sum())


def _sample(rng, n):
    return Sample(values=rng.random(n), support=(0.0, 1.0))


class TestKernelShapes:
    def test_epanechnikov_closed_form(self):
        assert _epanechnikov(np.array([0.0]))[0] == 0.75
        assert _epanechnikov(np.array([0.5]))[0] == pytest.approx(0.5625)
        assert _epanechnikov(np.array([1.0]))[0] == 0.0
        assert _epanechnikov(np.array([-1.5]))[0] == 0.0
        u = np.linspace(-1, 1, 100_001)
        assert np.trapezoid(_epanechnikov(u), u) == pytest.approx(1.0, abs=1e-8)

    def test_selfconv_matches_quadrature(self):
        """The quartic is checked against a brute-force convolution."""
        u = np.linspace(-1.0, 1.0, 40_001)
        ku = _epa(u)
        for t in (0.0, 0.3, 0.77, 1.0, 1.5, 1.99, 2.0, 2.5, -0.4, -1.2):
            want = np.trapezoid(ku * _epa(u - t), u)
            got = _epanechnikov_selfconv(np.array([t]))[0]
            assert abs(got - want) < 1e-6

    def test_selfconv_special_values(self):
        # (K*K)(0) is the squared L2 norm of the kernel, 3/5
        assert _epanechnikov_selfconv(np.array([0.0]))[0] == pytest.approx(0.6)
        assert _epanechnikov_selfconv(np.array([1.0]))[0] == pytest.approx(33.0 / 160.0)
        assert _epanechnikov_selfconv(np.array([2.0]))[0] == pytest.approx(0.0, abs=1e-15)


class TestRuleOfThumb:
    def test_matches_manual_percentiles(self, rng):
        """Interpolated order statistics, scaled by the usual 0.6745 and the
        (4/3n)^(1/5) rate factor."""
        x = rng.random(37)
        xs = np.sort(x)

        def pct(q):
            pos = (len(xs) - 1) * q
            lo = int(np.floor(pos))
            frac = pos - lo
            return xs[lo] * (1 - frac) + xs[min(lo + 1, len(xs) - 1)] * frac

        want = (pct(0.75) - pct(0.25)) / (2 * 0.6745) * (4.0 / (3.0 * 37)) ** 0.2
        got = rule_of_thumb_bandwidth(Sample(values=x, support=(0.0, 1.0)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_shrinks_with_n(self, rng):
        x = rng.random(4096)
        small = rule_of_thumb_bandwidth(Sample(values=x[:256], support=(0.0, 1.0)))
        large = rule_of_thumb_bandwidth(Sample(values=x, support=(0.0, 1.0)))
        assert large < small

    def test_degenerate_spread_rejected(self):
        x = np.full(12, 0.4)
        with pytest.raises(ValueError, match="interquartile"):
            rule_of_thumb_bandwidth(Sample(values=x, support=(0.0, 1.0)))

    def test_too_few_points(self):
        s = Sample(values=np.array([0.1, 0.5, 0.9]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="at least 4"):
            rule_of_thumb_bandwidth(s)


class TestLscvScore:
    def naive_score(self, x, h):
        """Assemble the score from per-pair kernel evaluations, no sorting
        shortcut. Uses the closed-form self-convolution so that equality to
        the production path is exact in exact arithmetic."""
        n = len(x)
        sq = 0.0
        for i in range(n):
            for j in range(n):
                sq += float(_epanechnikov_selfconv(np.array([(x[i] - x[j]) / h]))[0])
        sq /= n * n * h
        loo = 0.0
        for i in range(n):
            for j in range(n):
                if j != i:
                    loo += float(_epa((x[i] - x[j]) / h))
        loo *= 2.0 / (n * (n - 1) * h)
        return sq - loo

    @pytest.mark.parametrize("h", [0.02, 0.08, 0.3, 1.5])
    def test_matches_naive_double_loop(self, rng, h):
        s = _sample(rng, 25)
        got = lscv_score(s, h)
        assert abs(got - self.naive_score(s.values, h)) < 1e-10

    def test_clustered_sample(self, rng):
        vals = np.concatenate([0.3 + 0.01 * rng.random(10),
                               0.7 + 0.01 * rng.random(10)])
        s = Sample(values=vals, support=(0.0, 1.0))
        for h in (0.005, 0.05, 0.5):
            assert abs(lscv_score(s, h) - self.naive_score(vals, h)) < 1e-10

    def test_wide_bandwidth_has_no_cutoff_artifacts(self, rng):
        """Every pair is within 2h; the distance cap must keep them all."""
        s = _sample(rng, 12)
        assert abs(lscv_score(s, 10.0) - self.naive_score(s.values, 10.0)) < 1e-12

    def test_input_validation(self):
        s = Sample(values=np.array([0.5]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="n >= 2"):
            lscv_score(s, 0.1)
        s2 = Sample(values=np.array([0.2, 0.8]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            lscv_score(s2, 0.0)


    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_bandwidth(self, h):
        s = Sample(values=np.array([0.2, 0.5, 0.8]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="positive and finite"):
            lscv_score(s, h)


def _reference_lscv_scores(sample, hs):
    """The per-pair scoring the prefix sums replaced: every h evaluates the
    factored self-convolution 3/160 (2 - a)^3 (a^2 + 6a + 4) on each pair.
    The pairs within 2 max(hs) are pruned from the widest bandwidth down, and
    the scores come back in the order of hs."""
    def selfconv(t):
        a = np.abs(t)
        return np.where(a <= 2.0, 3.0 / 160.0 * (2.0 - a) ** 3 * (a * a + 6.0 * a + 4.0), 0.0)

    n = sample.n
    xs = np.sort(sample.values)
    hs = np.asarray(hs, dtype=float)
    upper = np.searchsorted(xs, xs + 2.0 * hs.max(), side="right")
    lo = np.repeat(xs, upper - np.arange(1, n + 1))
    hi = np.concatenate([xs[i + 1:u] for i, u in enumerate(upper)])
    scores = np.empty(len(hs))
    for i in np.argsort(hs, kind="stable")[::-1]:
        h = hs[i]
        keep = hi <= lo + 2.0 * h
        lo, hi = lo[keep], hi[keep]
        d = hi - lo
        sum_kk = selfconv(d / h).sum()
        sum_k = _epa(d[d <= h] / h).sum()
        sq_norm = (0.6 * n + 2.0 * sum_kk) / (n * n * h)
        loo = 2.0 * sum_k / ((n - 1) * h)
        scores[i] = sq_norm - 2.0 * loo / n
    return scores.tolist()


class TestRunningSums:
    def test_rows_are_the_cumulative_powers(self, rng):
        """Each block's row in _running_sums is its count and the cumulative
        sums of y^r bit for bit, led by a zero: on 300 sorted points rounded
        to 2 decimals (ties), with blocks of 0 to 64 points in shuffled order,
        across every power-of-two padding boundary and one block that ends at
        the last point, for origins at the blocks' first points with scale
        1.0 and for shifted origins with scale 0.037, up to powers 2 and 5."""
        xs = np.sort(np.round(rng.random(300), 2))
        lengths = rng.permutation([0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
        starts = np.arange(16) * 14
        starts[-1] = 300 - lengths[-1]
        ends = starts + lengths
        for origins, scale in ((xs[starts], 1.0), (xs[starts] - 0.1 - 0.01 * np.arange(16), 0.037)):
            for powers in (2, 5):
                sums, base = _running_sums(xs, starts, ends, origins, scale, powers)
                assert sums.shape[0] == powers + 1
                for b, (s, e) in enumerate(zip(starts, ends)):
                    row = sums[:, base[b] + np.arange(s, e + 1)]
                    assert np.array_equal(row[0], np.arange(e - s + 1))
                    y = (xs[s:e] - origins[b]) / scale
                    power = y
                    for r in range(1, powers + 1):
                        want = np.concatenate([[0.0], np.cumsum(power)])
                        assert row[r].tobytes() == want.tobytes(), (b, r)
                        power = power * y


class TestLscvPrefixSums:
    def test_matches_the_per_pair_scores(self, rng):
        """The prefix-sum scores stay within 1e-11 relative of the per-pair
        ones and pick the same bandwidth, at n = 1024 on three regimes and on
        samples rounded to 2 and 3 decimals (ties, zero distances, pairs 2h
        apart); lscv_score reads the batched scores' bits, since each
        bandwidth's block width depends on that bandwidth alone."""
        def check(s, grid):
            want = _reference_lscv_scores(s, grid)
            got = _lscv_scores(s, grid)
            assert np.all(np.isfinite(got))
            assert_allclose(got, want, rtol=1e-11, atol=0.0)
            assert np.argmin(got) == np.argmin(want)
            for i in (0, 17, 39):
                assert lscv_score(s, float(grid[i])) == got[i]

        def default_grid(s):
            h_rot = rule_of_thumb_bandwidth(s)
            return np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40)

        target = build_target("sine_uniform_mixture")
        for seed in (1, 2, 3):
            for s in (simulate(ProcessSpec(case="iid", n=1024, seed=seed, target=target)),
                      simulate(ProcessSpec(case="logistic_map", n=1024, seed=seed,
                                           target=target)),
                      simulate(ProcessSpec(case="lsv", n=1024, seed=seed, lsv_alpha=0.5))):
                check(s, default_grid(s))
        for decimals in (2, 2, 3):
            s = Sample(values=np.round(rng.random(1024), decimals), support=(0.0, 1.0))
            check(s, default_grid(s))
            check(s, 0.005 * np.arange(1, 41))

    def test_extreme_bandwidths(self, rng):
        """A bandwidth far below every distance and one far above the support."""
        s = _sample(rng, 1024)
        for h in (1e-9, 1e3):
            got = lscv_score(s, h)
            assert np.isfinite(got)
            assert got == pytest.approx(_reference_lscv_scores(s, np.array([h]))[0],
                                        rel=1e-11, abs=0.0)

    def test_bandwidth_order_does_not_matter(self):
        """A score depends on its own bandwidth alone, not on the order or the
        largest of the others: on 60 points tied at 0.5 plus 40 uniform ones,
        h = 0.2 listed before 0.05 reads lscv_score's bits (a reach taken from
        the last bandwidth drops pairs 0.1 to 0.4 apart), and so does every
        bandwidth of a shuffled default grid."""
        rng = np.random.default_rng(1)
        tied = Sample(values=np.concatenate([np.full(60, 0.5), rng.random(40)]),
                      support=(0.0, 1.0))
        assert _lscv_scores(tied, [0.2, 0.05]) == [lscv_score(tied, 0.2),
                                                   lscv_score(tied, 0.05)]
        s = simulate(ProcessSpec(case="lsv", n=1024, seed=4, lsv_alpha=0.5))
        h_rot = rule_of_thumb_bandwidth(s)
        shuffled = rng.permutation(np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40))
        assert _lscv_scores(s, shuffled) == [lscv_score(s, float(h)) for h in shuffled]

    def test_edge_samples(self):
        """Samples where the blocks are widest against the bandwidth: n = 2 with
        the pair exactly h apart; 60 points tied at 0.5 plus 40 uniform ones,
        whose zero interquartile range leaves no rule-of-thumb bandwidth; and
        900 points within 1e-6 of 0.3 plus 124 uniform ones, on the default
        grid and on a grid down to h = 1e-7, ascending and reversed. Each is
        within 1e-11 of the per-pair scores and picks the same bandwidth."""
        def check(s, grid):
            want = _reference_lscv_scores(s, grid)
            got = _lscv_scores(s, grid)
            assert_allclose(got, want, rtol=1e-11, atol=0.0)
            assert np.argmin(got) == np.argmin(want)

        pair = Sample(values=np.array([0.2, 0.5]), support=(0.0, 1.0))
        check(pair, np.array([0.3]))
        assert lscv_score(pair, 0.3) == pytest.approx(1.34375, rel=1e-12)
        rng = np.random.default_rng(1)
        tied = Sample(values=np.concatenate([np.full(60, 0.5), rng.random(40)]),
                      support=(0.0, 1.0))
        with pytest.raises(ValueError, match="interquartile"):
            rule_of_thumb_bandwidth(tied)
        check(tied, np.array([0.05, 0.2]))
        check(tied, np.geomspace(1e-3, 0.5, 40))
        cluster = Sample(values=np.concatenate([0.3 + 1e-6 * (2.0 * rng.random(900) - 1.0),
                                                rng.random(124)]), support=(0.0, 1.0))
        h_rot = rule_of_thumb_bandwidth(cluster)
        check(cluster, np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40))
        check(cluster, np.geomspace(1e-7, 0.3, 40))
        check(cluster, np.geomspace(1e-7, 0.3, 40)[::-1])


class TestCvBandwidth:
    def test_achieves_the_grid_minimum(self, rng):
        """The scores cv_bandwidth takes from _lscv_scores are
        lscv_score's bit for bit, so it returns the first argmin. Runs on a
        uniform sample, an lsv path, and a sample rounded to 2 decimals (ties,
        zero distances, and pairs 2h apart for the h = 0.005 k grid, where
        testing the distance d <= 2h instead of xs[j] <= xs[i] + 2h moves
        the last bits)."""
        lsv = simulate(ProcessSpec(case="lsv", n=300, seed=5, lsv_alpha=0.5))
        rounded = Sample(values=np.round(rng.random(200), 2), support=(0.0, 1.0))
        for s in (_sample(rng, 60), lsv, rounded):
            h_rot = rule_of_thumb_bandwidth(s)
            default = np.geomspace(h_rot / 10.0, 3.0 * h_rot, 40)
            for grid in (default, 0.005 * np.arange(1, 41)):
                scores = [lscv_score(s, float(h)) for h in grid]
                assert _lscv_scores(s, grid) == scores
            assert cv_bandwidth(s) == default[int(np.argmin(_lscv_scores(s, default)))]

    def test_memory_stays_linear_in_n(self):
        """At n = 16384 the tracemalloc peak of cv_bandwidth stays under 64 MB;
        the pairs within 6 h_rot alone would take 548 MB."""
        s = simulate(ProcessSpec(case="iid", n=16384, seed=1,
                                 target=build_target("sine_uniform_mixture")))
        tracemalloc.start()
        try:
            cv_bandwidth(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestKernelEstimate:
    def test_matches_direct_formula(self, rng):
        s = _sample(rng, 50)
        h = rule_of_thumb_bandwidth(s)
        est = kernel_estimate(s, KernelConfig("rule_of_thumb", grid_points=101))
        for idx in (0, 13, 50, 100):
            x0 = est.grid[idx]
            want = _epa((x0 - s.values) / h).sum() / (50 * h)
            assert est.values[idx] == pytest.approx(want, rel=1e-12)

    def test_chunked_evaluation_matches_direct(self, rng):
        """n = 1024 and 4096 on 512 points: the running sums stay within the
        error bound of the dense evaluation."""
        for n in (1024, 4096):
            s = _sample(rng, n)
            est = kernel_estimate(s, KernelConfig("rule_of_thumb", grid_points=512))
            _check_against_dense(est.grid, est.values, s.values, rule_of_thumb_bandwidth(s))

    def test_in_place_kernel_matches_the_dense_formula_at_its_edge(self, rng):
        """Dyadic points with h = 0.25 put some g - x at exactly +-h (|u| = 1),
        where the clipped polynomial meets the zero branch: there the clipped
        kernel equals the dense np.where. The estimate at h_rot and at the CV
        bandwidth, on the dyadic sample and at the benchmark's size (n = 1024
        on 4096 points, uniform and lsv alpha = 0.5), stays within the error
        bound of the dense rows; the kernel-cv method returns the same
        estimate."""
        dyadic = Sample(values=rng.integers(0, 65, 300) / 64.0, support=(0.0, 1.0))
        u = (np.linspace(0.0, 1.0, 129)[:, None] - dyadic.values[None, :]) / 0.25
        assert np.any(np.abs(u) == 1.0)
        k = _epanechnikov(u)
        assert np.array_equal(k, _epa(u)) and not np.any(np.signbit(k))
        wide = _sample(rng, 1024)
        lsv = simulate(ProcessSpec(case="lsv", n=1024, seed=5, lsv_alpha=0.5))
        for s, points in ((dyadic, 129), (wide, 4096), (lsv, 4096)):
            for rule, bandwidth in (("rule_of_thumb", rule_of_thumb_bandwidth),
                                    ("cv", cv_bandwidth)):
                est = kernel_estimate(s, KernelConfig(rule, grid_points=points))
                _check_against_dense(est.grid, est.values, s.values, bandwidth(s))
        # est is the last estimate of the loop: lsv at the CV bandwidth; the
        # kernel methods read no tables
        fit = make_fit("kernel-cv", None, 4096)(lsv)
        assert np.array_equal(fit.estimate.grid, est.grid)
        assert np.array_equal(fit.estimate.values, est.values)

    @pytest.mark.parametrize("points", [64, 4097])
    @pytest.mark.parametrize("case", ["window_edges", "shifted", "narrow", "ties",
                                      "wider_than_support", "n4", "n4096", "rounded_edges",
                                      "far_rounded_edges", "exact_edges", "gap"])
    def test_windowed_blocks_match_the_dense_evaluation(self, monkeypatch, case, points):
        """Each grid point reads its window's sums from its block's running
        sums; the estimate stays within the error bound of the dense
        evaluation of every (grid, sample) pair. The bandwidth rule is
        replaced by a fixed h per case:
        - window_edges: h = 0.25 on [0, 1] with dyadic points, so on the
          4097-point grid some g - x are exactly +-h, plus a point h - 2^-40
          below and above each grid point, which a window narrower than h
          would drop;
        - shifted and narrow supports, [-3, 5] and [2, 2.5];
        - ties from rounding to 2 decimals;
        - h = h_rot/10, and h wider than the support (one block);
        - n = 4 and n = 4096;
        - rounded_edges: h = 0.3 grid steps and points at fl(g - h) and
          fl(g + h) for each inner grid point g, on [0, 1] and on
          [1000, 1001], where those lie up to 1e-12 h past the exact edge
          and would add negative kernel values to a window taken from
          fl(g +- h);
        - exact_edges: on [1000, 1001], h = 2.3 grid steps rounded to a
          multiple of 2^-40 and a point at g - h and at g + h, exact on the
          4097-point grid, for every tenth grid point g, whose window holds
          only those two: their kernel values are 0, which the rounded sums
          can read as slightly negative;
        - gap: one point at 0 and the rest within 1% of 1, so the running
          sums would carry a |y| near 1/h_rot if a row began with the point
          before its window.
        The h_rot/10 cases, narrow and n4096, the rounded edges and the gap
        leave some grid points with no sample point in their window."""
        rng = np.random.default_rng(7)
        lo, hi = {"shifted": (-3.0, 5.0), "narrow": (2.0, 2.5),
                  "far_rounded_edges": (1000.0, 1001.0),
                  "exact_edges": (1000.0, 1001.0)}.get(case, (0.0, 1.0))
        unit = {"n4": np.array([0.1, 0.35, 0.6, 0.9]), "n4096": rng.beta(2, 3, 4096),
                "ties": np.round(rng.random(1024), 2)}.get(case, rng.beta(2, 3, 1024))
        if case == "gap":
            unit = np.append(0.0, 0.99 + 0.01 * rng.random(1023))
        x = lo + (hi - lo) * unit
        grid = np.linspace(lo, hi, points)
        step = (hi - lo) / (points - 1)
        exact = round(2.3 * step * 2**40) / 2**40  # the exact_edges h
        if case == "window_edges":
            near = np.concatenate((grid - 0.25 + 2.0**-40, grid + 0.25 - 2.0**-40))
            x = np.concatenate((np.arange(65) / 64.0, near[(near >= lo) & (near <= hi)]))
        if case.endswith("rounded_edges"):
            x = np.concatenate((grid[1:-1] - 0.3 * step, grid[1:-1] + 0.3 * step, x))
        if case == "exact_edges":
            x = np.concatenate((grid[10:-10:10] - exact, grid[10:-10:10] + exact))
        s = Sample(values=x, support=(lo, hi))
        h_rot = rule_of_thumb_bandwidth(s)
        h = {"window_edges": 0.25, "narrow": h_rot / 10.0, "n4096": h_rot / 10.0,
             "wider_than_support": 3.0 * (hi - lo), "rounded_edges": 0.3 * step,
             "far_rounded_edges": 0.3 * step, "exact_edges": exact}.get(case, h_rot)
        monkeypatch.setattr(baseline_kernel, "rule_of_thumb_bandwidth", lambda _: h)
        est = kernel_estimate(s, KernelConfig("rule_of_thumb", grid_points=points))
        empty = _check_against_dense(est.grid, est.values, x, h)
        assert (empty > 0) == (case in ("narrow", "n4096", "rounded_edges",
                                        "far_rounded_edges", "exact_edges", "gap"))

    def test_scales_to_n65536(self):
        """n = 65536 on 4096 points: every 16th row within the error bound of
        the dense evaluation, and a tracemalloc peak under 32 MB; a dense
        buffer of the grid by the sample would take 2 GB."""
        s = simulate(ProcessSpec(case="iid", n=65536, seed=1,
                                 target=build_target("sine_uniform_mixture")))
        tracemalloc.start()
        try:
            est = kernel_estimate(s, KernelConfig("rule_of_thumb", grid_points=4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        _check_against_dense(est.grid[::16], est.values[::16], s.values,
                             rule_of_thumb_bandwidth(s))

    def test_grid_spans_support(self, rng):
        s = _sample(rng, 20)
        est = kernel_estimate(s, KernelConfig(grid_points=64))
        assert est.grid[0] == 0.0 and est.grid[-1] == 1.0
        assert len(est.grid) == 64

    def test_mass_roughly_one(self, rng):
        # interior-supported sample, so little mass leaks past the edges
        vals = 0.2 + 0.6 * rng.random(500)
        s = Sample(values=vals, support=(0.0, 1.0))
        est = kernel_estimate(s)
        assert np.trapezoid(est.values, est.grid) == pytest.approx(1.0, abs=0.05)

    def test_nonnegative_everywhere(self, rng):
        est = kernel_estimate(_sample(rng, 100))
        assert np.all(est.values >= 0.0)


class TestKernelConfig:
    def test_bad_rule(self):
        with pytest.raises(ValueError, match="bandwidth_rule"):
            KernelConfig(bandwidth_rule="silverman")

    @pytest.mark.parametrize("points", [0, 1, -3, 2.5])
    def test_bad_grid_points(self, points):
        """Refused when the config is built, before any bandwidth or grid:
        0 failed in the evaluation, 1 in DensityEstimate, -3 and 2.5 in
        np.linspace."""
        with pytest.raises(ValueError, match="grid_points"):
            KernelConfig(grid_points=points)
