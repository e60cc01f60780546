"""Coefficients, thresholding rules, the theoretical schedule, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavedens.cross_validation import fit_cv
from wavedens.estimator import (DensityEstimate, Sample, ThresholdPlan, apply_plan,
                                empirical_coefficients, hard_threshold,
                                reconstruct, soft_threshold, theoretical_plan)


def _naive_coefficient(tables, kind, j, k, x):
    """Per-point summation oracle for one empirical coefficient."""
    return sum(tables.eval(kind, j, k, float(xi)) for xi in x) / len(x)


class TestSample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Sample(values=np.array([]), support=(0.0, 1.0))

    def test_rejects_out_of_support(self):
        with pytest.raises(ValueError, match="outside"):
            Sample(values=np.array([0.2, 1.4]), support=(0.0, 1.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Sample(values=np.array([0.2, np.nan]), support=(0.0, 1.0))

    @pytest.mark.parametrize("support", [(0.0, math.nan), (1.0, 0.0), (0.0, 0.0),
                                         (0.0, math.inf)])
    def test_rejects_bad_support(self, support):
        with pytest.raises(ValueError, match="support must be finite with lo < hi"):
            Sample(values=np.array([0.0]), support=support)

    def test_rejects_not_1d(self):
        """A (20, 3) array used to load as n = 20 and fail later in a broadcast."""
        with pytest.raises(ValueError, match="1-D"):
            Sample(values=np.full((20, 3), 0.5), support=(0.0, 1.0))

    def test_n(self):
        assert Sample(values=np.array([0.1, 0.5, 0.9]), support=(0.0, 1.0)).n == 3


class TestDensityEstimate:
    @pytest.mark.parametrize("support", [(0.0, 1.0), (-3.0, 5.0), (2.0, 2.5), (100.0, 101.0)])
    @pytest.mark.parametrize("points", [64, 4096, 4097])
    def test_accepts_linspace_grids(self, support, points):
        grid = np.linspace(*support, points)
        assert DensityEstimate(grid=grid, values=np.ones(points)).grid is grid

    @pytest.mark.parametrize("off, uniform", [(2e-9, False), (-2e-9, False), (5e-10, True)])
    def test_one_step_off_by_a_relative_amount(self, off, uniform):
        """Moving one point by `off` steps changes two steps by that relative
        amount; more than 1e-9 is refused."""
        grid = np.linspace(0.0, 1.0, 101)
        grid[50] += off * (grid[1] - grid[0])
        if uniform:
            DensityEstimate(grid=grid, values=np.ones(101))
        else:
            with pytest.raises(ValueError, match="grid must be uniform"):
                DensityEstimate(grid=grid, values=np.ones(101))


class TestEmpiricalCoefficients:
    def test_matches_naive_oracle(self, sym8_tables, rng):
        """Vectorized table sums equal per-point loops to 1e-10."""
        x = rng.random(60)
        sample = Sample(values=x, support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=1, jmax=3)
        scal = coeffs.scaling
        for k, v in zip(scal.k_values(), scal.values):
            assert abs(v - _naive_coefficient(sym8_tables, "phi", 1, k, x)) < 1e-10
        for lev in coeffs.details:
            for k, v in zip(lev.k_values(), lev.values):
                assert abs(v - _naive_coefficient(sym8_tables, "psi", lev.j, k, x)) < 1e-10

    def test_haar_counts(self, haar_tables):
        """With Haar at j0=0 the scaling coefficient is the in-cell fraction."""
        x = np.array([0.1, 0.2, 0.6, 0.7, 0.8])
        sample = Sample(values=x, support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, haar_tables, j0=1, jmax=0)
        lev = coeffs.scaling
        by_k = dict(zip(lev.k_values(), lev.values))
        # phi_{1,0} = sqrt(2) on [0, 1/2): two of five points
        assert abs(by_k[0] - math.sqrt(2) * 2 / 5) < 1e-12
        assert abs(by_k[1] - math.sqrt(2) * 3 / 5) < 1e-12

    def test_jmax_below_j0_means_no_details(self, sym8_tables):
        sample = Sample(values=np.array([0.3, 0.6]), support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=2, jmax=1)
        assert coeffs.details == ()
        assert coeffs.jmax == 1

    def test_detail_lookup_error(self, sym8_tables):
        sample = Sample(values=np.array([0.3, 0.6]), support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=2, jmax=3)
        with pytest.raises(KeyError):
            coeffs.detail(9)


class TestThresholdRules:
    def test_hard_is_strict(self):
        """A coefficient exactly at the threshold is killed (survival needs >)."""
        beta = np.array([-0.5, -0.2, 0.2, 0.5])
        out = hard_threshold(beta, 0.2)
        assert_allclose(out, [-0.5, 0.0, 0.0, 0.5])

    def test_soft_shrinks_toward_zero(self):
        beta = np.array([-0.5, -0.2, 0.2, 0.5])
        out = soft_threshold(beta, 0.2)
        assert_allclose(out, [-0.3, 0.0, 0.0, 0.3], atol=1e-15)

    @pytest.mark.parametrize("rule", [hard_threshold, soft_threshold])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, rule, lam):
        """nan and +inf used to zero every coefficient without a word."""
        with pytest.raises(ValueError, match="non-finite threshold"):
            rule(np.array([1.0, -2.0]), lam)
        with pytest.raises(ValueError, match="non-finite threshold"):
            rule(1.0, lam)

    @given(beta=st.floats(-10, 10), lam=st.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_soft_dominated_by_hard(self, beta, lam):
        b = np.array([beta])
        assert abs(soft_threshold(b, lam)[0]) <= abs(hard_threshold(b, lam)[0]) + 1e-15

    @given(beta=st.floats(-10, 10), lam=st.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_soft_formula(self, beta, lam):
        got = soft_threshold(np.array([beta]), lam)[0]
        want = math.copysign(max(abs(beta) - lam, 0.0), beta)
        assert got == pytest.approx(want, abs=1e-15)


class TestTheoreticalPlan:
    @pytest.mark.parametrize("n,b", [(4096, 100.0), (65536, 4.0), (10**6, 2.0)])
    def test_schedule_formulas(self, n, b):
        """j0 and j1 recompute from the stated closed forms.

        The exponent -2/b - 3 keeps the schedule degenerate for small b at
        moderate n, so only weakly dependent regimes (large b) or very large
        samples are exercised here.
        """
        plan = theoretical_plan(n, N=8, b=b, K=1.0)
        assert plan.j0 == math.floor(math.log(n) / 9.0) + 1
        w = (math.log(n) + (-2.0 / b - 3.0) * math.log(math.log(n))) / math.log(2.0)
        assert plan.j1 == math.ceil(w) - 1
        assert plan.j1 >= plan.j0

    def test_lambda_values(self):
        plan = theoretical_plan(65536, N=8, b=4.0, K=2.5)
        for j, lam in plan.lambdas.items():
            assert lam == pytest.approx(2.5 * math.sqrt(j / 65536), rel=1e-15)
        assert sorted(plan.lambdas) == list(range(plan.j0, plan.j1 + 1))

    def test_threshold_value_is_exact_for_dyadic_ratio(self):
        """lambda_j = K sqrt(j/n) lands on exact dyadics when j/n does."""
        plan = theoretical_plan(10**6, N=8, b=2.0, K=1.0)
        assert 4 in plan.lambdas
        assert plan.lambdas[4] == math.sqrt(4 / 10**6)

    def test_degenerate_schedule(self):
        with pytest.raises(ValueError, match="degenerate schedule"):
            theoretical_plan(16, N=8, b=0.2, K=1.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            theoretical_plan(4, N=8, b=1.0, K=1.0)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            theoretical_plan(1024, N=0, b=1.0, K=1.0)
        with pytest.raises(ValueError):
            theoretical_plan(1024, N=8, b=-1.0, K=1.0)
        with pytest.raises(ValueError):
            theoretical_plan(1024, N=8, b=1.0, K=0.0)

    @pytest.mark.parametrize("b,K", [(100.0, math.nan), (100.0, math.inf),
                                     (math.nan, 1.0), (math.inf, 1.0)])
    def test_non_finite_constants_rejected(self, b, K):
        """K = nan used to give nan lambdas, and hard thresholding zeroed everything."""
        with pytest.raises(ValueError, match="finite b > 0, K > 0"):
            theoretical_plan(65536, N=8, b=b, K=K)


class TestApplyPlan:
    def _coeffs(self, tables):
        x = np.linspace(0.05, 0.95, 40)
        return empirical_coefficients(Sample(values=x, support=(0.0, 1.0)),
                                      tables, j0=1, jmax=5)

    @pytest.mark.parametrize("levels", [range(1, 3), range(1, 5), range(2, 4), [1, 3]])
    def test_plan_needs_one_lambda_per_level(self, levels):
        """A level without its own lambda must not pass silently unthresholded."""
        with pytest.raises(ValueError, match="one lambda for each level 1..3"):
            ThresholdPlan(mode="hard", lambdas={j: 0.1 for j in levels}, j0=1, j1=3)

    def test_levels_above_j1_rejected(self, sym8_tables):
        """A plan thresholds exactly the stored detail levels; it neither
        zeroes nor skips a level above j1."""
        coeffs = self._coeffs(sym8_tables)
        plan = ThresholdPlan(mode="hard", lambdas={j: 0.0 for j in range(1, 4)},
                             j0=1, j1=3)
        with pytest.raises(ValueError, match=r"levels 1..3 do not match .*\[1, 2, 3, 4, 5\]"):
            apply_plan(coeffs, plan)

    def test_scaling_never_thresholded(self, sym8_tables):
        coeffs = self._coeffs(sym8_tables)
        plan = ThresholdPlan(mode="hard", lambdas={j: 99.0 for j in range(1, 6)},
                             j0=1, j1=5)
        out = apply_plan(coeffs, plan)
        assert_allclose(out.scaling.values, coeffs.scaling.values, rtol=0, atol=0)
        for lev in out.details:
            assert np.all(lev.values == 0.0)

    def test_plan_exceeding_levels_rejected(self, sym8_tables):
        coeffs = self._coeffs(sym8_tables)
        plan = ThresholdPlan(mode="hard", lambdas={j: 0.1 for j in range(1, 8)},
                             j0=1, j1=7)
        with pytest.raises(ValueError, match="do not match the stored detail levels"):
            apply_plan(coeffs, plan)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ThresholdPlan(mode="firm", lambdas={1: 0.1}, j0=1, j1=1)
        with pytest.raises(ValueError):
            ThresholdPlan(mode="hard", lambdas={1: -0.1}, j0=1, j1=1)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite threshold"):
                ThresholdPlan(mode="hard", lambdas={1: 0.1, 2: lam}, j0=1, j1=2)


class TestReconstruct:
    def test_matches_naive_synthesis(self, sym8_tables, rng):
        """Grid synthesis equals the per-coefficient loop to 1e-10."""
        x = rng.random(50)
        sample = Sample(values=x, support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=1, jmax=2)
        est = reconstruct(coeffs, sym8_tables, grid_points=100)
        want = np.zeros(100)
        for k, v in zip(coeffs.scaling.k_values(), coeffs.scaling.values):
            want += v * sym8_tables.eval("phi", 1, int(k), est.grid)
        for lev in coeffs.details:
            for k, v in zip(lev.k_values(), lev.values):
                want += v * sym8_tables.eval("psi", lev.j, int(k), est.grid)
        assert_allclose(est.values, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("support", [(0.0, 1.0), (-0.5, 2.0), (0.0, 4.0)])
    @pytest.mark.parametrize("name", ["haar_tables", "sym8_tables"])
    def test_levels_span_their_k_range(self, request, name, support, rng):
        """Every level the program builds, by empirical_coefficients or in
        fit_cv's record, stores exactly k_range(j, *support): all the
        translates a synthesis over that support reads."""
        tables = request.getfixturevalue(name)
        lo, hi = support
        sample = Sample(values=lo + (hi - lo) * rng.random(256), support=support)
        coeffs = empirical_coefficients(sample, tables, 1, 6)
        fit_cv(sample, tables, grid_points=64)
        record = sample._cv[tables]
        cv_levels = [rec.coeffs for j, rec in record.items() if j != "phi"]
        assert cv_levels
        for lev in (coeffs.scaling, *coeffs.details, record["phi"], *cv_levels):
            span = (lev.k_min, lev.k_min + len(lev.values) - 1)
            assert span == tables.k_range(lev.j, *support), lev.j

    def test_grid_spans_support(self, sym8_tables):
        sample = Sample(values=np.array([0.3, 0.5]), support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=1, jmax=0)
        est = reconstruct(coeffs, sym8_tables, grid_points=64)
        assert est.grid[0] == 0.0 and est.grid[-1] == 1.0 and len(est.grid) == 64

    def test_grid_floor(self, sym8_tables):
        sample = Sample(values=np.array([0.3, 0.5]), support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=1, jmax=0)
        with pytest.raises(ValueError, match="grid_points"):
            reconstruct(coeffs, sym8_tables, grid_points=32)

    def test_mass_near_one(self, sym8_tables, rng):
        """The scaling-plus-details synthesis integrates to about 1."""
        x = rng.random(400)
        sample = Sample(values=x, support=(0.0, 1.0))
        coeffs = empirical_coefficients(sample, sym8_tables, j0=2, jmax=4)
        est = reconstruct(coeffs, sym8_tables, grid_points=2048)
        assert abs(est.integral() - 1.0) < 0.1
