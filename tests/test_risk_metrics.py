"""Risk harness: norms, moment integrals, replication, decay profiles."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavedens.baseline_kernel import KernelConfig, kernel_estimate
from wavedens.cli import make_fit
from wavedens.cross_validation import fit_cv
from wavedens.estimator import DensityEstimate, Sample, empirical_coefficients
from wavedens.processes import (ProcessSpec, build_target, derived_seed,
                                simulate)
from wavedens.risk_metrics import (DecayProfile, Fit, RiskReport,
                                   covariance_decay, integrated_moments,
                                   lp_distance, monte_carlo_risks)

GRID = np.linspace(0.0, 1.0, 4097)


def _flat(value, grid=GRID):
    return DensityEstimate(grid=grid, values=np.full(len(grid), float(value)))


def _uniform_target():
    return build_target("custom", {"density": lambda x: 1.0 + 0.0 * np.asarray(x),
                                   "support": (0.0, 1.0)})


def _kernel_fit(sample):
    return Fit(kernel_estimate(sample, KernelConfig("rule_of_thumb", grid_points=512)))


class TestLpDistance:
    def test_constant_offset_is_exact(self):
        truth = _uniform_target()
        est = _flat(1.5)
        for p in (1.0, 2.0, 3.5):
            assert lp_distance(est, truth, p) == pytest.approx(0.5, rel=1e-10)

    def test_l1_of_zero_estimate_is_total_mass(self, sine_target):
        est = _flat(0.0)
        assert lp_distance(est, sine_target, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_l2_of_zero_estimate_is_density_norm(self, sine_target):
        from scipy.integrate import quad
        want, _ = quad(lambda x: float(sine_target.density(x)) ** 2, 0.0, 1.0,
                       points=[0.5], limit=100)
        got = lp_distance(_flat(0.0), sine_target, 2.0) ** 2
        assert got == pytest.approx(want, abs=1e-3)

    def test_p_below_one_rejected(self, sine_target):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_distance(_flat(1.0), sine_target, 0.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_p_rejected(self, sine_target, p):
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            lp_distance(_flat(1.0), sine_target, p)

    def test_grid_must_cover_support(self, sine_target):
        short = DensityEstimate(grid=np.linspace(0.2, 0.8, 65),
                                values=np.ones(65))
        with pytest.raises(ValueError, match="does not cover"):
            lp_distance(short, sine_target, 2.0)


    def test_truth_memo_keeps_the_last_grid_only(self):
        truth = _uniform_target()
        fine, coarse = _flat(1.5), _flat(1.5, np.linspace(0.0, 1.0, 65))
        for est in (fine, coarse, fine):
            assert lp_distance(est, truth, 2.0) == pytest.approx(0.5, rel=1e-10)
            grid, values = truth._last
            assert np.array_equal(grid, est.grid) and len(values) == len(est.grid)


class TestIntegratedMoments:
    def test_flat_first_moment(self):
        value, clamps = integrated_moments([_flat(2.0)], k=1)
        assert value == pytest.approx(1.98, rel=1e-14)
        assert clamps == 0

    def test_first_moment_keeps_sign(self):
        value, clamps = integrated_moments([_flat(-1.0)], k=1)
        assert value == pytest.approx(-0.99, rel=1e-14)
        assert clamps == 0

    def test_fourth_moment_of_opposite_ramps(self):
        """mean of (x^4, x^4) then the 4th root gives back x; the integral
        over [0.01, 1] is (1 - 0.01^2)/2, exact for trapezoid on a linear
        integrand."""
        ramp_up = DensityEstimate(grid=GRID, values=GRID.copy())
        ramp_dn = DensityEstimate(grid=GRID, values=-GRID)
        value, clamps = integrated_moments([ramp_up, ramp_dn], k=4)
        assert value == pytest.approx(0.49995, rel=1e-10)
        assert clamps == 0

    def test_odd_moment_clamps_negative_mass(self):
        shifted = DensityEstimate(grid=GRID, values=GRID - 0.5)
        value, clamps = integrated_moments([shifted], k=3)
        # integrand is (x - 1/2) above 1/2 and clamped to 0 below
        assert value == pytest.approx(0.125, rel=1e-10)
        assert 0 < clamps < len(GRID)

    def test_fully_negative_odd_moment(self):
        value, clamps = integrated_moments([_flat(-1.0)], k=3)
        assert value == 0.0
        assert clamps > 0

    @given(data=st.data(), lo=st.floats(-10, 10), width=st.floats(1e-3, 20),
           points=st.integers(2, 200), replicates=st.integers(1, 3), k=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_interpolation_at_both_ends(self, data, lo, width, points, replicates,
                                                k):
        """The same bits as a reference that also interpolates at the grid's
        last point b and drops b from the interior: np.interp at b returns
        the moment's last value, so both integrate the same points."""
        grid = np.linspace(lo, lo + width, points)
        values = st.lists(st.floats(-5, 5), min_size=points, max_size=points)
        estimates = [DensityEstimate(grid=grid, values=np.array(data.draw(values)))
                     for _ in range(replicates)]
        a, b = grid[0] + 0.01 * (grid[-1] - grid[0]), grid[-1]
        moment = (np.stack([est.values for est in estimates]) ** k).mean(axis=0)
        inside = (grid > a) & (grid < b)
        xs = np.concatenate([[a], grid[inside], [b]])
        ys = np.concatenate([
            [np.interp(a, grid, moment)], moment[inside], [np.interp(b, grid, moment)]
        ])
        clamps = 0
        if k == 1:
            integrand = ys
        elif k % 2 == 1:
            clamps = int((ys < 0).sum())
            integrand = np.maximum(ys, 0.0) ** (1.0 / k)
        else:
            integrand = np.abs(ys) ** (1.0 / k)
        want = (float(np.trapezoid(integrand, xs)), clamps)
        assert integrated_moments(estimates, k) == want

    def test_interpolated_endpoints(self):
        """A coarse grid still integrates a linear moment exactly because the
        interval endpoint 0.01, between grid points, is interpolated before
        quadrature."""
        grid = np.linspace(0.0, 1.0, 5)
        est = DensityEstimate(grid=grid, values=grid.copy())
        value, _ = integrated_moments([est], k=1)
        assert value == pytest.approx((1.0 - 0.0001) / 2.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        other = DensityEstimate(grid=np.linspace(0.0, 1.0, 99),
                                values=np.ones(99))
        with pytest.raises(ValueError, match="common grid"):
            integrated_moments([_flat(1.0), other], k=2)

    def test_bad_order_and_empty_list(self):
        with pytest.raises(ValueError, match="moment order"):
            integrated_moments([_flat(1.0)], k=0)
        with pytest.raises(ValueError, match="at least one"):
            integrated_moments([], k=2)


class TestMonteCarloRisk:
    def test_needs_two_replicates(self, sine_target):
        spec = ProcessSpec("iid", 64, seed=1, target=sine_target)
        with pytest.raises(ValueError, match="M >= 2"):
            monte_carlo_risks(spec, {"kernel-rot": _kernel_fit}, M=1)

    def test_aggregation_is_the_replicate_mean(self, sine_target):
        spec = ProcessSpec("iid", 150, seed=31, target=sine_target)
        report, = monte_carlo_risks(spec, {"kernel-rot": _kernel_fit}, M=2, p_list=(1.0, 2.0))
        dists = {}
        for r in range(2):
            rep = ProcessSpec("iid", 150, seed=derived_seed(31, r),
                              target=sine_target)
            est = _kernel_fit(simulate(rep)).estimate
            for p in (1.0, 2.0):
                dists.setdefault(p, []).append(lp_distance(est, sine_target, p))
        assert report.mise == pytest.approx(np.mean(np.square(dists[2.0])), rel=1e-15)
        assert report.lp_risks[1.0] == pytest.approx(np.mean(dists[1.0]), rel=1e-15)
        assert report.lp_risks[2.0] == pytest.approx(
            np.sqrt(np.mean(np.square(dists[2.0]))), rel=1e-15)

    def test_failing_replicate_reports_its_seed(self, sine_target):
        def broken(sample):
            raise ArithmeticError("singular")

        spec = ProcessSpec("iid", 64, seed=77, target=sine_target)
        with pytest.raises(RuntimeError, match="replicate 0") as err:
            monte_carlo_risks(spec, {"broken-fit": broken}, M=2)
        assert str(derived_seed(77, 0)) in str(err.value)
        assert "failed for broken-fit: singular" in str(err.value)
        # a method that fits after a working one is named, not the first
        with pytest.raises(RuntimeError, match=r"replicate 0 \(seed \d+\) failed for HTCV"):
            monte_carlo_risks(spec, {"kernel-rot": _kernel_fit, "HTCV": broken}, M=2)

    @pytest.mark.parametrize("case", ["iid", "logistic_map", "noncausal_ar", "lsv"])
    def test_shared_replicates_match_separate_runs(self, case, sine_target, sym8_tables):
        """Fitting every method to one simulation per replicate reports, for
        each method, what a run of that method alone reports, bit for bit."""
        spec = (ProcessSpec(case, 512, seed=3, lsv_alpha=0.5) if case == "lsv"
                else ProcessSpec(case, 512, seed=3, target=sine_target))
        fits = {m: make_fit(m, sym8_tables, 256, b=100.0)
                for m in ("HTCV", "STCV", "theoretical-hard", "kernel-rot")}
        kwargs = dict(p_list=(1.0, 2.0), moment_orders=(1, 3))
        shared = monte_carlo_risks(spec, fits, 3, **kwargs)
        separate = [monte_carlo_risks(spec, {m: fit}, 3, **kwargs)[0]
                    for m, fit in fits.items()]
        assert [r.to_dict() for r in shared] == [r.to_dict() for r in separate]
        assert [r.method for r in shared] == list(fits)

    def test_truth_is_evaluated_once_per_run(self, sym8_tables):
        """Every fit of a run shares one grid, so the target density runs once."""
        calls = []

        def density(x):
            calls.append(np.size(x))
            return 1.0 + np.sin(np.pi * np.asarray(x))

        truth = build_target("custom", {"density": density, "support": (0.0, 1.0)})
        calls.clear()  # building the target tabulates the density
        spec = ProcessSpec("iid", 256, seed=9, target=truth)
        fits = {m: make_fit(m, sym8_tables, 256) for m in ("HTCV", "STCV")}
        monte_carlo_risks(spec, fits, 3, p_list=(1.0, 2.0))
        assert calls == [256]

    def test_unknown_truth_skips_risks(self):
        spec = ProcessSpec("lsv", 64, seed=5, lsv_alpha=0.5)
        report, = monte_carlo_risks(spec, {"kernel-rot": _kernel_fit}, M=2)
        assert report.mise is None
        assert report.lp_risks == {}
        assert report.mean_j1 is None

    def test_selection_statistics_aggregated(self, sine_target, sym8_tables):
        def cv_fit(sample):
            est, sel = fit_cv(sample, sym8_tables, mode="STCV", grid_points=128)
            return Fit(est, j1=sel.j1_hat, lambdas=sel.lambdas,
                       killed_fraction={1: 0.5}, diagnostics=sel)

        spec = ProcessSpec("iid", 64, seed=13, target=sine_target)
        report, = monte_carlo_risks(spec, {"STCV": cv_fit}, M=3)
        assert report.method == "STCV"
        assert report.mean_j1 is not None and 1 <= report.mean_j1 <= 6
        assert sorted(report.threshold_profile) == list(range(1, 7))
        assert report.thresholded_fraction == {1: 0.5}

    @pytest.mark.parametrize("mode", ["HTCV", "STCV"])
    def test_cv_kill_fractions_count_thresholded_coefficients(self, mode, sine_target,
                                                              sym8_tables):
        """Per level, the share of empirical detail coefficients with
        |beta| <= lambda up to j1 and 1.0 above it, bit for bit."""
        for case, n, seed in (("iid", 256, 3), ("logistic_map", 512, 4),
                              ("noncausal_ar", 1024, 5)):
            sample = simulate(ProcessSpec(case, n, seed=seed, target=sine_target))
            fit = make_fit(mode, sym8_tables, 128)(sample)
            sel = fit.diagnostics
            coeffs = empirical_coefficients(sample, sym8_tables, sel.j0, sel.j_star)
            want = {}
            for j in range(sel.j0, sel.j_star + 1):
                if j <= sel.j1_hat:
                    beta = coeffs.detail(j).values
                    want[j] = float(np.mean(np.abs(beta) <= sel.lambdas[j]))
                else:
                    want[j] = 1.0
            assert fit.killed_fraction == want
            assert any(0.0 < v < 1.0 for v in want.values())

    def test_moments_wired_through(self, sine_target):
        spec = ProcessSpec("iid", 128, seed=21, target=sine_target)
        report, = monte_carlo_risks(spec, {"kernel-rot": _kernel_fit}, M=2,
                                    moment_orders=(1, 2))
        assert set(report.integrated_moments) == {1, 2}
        assert report.moment_clamps == 0  # kernel estimates are nonnegative
        assert report.integrated_moments[1] == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("M", [2, 9, 40])
    def test_running_moments_match_the_stacked_mean(self, M, sym8_tables):
        """The running sums of g^k give integrated_moments' bits on the same
        estimates, clamps included: next to a narrow peak HTCV's estimates dip
        below zero, so the third moment meets negative means."""
        held = {}

        def holding(method):
            fit = make_fit(method, sym8_tables, 256)

            def wrapped(sample):
                result = fit(sample)
                held.setdefault(method, []).append(result.estimate)
                return result
            return wrapped

        peak = build_target("gaussian_mixture", {"means": [0.3], "sds": [0.03],
                                                 "weights": [1.0], "support": [0.0, 1.0]})
        spec = ProcessSpec("iid", 256, seed=17, target=peak)
        reports = monte_carlo_risks(spec, {m: holding(m) for m in ("kernel-rot", "HTCV")}, M,
                                    moment_orders=(1, 2, 3))
        for report in reports:
            want = {k: integrated_moments(held[report.method], k) for k in (1, 2, 3)}
            assert len(held[report.method]) == M
            assert report.integrated_moments == {k: v for k, (v, _) in want.items()}
            assert report.moment_clamps == sum(c for _, c in want.values())
        assert reports[1].moment_clamps > 0

    def test_no_estimate_outlives_its_replicate(self, sine_target, sym8_tables):
        """When a method fits replicate r, the estimates of replicates before
        r - 1 are gone; only the latest may still be referenced."""
        refs = {}

        def tracking(method):
            fit = make_fit(method, sym8_tables, 256)

            def wrapped(sample):
                gc.collect()
                seen = refs.setdefault(method, [])
                assert all(ref() is None for ref in seen[:-1])
                result = fit(sample)
                seen.append(weakref.ref(result.estimate))
                return result
            return wrapped

        spec = ProcessSpec("iid", 256, seed=19, target=sine_target)
        monte_carlo_risks(spec, {m: tracking(m) for m in ("kernel-rot", "HTCV")}, 6,
                          p_list=(1.0, 2.0), moment_orders=(1, 3))
        assert [len(seen) for seen in refs.values()] == [6, 6]

    def test_report_serializes(self, sine_target):
        spec = ProcessSpec("iid", 64, seed=2, target=sine_target)
        report, = monte_carlo_risks(spec, {"kernel-rot": _kernel_fit}, M=2, p_list=(1.0,))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["case"] == "iid"
        assert payload["replicates"] == 2
        assert set(payload["lp_risks"]) == {"1.0"}


class TestRiskReport:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="negative mise"):
            RiskReport("m", "iid", 64, 2, mise=-0.1, lp_risks={})
        with pytest.raises(ValueError, match="negative lp"):
            RiskReport("m", "iid", 64, 2, mise=0.1, lp_risks={2.0: -1.0})
        with pytest.raises(ValueError, match="fraction"):
            RiskReport("m", "iid", 64, 2, mise=0.1, lp_risks={},
                       thresholded_fraction={3: 1.2})

    def test_to_dict_sorts_keys(self):
        report = RiskReport("m", "iid", 64, 2, mise=0.1, lp_risks={},
                            threshold_profile={10: 0.3, 2: 0.1})
        assert list(report.to_dict()["threshold_profile"]) == ["2", "10"]


class TestCovarianceDecay:
    def test_matches_naive_lagged_products(self, sym8_tables, sine_target):
        s = simulate(ProcessSpec("iid", 600, seed=4, target=sine_target))
        prof = covariance_decay(s, sym8_tables, 2, 1, max_lag=20)
        delta = sym8_tables.eval("phi", 2, 1, s.values)
        delta = delta - delta.mean()
        assert prof.variance == np.mean(delta * delta)
        for i, r in enumerate(range(1, 21)):
            prods = delta[:-r] * delta[r:]
            assert prof.covariances[i] == prods.mean()
            assert prof.floor[i] == 3.0 * prods.std() / np.sqrt(600 - r)

    def test_iid_is_flagged_sub_noise(self, sym8_tables, sine_target):
        s = simulate(ProcessSpec("iid", 4000, seed=12, target=sine_target))
        prof = covariance_decay(s, sym8_tables, 2, 1, max_lag=100)
        assert prof.sub_noise
        assert prof.slope is None

    def test_exponential_mixing_dies_below_floor(self, sym8_tables, sine_target):
        """The chaotic map decorrelates geometrically; past the first few lags
        nothing clears the noise floor, like the iid control."""
        s = simulate(ProcessSpec("logistic_map", 4000, seed=12,
                                 target=sine_target))
        prof = covariance_decay(s, sym8_tables, 2, 1, max_lag=50)
        assert prof.sub_noise

    def test_intermittent_map_shows_polynomial_tail(self, sym8_tables):
        s = simulate(ProcessSpec("lsv", 50_000, seed=12, lsv_alpha=0.5))
        prof = covariance_decay(s, sym8_tables, 2, 1, max_lag=100)
        assert not prof.sub_noise
        assert prof.slope is not None and -1.5 < prof.slope < -0.2

    def test_max_lag_bounds(self, sym8_tables, sine_target):
        s = simulate(ProcessSpec("iid", 400, seed=9, target=sine_target))
        with pytest.raises(ValueError, match="max_lag"):
            covariance_decay(s, sym8_tables, 2, 1, max_lag=0)
        with pytest.raises(ValueError, match="max_lag"):
            covariance_decay(s, sym8_tables, 2, 1, max_lag=101)

    def test_profile_validates_lags(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DecayProfile(lags=np.array([2, 1]),
                         covariances=np.zeros(2), variance=1.0,
                         floor=np.zeros(2), slope=None, sub_noise=True)
        with pytest.raises(ValueError, match=">= 1"):
            DecayProfile(lags=np.array([0, 1]),
                         covariances=np.zeros(2), variance=1.0,
                         floor=np.zeros(2), slope=None, sub_noise=True)
