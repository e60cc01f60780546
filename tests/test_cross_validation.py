"""Threshold cross-validation: criterion values, argmin structure, level cut."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavedens.cross_validation import (CvCriterionValue, CvSelection,
                                       _level_stats, cv_criterion, fit_cv,
                                       select_j1, select_lambda)
from wavedens.estimator import (Sample, ThresholdPlan, apply_plan,
                                empirical_coefficients, reconstruct)
from wavedens.wavelet_basis import build_filter, cascade_tables

# module-level Haar so hypothesis examples reuse one cascade
_HAAR = cascade_tables(build_filter("daubechies", 1), depth=10)


def naive_cv(sample, tables, j, lam, mode):
    """O(n^2) double-loop oracle for the criterion, no shared-sum shortcut."""
    x = sample.values
    n = len(x)
    k_min, k_max = tables.k_range(j, *sample.support)
    total = 0.0
    for k in range(k_min, k_max + 1):
        psi = np.array([tables.eval("psi", j, k, float(xi)) for xi in x])
        beta = psi.mean()
        if abs(beta) >= lam:
            pairwise = 0.0
            for i in range(n):
                for h in range(n):
                    if i != h:
                        pairwise += psi[i] * psi[h]
            term = beta * beta - 2.0 * pairwise / (n * (n - 1))
            if mode == "STCV":
                term += lam * lam
            total += term
    return total


def first_minimiser_over_full_set(sample, tables, j, mode):
    """(lam, value) minimizing the criterion over 0, every |beta|, the float
    just above each, and one value above the largest; first minimum wins.

    Values come from suffix sums over |beta| in ascending order, the
    arithmetic that both the selector and cv_criterion use.
    """
    _, beta, bracket = _level_stats(sample, tables, j)
    a = np.abs(beta)
    order = np.argsort(a, kind="stable")
    suffix = np.concatenate([np.cumsum(bracket[order][::-1])[::-1], [0.0]])
    b = np.unique(a)
    full = np.unique(np.concatenate([[0.0], b, np.nextafter(b, np.inf),
                                     [b[-1] * (1.0 + 1e-9) + 1e-300]]))
    best = None
    for lam in full:
        i = int(np.searchsorted(a[order], lam, side="left"))
        value = float(suffix[i])
        if mode == "STCV":
            value += lam * lam * (len(a) - i)
        if best is None or value < best[1]:
            best = (float(lam), value)
    return best


def _sample(rng, n):
    return Sample(values=rng.random(n), support=(0.0, 1.0))


class TestCriterion:
    @pytest.mark.parametrize("mode", ["HTCV", "STCV"])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_matches_naive_oracle(self, haar_tables, rng, mode, j):
        for _ in range(4):
            s = _sample(rng, 24)
            for lam in (0.0, 0.05, 0.3, 2.0):
                got = cv_criterion(s, haar_tables, j, lam, mode)
                want = naive_cv(s, haar_tables, j, lam, mode)
                assert abs(got - want) < 1e-10

    def test_matches_naive_oracle_sym8(self, sym8_tables, rng):
        s = _sample(rng, 16)
        for lam in (0.0, 0.2):
            got = cv_criterion(s, sym8_tables, 2, lam, "HTCV")
            assert abs(got - naive_cv(s, sym8_tables, 2, lam, "HTCV")) < 1e-10

    def test_two_point_haar_by_hand(self, haar_tables):
        """{0.25, 0.75} at j=1, lam=0: two translates contribute beta^2 = 1/2
        each and every pairwise sum cancels exactly."""
        s = Sample(values=np.array([0.25, 0.75]), support=(0.0, 1.0))
        got = cv_criterion(s, haar_tables, 1, 0.0, "HTCV")
        assert abs(got - 1.0) < 1e-12
        assert got == naive_cv(s, haar_tables, 1, 0.0, "HTCV")

    def test_empty_survivor_set_is_zero(self, haar_tables, rng):
        s = _sample(rng, 30)
        assert cv_criterion(s, haar_tables, 1, 1e6, "HTCV") == 0.0
        assert cv_criterion(s, haar_tables, 1, 1e6, "STCV") == 0.0

    def test_mode_difference_is_penalty_times_survivors(self, sym8_tables, rng):
        """STCV equals HTCV plus lam^2 per survivor, bit for bit.

        The implementation adds the penalty onto the identical hard sum, so
        the additive form is exact; comparing st - ht instead would re-round.
        """
        for _ in range(5):
            s = _sample(rng, 40)
            for j in (1, 2, 3):
                k_min, k_max = sym8_tables.k_range(j, 0.0, 1.0)
                betas = []
                for k in range(k_min, k_max + 1):
                    vals = sym8_tables.eval("psi", j, k, s.values)
                    betas.append(vals.mean())
                for lam in (0.0, 0.01, 0.1, 0.6):
                    ht = cv_criterion(s, sym8_tables, j, lam, "HTCV")
                    st = cv_criterion(s, sym8_tables, j, lam, "STCV")
                    cnt = sum(1 for b in betas if abs(b) >= lam)
                    assert st == ht + lam * lam * cnt

    def test_small_n_rejected(self, haar_tables):
        s = Sample(values=np.array([0.5]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="n >= 2"):
            cv_criterion(s, haar_tables, 1, 0.0, "HTCV")

    def test_bad_mode_and_negative_lambda(self, haar_tables):
        s = Sample(values=np.array([0.2, 0.8]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="mode"):
            cv_criterion(s, haar_tables, 1, 0.0, "MTCV")
        with pytest.raises(ValueError, match="negative"):
            cv_criterion(s, haar_tables, 1, -0.1, "HTCV")

    @pytest.mark.parametrize("mode", ["HTCV", "STCV"])
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lambda(self, haar_tables, mode, lam):
        """nan used to score as the empty set (0.0) and STCV at inf as nan."""
        s = Sample(values=np.array([0.2, 0.8]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="non-finite threshold"):
            cv_criterion(s, haar_tables, 1, lam, mode)


class TestSelectLambda:
    @pytest.mark.parametrize("mode", ["HTCV", "STCV"])
    def test_beats_dense_scan(self, sym8_tables, rng, mode):
        """The candidate-set argmin is never above a 2000-point dense scan."""
        for _ in range(6):
            s = _sample(rng, 35)
            j = int(rng.integers(1, 4))
            lam_hat = select_lambda(s, sym8_tables, j, mode)
            best = cv_criterion(s, sym8_tables, j, lam_hat, mode)
            k_min, k_max = sym8_tables.k_range(j, 0.0, 1.0)
            cap = max(abs(sym8_tables.eval("psi", j, k, s.values).mean())
                      for k in range(k_min, k_max + 1)) * 1.5 + 0.1
            for lam in np.linspace(0.0, cap, 2000):
                assert best <= cv_criterion(s, sym8_tables, j, float(lam), mode) + 1e-12

    def test_argmin_property_at_endpoints(self, sym8_tables, rng):
        s = _sample(rng, 50)
        for mode in ("HTCV", "STCV"):
            lam_hat = select_lambda(s, sym8_tables, 2, mode)
            best = cv_criterion(s, sym8_tables, 2, lam_hat, mode)
            assert best <= cv_criterion(s, sym8_tables, 2, 0.0, mode)
            assert best <= cv_criterion(s, sym8_tables, 2, 1e9, mode)

    def test_all_zero_coefficients(self, haar_tables):
        """Paired points cancel every psi sum; the optimum kills the level.

        The criterion at lam = 0 keeps every translate with a strictly
        positive bracket 2Q/(n(n-1)), so the minimizer is the smallest
        positive float rather than the literal 0 of the idealized example.
        """
        s = Sample(values=np.array([0.25, 0.75]), support=(0.0, 1.0))
        lam_hat = select_lambda(s, haar_tables, 0, "HTCV")
        assert 0.0 < lam_hat <= 1e-300
        assert cv_criterion(s, haar_tables, 0, lam_hat, "HTCV") == 0.0

    def test_spike_survives_noise_dies(self, haar_tables, rng):
        """One packed cell, scattered noise: lam clears noise, keeps spike."""
        spike = 0.0625 + 0.8 * rng.random(60) * 2**-4
        noise = np.array([0.55, 0.67, 0.81, 0.93])
        s = Sample(values=np.concatenate([spike, noise]), support=(0.0, 1.0))
        j = 4
        lam_hat = select_lambda(s, haar_tables, j, "HTCV")
        k_min, k_max = haar_tables.k_range(j, 0.0, 1.0)
        betas = {k: float(haar_tables.eval("psi", j, k, s.values).mean())
                 for k in range(k_min, k_max + 1)}
        surviving = {k for k, b in betas.items() if abs(b) >= lam_hat}
        spike_k = max(betas, key=lambda k: abs(betas[k]))
        assert spike_k in surviving
        assert len(surviving) < sum(1 for b in betas.values() if b != 0.0)

    def test_ties_break_to_smallest(self, haar_tables):
        """Every lam in (|b_small|, |b_big|] gives the same survivor set; the
        scan must return the left end of that regime, not the breakpoint."""
        s = Sample(values=np.array([0.1, 0.15, 0.2, 0.3, 0.9]), support=(0.0, 1.0))
        j = 0
        lam_hat = select_lambda(s, haar_tables, j, "HTCV")
        k_min, k_max = haar_tables.k_range(j, 0.0, 1.0)
        abs_betas = sorted(abs(haar_tables.eval("psi", j, k, s.values).mean())
                           for k in range(k_min, k_max + 1))
        value = cv_criterion(s, haar_tables, j, lam_hat, "HTCV")
        for b in abs_betas:
            if b < lam_hat:
                assert cv_criterion(s, haar_tables, j, float(b), "HTCV") > value


    @pytest.mark.parametrize("mode", ["HTCV", "STCV"])
    @pytest.mark.parametrize("wavelet", [("daubechies", 1), ("symmlet", 8)])
    def test_matches_first_minimiser_over_full_set(self, haar_tables, sym8_tables,
                                                   rng, wavelet, mode):
        """Dropping the thresholds that cannot win changes no bit of the
        selection; samples rounded to 2 decimals give ties and zero betas."""
        tables = haar_tables if wavelet[1] == 1 else sym8_tables
        for n in (40, 96, 300):
            s = Sample(values=np.round(rng.beta(2.0, 3.0, n), 2), support=(0.0, 1.0))
            _, sel = fit_cv(s, tables, mode=mode, grid_points=64)
            values = {cv.j: cv.value for cv in sel.criterion_values}
            for j in range(sel.j0, sel.j_star + 1):
                lam, value = first_minimiser_over_full_set(s, tables, j, mode)
                assert np.float64(select_lambda(s, tables, j, mode)).tobytes() == \
                    np.float64(lam).tobytes()
                assert np.float64(sel.lambdas[j]).tobytes() == np.float64(lam).tobytes()
                assert np.float64(values[j]).tobytes() == np.float64(value).tobytes()
                got = cv_criterion(s, tables, j, lam, mode)
                assert np.float64(got).tobytes() == np.float64(value).tobytes()


class TestSelectJ1:
    def test_all_zero_tail(self):
        assert select_j1({1: 0.0, 2: 0.0, 3: 0.0}, 1, 3) == 1

    def test_no_zero(self):
        assert select_j1({1: -0.4, 2: -0.1, 3: -2e-9}, 1, 3) == 3

    def test_partial_tail(self):
        values = {1: -0.5, 2: 0.0, 3: -5e-13, 4: 0.0}
        assert select_j1(values, 1, 4) == 2

    def test_interior_zero_does_not_count(self):
        values = {1: -0.5, 2: 0.0, 3: -0.2, 4: 0.0}
        assert select_j1(values, 1, 4) == 4

    def test_bad_range(self):
        with pytest.raises(ValueError, match="below"):
            select_j1({}, 3, 2)

    @settings(max_examples=300, deadline=None)
    @given(j0=st.integers(0, 3),
           levels=st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.5, -0.5]),
                           min_size=1, max_size=8))
    def test_matches_definition(self, j0, levels):
        """The smallest j in j0..j_star with every level j..j_star within 1e-12
        of 0, or j_star when there is none."""
        values = dict(enumerate(levels, start=j0))
        j_star = j0 + len(levels) - 1
        tails = [j for j in values if all(abs(values[i]) <= 1e-12 for i in range(j, j_star + 1))]
        assert select_j1(values, j0, j_star) == (min(tails) if tails else j_star)


class TestFitCv:
    def test_selection_structure(self, sym8_tables, rng):
        s = _sample(rng, 512)
        _, sel = fit_cv(s, sym8_tables, mode="HTCV", grid_points=256)
        n, N = 512, 8
        assert sel.j0 == math.floor(math.log(n) / (1 + N)) + 1
        assert sel.j_star == 9
        assert sel.j0 <= sel.j1_hat <= sel.j_star
        assert sorted(sel.lambdas) == list(range(sel.j0, sel.j_star + 1))
        assert len(sel.criterion_values) == sel.j_star - sel.j0 + 1

    def test_j1_search_bounded_by_sqrt_n(self, sym8_tables, rng):
        """HTCV's top level stops at floor(log2(n) / 2), while thresholds are
        still selected and reported up to j_star = floor(log2(n))."""
        s = _sample(rng, 1024)
        _, sel = fit_cv(s, sym8_tables, mode="HTCV", grid_points=128)
        assert sel.j1_hat <= 5
        assert sel.j_star == 10
        assert sorted(sel.lambdas) == list(range(sel.j0, 11))

    def test_deterministic(self, sym8_tables, rng):
        s = _sample(rng, 128)
        est1, sel1 = fit_cv(s, sym8_tables, mode="STCV", grid_points=128)
        est2, sel2 = fit_cv(s, sym8_tables, mode="STCV", grid_points=128)
        assert np.array_equal(est1.values, est2.values)
        assert sel1.lambdas == sel2.lambdas

    @pytest.mark.parametrize("mode,rule", [("HTCV", "hard"), ("STCV", "soft")])
    def test_matches_manual_pipeline(self, sym8_tables, rng, mode, rule):
        """fit_cv equals coefficients -> plan -> reconstruct done by hand."""
        s = _sample(rng, 256)
        est, sel = fit_cv(s, sym8_tables, mode=mode, grid_points=200)
        coeffs = empirical_coefficients(s, sym8_tables, sel.j0, sel.j1_hat)
        plan = ThresholdPlan(mode=rule,
                             lambdas={j: sel.lambdas[j]
                                      for j in range(sel.j0, sel.j1_hat + 1)},
                             j0=sel.j0, j1=sel.j1_hat)
        manual = reconstruct(apply_plan(coeffs, plan), sym8_tables, 200)
        assert_allclose(est.values, manual.values, rtol=0, atol=1e-12)

    def test_serializable(self, sym8_tables, rng):
        s = _sample(rng, 64)
        _, sel = fit_cv(s, sym8_tables, mode="STCV", grid_points=128)
        payload = json.loads(json.dumps(sel.to_dict()))
        assert payload["mode"] == "STCV"
        assert payload["j0"] == sel.j0 and payload["j1_hat"] == sel.j1_hat
        assert len(payload["levels"]) == sel.j_star - sel.j0 + 1
        assert {"j", "lambda", "cv"} == set(payload["levels"][0])

    def test_small_n_rejected(self, sym8_tables):
        s = Sample(values=np.array([0.5]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="n >= 2"):
            fit_cv(s, sym8_tables)

    def test_bad_mode_rejected(self, sym8_tables):
        s = Sample(values=np.array([0.2, 0.8]), support=(0.0, 1.0))
        with pytest.raises(ValueError, match="mode"):
            fit_cv(s, sym8_tables, mode="hard")


class TestLevelRecord:
    """Each sample keeps its level statistics per tables object."""

    def test_tables_do_not_share_a_record(self, haar_tables, sym8_tables, rng):
        """One sample fitted with haar, then sym8, then haar again gives what
        a fresh sample of the same values gives, bit for bit."""
        x = rng.random(300)
        shared = Sample(values=x, support=(0.0, 1.0))
        for tables in (haar_tables, sym8_tables, haar_tables):
            for mode in ("HTCV", "STCV"):
                for j in (1, 3, 5):
                    fresh = Sample(values=x.copy(), support=(0.0, 1.0))
                    assert (select_lambda(shared, tables, j, mode)
                            == select_lambda(fresh, tables, j, mode))
                    for lam in (0.0, 0.05, 0.3):
                        fresh = Sample(values=x.copy(), support=(0.0, 1.0))
                        assert (cv_criterion(shared, tables, j, lam, mode)
                                == cv_criterion(fresh, tables, j, lam, mode))
                est, sel = fit_cv(shared, tables, mode=mode, grid_points=128)
                fresh = Sample(values=x.copy(), support=(0.0, 1.0))
                want_est, want_sel = fit_cv(fresh, tables, mode=mode, grid_points=128)
                assert np.array_equal(est.values, want_est.values)
                assert sel == want_sel

    def test_record_freed_with_the_sample(self, sym8_tables, rng):
        """No fit result keeps the sample, so its record goes with it."""
        s = _sample(rng, 256)
        ref = weakref.ref(s)
        fits = [fit_cv(s, sym8_tables, mode=mode, grid_points=128) for mode in ("HTCV", "STCV")]
        assert s._cv
        del s
        gc.collect()
        assert ref() is None  # while both fits are still held
        assert len(fits) == 2


class TestSelectionType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CvSelection(mode="HTCV", j0=3, j_star=2, j1_hat=3, criterion_values=())
        levels = [CvCriterionValue(j=j, lam=0.1, value=0.0) for j in (1, 2)]
        CvSelection(mode="HTCV", j0=1, j_star=2, j1_hat=1, criterion_values=tuple(levels))
        with pytest.raises(ValueError, match="in order"):
            CvSelection(mode="HTCV", j0=1, j_star=2, j1_hat=1,
                        criterion_values=tuple(levels[::-1]))
        with pytest.raises(ValueError):
            CvCriterionValue(j=1, lam=-0.5, value=0.0)
        with pytest.raises(ValueError):
            CvCriterionValue(j=1, lam=0.5, value=float("nan"))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        """A nan or infinite lambda would threshold every coefficient away."""
        with pytest.raises(ValueError, match="non-finite threshold"):
            CvCriterionValue(j=1, lam=lam, value=0.0)


@given(st.lists(st.floats(0.001, 0.999), min_size=4, max_size=24, unique=True))
@settings(max_examples=40, deadline=None)
def test_penalty_identity_holds_everywhere(xs):
    """STCV minus HTCV is exactly lam^2 per survivor on arbitrary samples.

    The survivor count must come from the same floats the criterion uses:
    probing lam at max|beta| puts it on a breakpoint, where a beta recomputed
    through a different summation order can land an ulp away and flip the
    >= test.
    """
    s = Sample(values=np.array(xs), support=(0.0, 1.0))
    betas = empirical_coefficients(s, _HAAR, 1, 1).detail(1).values
    for lam in (0.0, float(np.abs(betas).max()), 0.37):
        ht = cv_criterion(s, _HAAR, 1, lam, "HTCV")
        st_ = cv_criterion(s, _HAAR, 1, lam, "STCV")
        cnt = int((np.abs(betas) >= lam).sum())
        assert st_ == ht + lam * lam * cnt
