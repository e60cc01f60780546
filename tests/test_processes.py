"""Samplers: determinism, marginal laws, and the latent dynamics."""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import wavedens.processes as proc
from wavedens.processes import (ProcessSpec, _case3_latent, _case3_noise, _rng, build_target,
                                case3_marginal_cdf, derived_seed, lsv_step, simulate)

KS_ALPHA = 1e-3


class _FirstDraw:
    """An rng whose first draw is `first` and whose later draws are _rng(seed)'s."""

    def __init__(self, first, seed):
        self.first, self.real = [first], _rng(seed)

    def random(self, size=None):
        return self.first.pop() if self.first else self.real.random(size)


def _lsv_orbit(z, alpha, length):
    """The first `length` states of lsv_step's orbit from z, in plain floats."""
    states = [z]
    while len(states) < length:
        states.append(lsv_step(states[-1], alpha))
    return np.array(states)


def _invert_marginal_cdf(u):
    """Bisection inverse of the two-sided moving-average marginal cdf."""
    a = np.zeros_like(u)
    b = np.ones_like(u)
    for _ in range(80):
        mid = 0.5 * (a + b)
        below = case3_marginal_cdf(mid) < u
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def _bisect_90_steps(cdf, lo, hi, u):
    """Reference inverse: the monotone bisection run for all 90 steps."""
    u = np.asarray(u, dtype=np.float64)
    a = np.full(u.shape, lo)
    b = np.full(u.shape, hi)
    for _ in range(90):
        mid = 0.5 * (a + b)
        below = cdf(mid) < u
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def _inverse_cdf_inputs():
    """Edge cases, 3-decimal ties and plain draws from [0, 1)."""
    rng = np.random.default_rng(11)
    return np.concatenate([[0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5],
                           np.round(rng.random(400), 3), rng.random(400)])


class TestSeeds:
    def test_derived_seed_oracle(self):
        """Recompute the hash chain from the raw bytes, independently."""
        for master, r in [(0, 0), (20260814, 3), (2**64 - 1, 999), (-5, 1)]:
            raw = struct.pack("<QQ", master & (2**64 - 1), r)
            want = int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")
            assert derived_seed(master, r) == want

    def test_derived_seeds_distinct(self):
        seeds = {derived_seed(20260814, r) for r in range(200)}
        assert len(seeds) == 200


class TestSpecValidation:
    def test_unknown_case(self, sine_target):
        with pytest.raises(ValueError, match="unknown case"):
            ProcessSpec("arma", 100, seed=1, target=sine_target)

    def test_small_n(self, sine_target):
        with pytest.raises(ValueError, match="n >= 2"):
            ProcessSpec("iid", 1, seed=1, target=sine_target)

    def test_lsv_needs_alpha_in_unit_interval(self):
        with pytest.raises(ValueError, match="lsv_alpha"):
            ProcessSpec("lsv", 100, seed=1)
        with pytest.raises(ValueError, match="lsv_alpha"):
            ProcessSpec("lsv", 100, seed=1, lsv_alpha=1.0)

    def test_pushforward_cases_need_target(self):
        with pytest.raises(ValueError, match="target"):
            ProcessSpec("logistic_map", 100, seed=1)

    def test_lsv_takes_no_target(self, sine_target):
        """The lsv map's density has no closed form, so a target is refused."""
        with pytest.raises(ValueError, match="takes no target"):
            ProcessSpec("lsv", 100, seed=1, target=sine_target, lsv_alpha=0.5)

    @pytest.mark.parametrize("case,field,value", [
        ("iid", "lsv_alpha", 0.3),
        pytest.param("lsv", "target", build_target("sine_uniform_mixture"),
                     id="lsv-target-sine"),
        ("logistic_map", "lsv_alpha", 0.5),
        ("noncausal_ar", "lsv_alpha", 0.5),
    ])
    def test_unread_field_is_refused(self, sine_target, case, field, value):
        """A field the case does not read would change nothing, so it is refused."""
        kwargs = {"lsv_alpha": 0.5} if case == "lsv" else {"target": sine_target}
        with pytest.raises(ValueError, match=f"case '{case}' takes no {field}"):
            ProcessSpec(case, 64, seed=1, **kwargs, **{field: value})


class TestTargets:
    def test_sine_mixture_integrates_to_one(self, sine_target):
        from scipy.integrate import quad
        mass, _ = quad(lambda x: float(sine_target.density(x)), 0.0, 1.0,
                       points=[0.5], limit=100)
        assert abs(mass - 1.0) < 1e-9

    def test_sine_mixture_closed_forms(self, sine_target):
        c = math.pi / (math.pi + 1.0)
        assert sine_target.density(0.25) == pytest.approx(c * (1 + math.sin(math.pi / 4)))
        assert sine_target.density(0.75) == pytest.approx(c)
        assert sine_target.cdf(0.0) == 0.0
        assert sine_target.cdf(1.0) == pytest.approx(1.0)
        # mass left of the jump: c*(1/2 + 1/pi)
        assert sine_target.cdf(0.5) == pytest.approx(c * (0.5 + 1.0 / math.pi))

    @pytest.mark.parametrize("kind,params", [
        ("sine_uniform_mixture", None),
        ("gaussian_mixture", None),
        ("gaussian_mixture", {"means": (0.2, 0.5, 0.8), "sds": (0.05, 0.1, 0.05),
                              "weights": (1, 2, 1)}),
        ("custom", {"density": lambda x: 1.0 + 0.0 * x, "support": (0.0, 1.0)}),
    ])
    def test_quantile_roundtrip(self, kind, params):
        target = build_target(kind, params)
        u = np.linspace(0.001, 0.999, 513)
        x = target.inverse_cdf(u)
        assert np.all(np.diff(x) >= 0)
        assert np.max(np.abs(target.cdf(x) - u)) < 1e-8

    def test_sine_inverse_matches_the_bisection(self, sine_target):
        """Newton lands within rounding of the 90-step bisection wherever that
        bisection is not capped by its step count (u >= 2^-40), maps 0 to 0,
        and round-trips to the cdf's own rounding."""
        u = _inverse_cdf_inputs()
        x = sine_target.inverse_cdf(u)
        ref = _bisect_90_steps(sine_target.cdf, 0.0, 1.0, u)
        resolved = u >= 2.0**-40
        assert np.abs(x - ref)[resolved].max() <= 2.5e-16
        assert x[u == 0.0].tolist() == [0.0]
        assert np.abs(sine_target.cdf(x) - u).max() <= 2.3e-16

    @pytest.mark.parametrize("kind,params", [
        ("gaussian_mixture", None),
        ("custom", {"density": lambda x: 1.0 + np.asarray(x) ** 2, "support": (-0.5, 2.0)}),
    ])
    def test_tabulated_inverse_reverses_the_table(self, kind, params):
        """Interpolating the cumulative table the other way inverts its cdf."""
        target = build_target(kind, params)
        u = np.sort(_inverse_cdf_inputs())
        x = target.inverse_cdf(u)
        assert np.all(np.diff(x) >= 0)
        assert np.abs(target.cdf(x) - u).max() <= 4.4e-16
        assert np.abs(x - _bisect_90_steps(target.cdf, *target.support, u)).max() <= 1e-12

    @pytest.mark.parametrize("params", [
        None,
        {"means": (0.2, 0.5, 0.8), "sds": (0.05, 0.1, 0.05), "weights": (1, 2, 1)},
    ])
    def test_gaussian_mixture_cdf_matches_closed_form(self, params):
        """The tabulated cdf against the truncated mixture of normal cdfs."""
        from scipy.special import ndtr
        target = build_target("gaussian_mixture", params)
        params = params or {"means": (0.35, 0.65), "sds": (0.1, 0.1), "weights": (0.5, 0.5)}
        means, sds, weights = (np.array(params[k], dtype=np.float64)
                               for k in ("means", "sds", "weights"))
        weights /= weights.sum()

        def raw_cdf(x):
            return (weights * ndtr((np.asarray(x)[..., None] - means) / sds)).sum(axis=-1)

        xs = np.linspace(0.0, 1.0, 10_001)
        want = (raw_cdf(xs) - raw_cdf(0.0)) / (raw_cdf(1.0) - raw_cdf(0.0))
        assert np.max(np.abs(target.cdf(xs) - want)) < 2e-9

    def test_gaussian_mixture_mass_one(self):
        target = build_target("gaussian_mixture")
        xs = np.linspace(0.0, 1.0, 100_001)
        assert abs(np.trapezoid(target.density(xs), xs) - 1.0) < 1e-8

    def test_gaussian_mixture_bad_params(self):
        with pytest.raises(ValueError, match="normalizable"):
            build_target("gaussian_mixture", {"sds": (0.1, -0.2)})

    def test_custom_requires_density_and_support(self):
        with pytest.raises(ValueError, match="density"):
            build_target("custom", {"support": (0.0, 1.0)})

    def test_custom_density_vanishes_off_support(self):
        target = build_target("custom", {"density": lambda x: 1.0 + 0.0 * x,
                                         "support": (0.25, 0.75)})
        got = target.density(np.array([0.0, 0.2, 0.25, 0.5, 0.75, 0.8, 1.0]))
        assert np.array_equal(got, [0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0])

    def test_custom_rejects_negative_density(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_target("custom", {"density": lambda x: x - 0.5,
                                    "support": (0.0, 1.0)})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown target"):
            build_target("cauchy")


class TestSimulate:
    @pytest.mark.parametrize("case", ["iid", "logistic_map", "noncausal_ar"])
    def test_deterministic(self, sine_target, case):
        spec = ProcessSpec(case, 256, seed=99, target=sine_target)
        a = simulate(spec).values
        b = simulate(spec).values
        assert np.array_equal(a, b)

    def test_lsv_deterministic(self):
        spec = ProcessSpec("lsv", 256, seed=99, lsv_alpha=0.5)
        assert np.array_equal(simulate(spec).values, simulate(spec).values)

    def test_seed_changes_output(self, sine_target):
        a = simulate(ProcessSpec("iid", 64, seed=1, target=sine_target)).values
        b = simulate(ProcessSpec("iid", 64, seed=2, target=sine_target)).values
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["iid", "logistic_map", "noncausal_ar"])
    def test_marginal_matches_target(self, sine_target, case):
        """One-sample KS against the target cdf; marginals are exact by
        construction, so a fixed seed clears alpha = 0.001 with margin."""
        x = simulate(ProcessSpec(case, 10_000, seed=7, target=sine_target)).values
        assert stats.kstest(x, sine_target.cdf).pvalue > KS_ALPHA

    def test_marginal_holds_for_other_target(self):
        target = build_target("gaussian_mixture")
        x = simulate(ProcessSpec("logistic_map", 10_000, seed=7, target=target)).values
        assert stats.kstest(x, target.cdf).pvalue > KS_ALPHA

    def test_values_inside_support(self, sine_target):
        for case in ("iid", "logistic_map", "noncausal_ar"):
            s = simulate(ProcessSpec(case, 2000, seed=3, target=sine_target))
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0


class TestLogisticDynamics:
    def test_latent_orbit_follows_the_map(self, sine_target):
        """Undo the quantile transform; successive latent states must satisfy
        y' = 4y(1-y) to roundtrip accuracy."""
        x = simulate(ProcessSpec("logistic_map", 300, seed=42,
                                 target=sine_target)).values
        u = sine_target.cdf(x)
        y = np.sin(np.pi * u / 2.0) ** 2
        err = np.abs(y[1:] - 4.0 * y[:-1] * (1.0 - y[:-1]))
        assert err.max() < 1e-12

    def test_fixed_point_start_is_perturbed(self, sine_target, monkeypatch):
        class ZeroFirst:
            def random(self, size=None):
                return 0.0

        import wavedens.processes as proc
        monkeypatch.setattr(proc, "_rng", lambda seed: ZeroFirst())
        spec = ProcessSpec("logistic_map", 16, seed=0, target=sine_target)
        with pytest.warns(UserWarning, match="fixed point"):
            s = simulate(spec)
        assert np.all(np.isfinite(s.values))


class TestOrbitRecording:
    @pytest.mark.parametrize("seed", [1, 8, 42])
    def test_each_map_records_its_orbit_bit_for_bit(self, sine_target, seed):
        """From u = _rng(seed).random(), iterated in plain floats: the logistic
        sample is the orbit sin^2(pi u/2), 4y(1 - y), ... through the arcsine
        and quantile transforms, and the lsv sample is states n + 1 .. 2n of
        lsv_step's orbit from u."""
        n = 300
        u = _rng(seed).random()
        y = [math.sin(math.pi * u / 2.0) ** 2]
        while len(y) < n:
            y.append(4.0 * y[-1] * (1.0 - y[-1]))
        want = sine_target.inverse_cdf((2.0 / math.pi) * np.arcsin(np.sqrt(np.array(y))))
        got = simulate(ProcessSpec("logistic_map", n, seed=seed, target=sine_target)).values
        assert np.array_equal(got, np.clip(want, 0.0, 1.0))
        for alpha in (0.3, 0.7):
            z = [u]
            while len(z) <= 2 * n:
                z.append(lsv_step(z[-1], alpha))
            got = simulate(ProcessSpec("lsv", n, seed=seed, lsv_alpha=alpha)).values
            assert np.array_equal(got, np.array(z[n + 1:]))


class TestMovingAverageDynamics:
    def test_marginal_cdf_closed_form(self):
        assert case3_marginal_cdf(0.0) == 0.0
        assert case3_marginal_cdf(1.0) == 1.0
        assert case3_marginal_cdf(0.5) == pytest.approx(0.5)
        assert case3_marginal_cdf(1.0 / 3.0) == pytest.approx(0.25)
        ys = np.linspace(0, 1, 101)
        assert np.all(np.diff(case3_marginal_cdf(ys)) >= 0)

    def test_recovered_innovations_are_coin_flips(self, sine_target):
        """Invert both transforms, then solve the lattice equation for xi:
        every interior innovation must be 0 or 1 up to roundtrip error."""
        x = simulate(ProcessSpec("noncausal_ar", 400, seed=5,
                                 target=sine_target)).values
        y = _invert_marginal_cdf(sine_target.cdf(x))
        xi = (y[1:-1] - 0.4 * (y[:-2] + y[2:])) / 0.2
        assert np.abs(xi - np.round(xi)).max() < 1e-9
        flips = set(np.round(xi).astype(int))
        assert flips <= {0, 1} and len(flips) == 2

    def test_latent_matches_the_exact_two_sided_sum(self):
        """Y_t = sum over |k| <= 64 of 2^-|k| xi_{t-k} / 3, summed exactly over
        the drawn flips, is met within 2 ulp at every site, the edges included."""
        n = 400
        xi = _case3_noise(n, _rng(5)).astype(int).tolist()
        y = _case3_latent(n, _rng(5))
        for t in range(n):
            total = sum(xi[64 + t - k] << (64 - abs(k)) for k in range(-64, 65))
            exact = Fraction(total, 3 << 64)
            assert abs(Fraction(float(y[t])) - exact) <= 2 * math.ulp(float(exact)), t


class TestIntermittentMap:
    def test_step_closed_forms(self):
        assert lsv_step(0.75, 0.5) == 0.5
        assert lsv_step(0.5, 0.7) == 1.0
        assert lsv_step(0.25, 0.5) == pytest.approx(0.25 * (1 + math.sqrt(0.5)))
        # x = 1/2 belongs to the intermittent branch; just above it the
        # expanding branch 2x - 1 restarts the orbit near 0
        assert lsv_step(0.5 + 1e-12, 0.5) == pytest.approx(2e-12, abs=1e-15)

    def test_neutral_fixed_point_slows_escape(self):
        """Near 0 the map moves by x^(1+alpha); one step barely advances."""
        x = 1e-6
        assert 0 < lsv_step(x, 0.5) - x < 2 * x**1.5

    def test_invariant_density_blows_up_at_zero(self):
        """The occupation histogram on [0.01, 0.05] follows x^-alpha; the
        log-log slope must sit within 0.3 of -alpha."""
        z = simulate(ProcessSpec("lsv", 1_000_000, seed=3, lsv_alpha=0.5)).values
        assert 0.0 < z.min() and z.max() < 1.0
        edges = np.geomspace(0.01, 0.05, 9)
        hist, _ = np.histogram(z, bins=edges)
        dens = hist / (len(z) * np.diff(edges))
        mid = np.sqrt(edges[1:] * edges[:-1])
        slope = np.polyfit(np.log(mid), np.log(dens), 1)[0]
        assert abs(slope - (-0.5)) < 0.3

    def test_boundary_start_is_perturbed(self, monkeypatch):
        """A start at 0, which the map keeps, is recorded once and followed by a
        fresh uniform draw u: the sample is states n .. 2n - 1 of u's orbit."""
        monkeypatch.setattr(proc, "_rng", lambda seed: _FirstDraw(0.0, seed))
        with pytest.warns(UserWarning, match="boundary"):
            s = simulate(ProcessSpec("lsv", 8, seed=0, lsv_alpha=0.5))
        assert np.array_equal(s.values, _lsv_orbit(_rng(0).random(), 0.5, 16)[8:])

    def test_boundary_mid_orbit_is_perturbed(self, monkeypatch):
        """A start at exactly 1/2 steps to exactly 1.0, a fixed point of 2x - 1;
        after 1.0 the orbit restarts from a fresh uniform draw u, so the sample
        is states n - 1 .. 2n - 2 of u's orbit."""
        monkeypatch.setattr(proc, "_rng", lambda seed: _FirstDraw(0.5, seed))
        assert lsv_step(0.5, 0.5) == 1.0 == lsv_step(1.0, 0.5)
        with pytest.warns(UserWarning, match="boundary"):
            s = simulate(ProcessSpec("lsv", 32, seed=0, lsv_alpha=0.5))
        assert np.array_equal(s.values, _lsv_orbit(_rng(0).random(), 0.5, 63)[31:])


class TestStuckOrbits:
    @pytest.mark.parametrize("case, first", [("lsv", 0.0), ("lsv", 0.5), ("lsv", 1e-40),
                                             ("logistic_map", 0.0)])
    def test_an_orbit_that_stops_moving_restarts(self, sine_target, monkeypatch,
                                                 case, first):
        """Bad first draws, later draws real. lsv from 0 stays at 0, from 1/2
        reaches the fixed point 1.0, and from 1e-40 at alpha 0.5 never moves in
        floating point; each must warn and give n distinct values. Logistic
        from 0 may keep only its recorded start below 1e-6."""
        monkeypatch.setattr(proc, "_rng", lambda seed: _FirstDraw(first, seed))
        n = 1024
        spec = (ProcessSpec("lsv", n, seed=5, lsv_alpha=0.5) if case == "lsv"
                else ProcessSpec(case, n, seed=5, target=sine_target))
        with pytest.warns(UserWarning, match="boundary" if case == "lsv" else "fixed point"):
            values = simulate(spec).values
        if case == "lsv":
            assert len(np.unique(values)) == n
        else:
            assert np.count_nonzero(values < 1e-6) <= 1
