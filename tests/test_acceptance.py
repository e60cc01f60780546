"""Acceptance checks. Each test prints one verdict line, pass or fail.

The heavy Monte-Carlo sweep (criteria 4 and 5) is shared through the
session-scoped benchmark_reports fixture and runs once.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from wavedens.baseline_kernel import lscv_score
from wavedens.cli import main, make_fit
from wavedens.cross_validation import cv_criterion, select_lambda
from wavedens.estimator import Sample, empirical_coefficients, reconstruct
from wavedens.processes import ProcessSpec, derived_seed, simulate
from wavedens.risk_metrics import covariance_decay, monte_carlo_risks
from wavedens.wavelet_basis import build_filter, cascade_tables

from conftest import BENCH_M, CASES, MASTER_SEED
from test_baseline_kernel import _epanechnikov, _epanechnikov_selfconv

MISE_BAND = (0.03, 0.3)
J1_BAND = (5.1 - 0.7, 5.1 + 0.7)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_wavelet_identities(capsys):
    """Filter QMF relations, table quadrature, orthonormality, partition of
    unity, all at their stated tolerances, in under ten seconds."""
    t0 = time.monotonic()
    worst = {"qmf": 0.0, "quad": 0.0, "ortho": 0.0, "unity": 0.0}

    filters = [("daubechies", N) for N in range(1, 11)] + [
        ("symmlet", N) for N in range(2, 11)
    ]
    for family, N in filters:
        h = build_filter(family, N).low_pass
        worst["qmf"] = max(worst["qmf"], abs(h.sum() - math.sqrt(2)))
        for ell in range(N):
            target = 1.0 if ell == 0 else 0.0
            dot = h[: len(h) - 2 * ell] @ h[2 * ell:]
            worst["qmf"] = max(worst["qmf"], abs(dot - target))

    for family, N in (("daubechies", 1), ("daubechies", 4), ("symmlet", 8)):
        t = cascade_tables(build_filter(family, N), depth=12)
        step = 2**12
        quad_phi = t.phi_values[:-1].sum() / step
        quad_psi = t.psi_values[:-1].sum() / step
        worst["quad"] = max(worst["quad"], abs(quad_phi - 1.0), abs(quad_psi))
        for a, b, diag in ((t.phi_values, t.phi_values, 1.0),
                           (t.psi_values, t.psi_values, 1.0),
                           (t.phi_values, t.psi_values, 0.0)):
            for shift in range(2 * N - 1):
                prod = (a[shift * step:] @ b[: len(b) - shift * step]) / step
                want = diag if shift == 0 else 0.0
                worst["ortho"] = max(worst["ortho"], abs(prod - want))
        unity = np.zeros(step)
        for k in range(2 * N - 1):
            unity += t.phi_values[k * step:(k + 1) * step]
        worst["unity"] = max(worst["unity"], float(np.abs(unity - 1.0).max()))

    elapsed = time.monotonic() - t0
    ok = (worst["qmf"] < 1e-10 and worst["quad"] < 1e-6
          and worst["ortho"] < 1e-4 and worst["unity"] < 1e-5
          and elapsed < 10.0)
    detail = (f"qmf {worst['qmf']:.1e}, quadrature {worst['quad']:.1e}, "
              f"orthonormality {worst['ortho']:.1e}, unity {worst['unity']:.1e} "
              f"({elapsed:.1f}s)")
    _verdict(capsys, 1, ok, detail)


def test_criterion_2_oracle_equivalence(capsys, sym8_tables):
    """Coefficients, CV criteria, kernel LSCV, and reconstruction against
    per-point double-loop oracles at 1e-10 on small fixtures."""
    t0 = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0

    x = rng.random(60)
    s = Sample(values=x, support=(0.0, 1.0))
    coeffs = empirical_coefficients(s, sym8_tables, j0=1, jmax=3)
    levels = [("phi", coeffs.scaling)] + [("psi", lev) for lev in coeffs.details]
    for kind, lev in levels:
        for k, v in zip(lev.k_values(), lev.values):
            naive = sum(sym8_tables.eval(kind, lev.j, int(k), float(xi))
                        for xi in x) / len(x)
            worst = max(worst, abs(v - naive))

    xs = rng.random(40)
    s2 = Sample(values=xs, support=(0.0, 1.0))
    for mode in ("HTCV", "STCV"):
        for lam in (0.0, 0.05, 0.4):
            got = cv_criterion(s2, sym8_tables, 2, lam, mode)
            k_min, k_max = sym8_tables.k_range(2, 0.0, 1.0)
            naive = 0.0
            n = len(xs)
            for k in range(k_min, k_max + 1):
                psi = np.array([sym8_tables.eval("psi", 2, k, float(xi))
                                for xi in xs])
                beta = psi.mean()
                if abs(beta) >= lam:
                    pairwise = sum(psi[i] * psi[h] for i in range(n)
                                   for h in range(n) if i != h)
                    naive += beta**2 - 2.0 * pairwise / (n * (n - 1))
                    if mode == "STCV":
                        naive += lam * lam
            worst = max(worst, abs(got - naive))

    xk = rng.random(25)
    sk = Sample(values=xk, support=(0.0, 1.0))
    for h in (0.05, 0.3):
        nk = len(xk)
        sq = sum(float(_epanechnikov_selfconv(np.array([(a - b) / h]))[0])
                 for a in xk for b in xk) / (nk * nk * h)
        loo = sum(float(_epanechnikov(np.array([(a - b) / h]))[0])
                  for i, a in enumerate(xk) for l, b in enumerate(xk)
                  if i != l) * 2.0 / (nk * (nk - 1) * h)
        worst = max(worst, abs(lscv_score(sk, h) - (sq - loo)))

    est = reconstruct(coeffs, sym8_tables, grid_points=100)
    synth = np.zeros(100)
    for kind, lev in levels:
        for k, v in zip(lev.k_values(), lev.values):
            synth += v * sym8_tables.eval(kind, lev.j, int(k), est.grid)
    worst = max(worst, float(np.abs(est.values - synth).max()))

    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"max oracle deviation {worst:.1e} across coefficients, CV, "
             f"LSCV, reconstruction ({elapsed:.1f}s)")


def test_criterion_3_threshold_search_structure(capsys, haar_tables,
                                                sym8_tables):
    """For 50 random fixtures the candidate-set minimum matches a dense scan
    over 1e4 thresholds (the scan grid covers every coefficient breakpoint),
    and the soft criterion exceeds the hard one by lambda^2 per survivor,
    bit for bit."""
    rng = np.random.default_rng(MASTER_SEED)
    value_misses = identity_misses = 0
    for i in range(50):
        tab = haar_tables if i % 2 == 0 else sym8_tables
        n = int(rng.integers(40, 81))
        s = Sample(values=rng.random(n), support=(0.0, 1.0))
        j = int(rng.integers(1, 5))
        mode = ("HTCV", "STCV")[i % 2]
        lam_hat = select_lambda(s, tab, j, mode)
        best = cv_criterion(s, tab, j, lam_hat, mode)

        betas = empirical_coefficients(s, tab, j, j).detail(j).values
        breaks = np.abs(betas)
        cap = breaks.max()
        cands = np.concatenate([[0.0], breaks, np.nextafter(breaks, np.inf),
                                [cap * (1 + 1e-9) + 1e-300]])
        grid = np.unique(np.concatenate([
            np.linspace(0.0, cap * 1.05 + 1e-9, 10**4 - len(cands)), cands]))
        dense_min = min(cv_criterion(s, tab, j, float(lam), mode)
                        for lam in grid)
        if not (best <= dense_min + 1e-15
                and abs(best - dense_min) <= 1e-12 * max(1.0, abs(dense_min))):
            value_misses += 1

        uniq = np.unique(breaks[breaks > 0])
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        probes = [0.0, float(lam_hat), float(cap) * 2.0]
        probes += [float(m) for m in mids[:4]]
        for lam in probes:
            ht = cv_criterion(s, tab, j, lam, "HTCV")
            st = cv_criterion(s, tab, j, lam, "STCV")
            cnt = int((breaks >= lam).sum())
            if st != ht + lam * lam * cnt:
                identity_misses += 1

    ok = value_misses == 0 and identity_misses == 0
    _verdict(capsys, 3, ok,
             f"dense-scan argmin mismatches {value_misses}/50, "
             f"penalty identity violations {identity_misses}")


def test_criterion_4_mise_bands(capsys, benchmark_reports):
    """All six MISE values (two CV modes, three sampling regimes, n = 2^10,
    M = 100) inside [0.03, 0.3]; soft CV no worse than hard CV for the iid
    and chaotic-map regimes."""
    lo, hi = MISE_BAND
    mise = {key: rep.mise for key, rep in benchmark_reports.items()}
    in_band = {key: lo <= m <= hi for key, m in mise.items()}
    ordered = {case: mise[case, "STCV"] <= mise[case, "HTCV"]
               for case in ("iid", "logistic_map")}
    ok = all(in_band.values()) and all(ordered.values())
    parts = [f"{case}/{mode} {mise[case, mode]:.4f}"
             f"{'' if in_band[case, mode] else '!'}"
             for case in CASES for mode in ("HTCV", "STCV")]
    detail = (f"MISE in [{lo}, {hi}]: " + ", ".join(parts)
              + f"; STCV<=HTCV {ordered}")
    _verdict(capsys, 4, ok, detail)


def test_criterion_5_level_selection_band(capsys, benchmark_reports):
    """Mean selected cutoff level within 5.1 +/- 0.7 for both CV modes on all
    three regimes at n = 2^10, M = 100."""
    lo, hi = J1_BAND
    means = {key: rep.mean_j1 for key, rep in benchmark_reports.items()}
    ok = all(lo <= m <= hi for m in means.values())
    parts = [f"{case}/{mode} {means[case, mode]:.2f}"
             f"{'' if lo <= means[case, mode] <= hi else '!'}"
             for case in CASES for mode in ("HTCV", "STCV")]
    _verdict(capsys, 5, ok,
             f"mean selected level in [{lo:.1f}, {hi:.1f}]: " + ", ".join(parts))


def test_criterion_6_risk_decays_with_n(capsys, sym8_tables, sine_target):
    """Soft-CV risk on iid data strictly decreases over n in {2^8, 2^10,
    2^12} and the log-log slope against n/log n is at most -0.4."""
    sizes = (256, 1024, 4096)
    mises = []
    for n in sizes:
        spec = ProcessSpec("iid", n, seed=MASTER_SEED, target=sine_target)
        fits = {"STCV": make_fit("STCV", sym8_tables, 4096)}
        mises.append(monte_carlo_risks(spec, fits, BENCH_M)[0].mise)
    decreasing = all(a > b for a, b in zip(mises, mises[1:]))
    ratio = [n / math.log(n) for n in sizes]
    slope = float(np.polyfit(np.log(ratio), np.log(mises), 1)[0])
    ok = decreasing and slope <= -0.4
    _verdict(capsys, 6, ok,
             f"MISE {', '.join(f'{m:.4f}' for m in mises)} over n={sizes}, "
             f"slope {slope:.2f} (needs <= -0.4, strictly decreasing "
             f"{decreasing})")


def test_criterion_7_polynomial_mixing_diagnostic(capsys, sym8_tables,
                                                  sine_target):
    """The intermittent map at alpha = 0.5, n = 1e6: the scaling-probe
    covariance decay slope sits within 0.3 of -1, while an iid control of the
    same size is flagged sub-noise. Under two minutes."""
    t0 = time.monotonic()
    lsv = simulate(ProcessSpec("lsv", 10**6, seed=derived_seed(MASTER_SEED, 0),
                               lsv_alpha=0.5))
    prof = covariance_decay(lsv, sym8_tables, 2, 1, max_lag=200)
    iid = simulate(ProcessSpec("iid", 10**6, seed=derived_seed(MASTER_SEED, 1),
                               target=sine_target))
    ctrl = covariance_decay(iid, sym8_tables, 2, 1, max_lag=200)
    elapsed = time.monotonic() - t0
    slope_ok = prof.slope is not None and abs(prof.slope - (-1.0)) <= 0.3
    ok = slope_ok and not prof.sub_noise and ctrl.sub_noise and elapsed < 120.0
    slope_txt = "none" if prof.slope is None else f"{prof.slope:.2f}"
    _verdict(capsys, 7, ok,
             f"intermittent slope {slope_txt} (target -1 +/- 0.3), "
             f"iid control sub-noise {ctrl.sub_noise} ({elapsed:.1f}s)")


def test_criterion_8_byte_identical_reports(capsys, tmp_path):
    """Running the benchmark command twice with one config yields
    byte-identical JSON reports."""
    config = {
        "experiment": "determinism-check",
        "cases": [{"case": "iid"}],
        "methods": ["STCV", "kernel-rot"],
        "n": [64],
        "M": 3,
        "seed": MASTER_SEED,
        "grid_points": 128,
        "wavelet": {"family": "daubechies", "N": 1, "depth": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code_a = main(["--config", str(path), "--out", str(tmp_path / "a"),
                   "benchmark"])
    code_b = main(["--config", str(path), "--out", str(tmp_path / "b"),
                   "benchmark"])
    bytes_a = (tmp_path / "a" / "reports.json").read_bytes()
    bytes_b = (tmp_path / "b" / "reports.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    _verdict(capsys, 8, ok,
             f"two runs, {len(bytes_a)} bytes each, identical {bytes_a == bytes_b}")
