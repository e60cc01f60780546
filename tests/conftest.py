"""Shared fixtures: wavelet tables and the Monte-Carlo benchmark results."""

import numpy as np
import pytest

from wavedens.cli import make_fit
from wavedens.processes import ProcessSpec, build_target
from wavedens.risk_metrics import monte_carlo_risks
from wavedens.wavelet_basis import build_filter, cascade_tables

MASTER_SEED = 20260814
BENCH_N = 1024
BENCH_M = 100
CASES = ("iid", "logistic_map", "noncausal_ar")


@pytest.fixture(scope="session")
def haar_tables():
    return cascade_tables(build_filter("daubechies", 1), depth=10)


@pytest.fixture(scope="session")
def sym8_tables():
    return cascade_tables(build_filter("symmlet", 8), depth=10)


@pytest.fixture(scope="session")
def sine_target():
    return build_target("sine_uniform_mixture")


@pytest.fixture(scope="session")
def benchmark_reports(sym8_tables, sine_target):
    """RiskReports for case x CV-mode at n=2**10, M=100, shared by the
    acceptance tests so the expensive sweep runs once per session; both
    modes fit each case's replicates from one simulation."""
    reports = {}
    for case in CASES:
        spec = ProcessSpec(case=case, n=BENCH_N, seed=MASTER_SEED, target=sine_target)
        fits = {mode: make_fit(mode, sym8_tables, 4096) for mode in ("HTCV", "STCV")}
        for report in monte_carlo_risks(spec, fits, BENCH_M, p_list=(2.0,)):
            reports[case, report.method] = report
    return reports


@pytest.fixture
def rng():
    return np.random.default_rng(1729)
