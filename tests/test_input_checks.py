"""Input checks across the library: each bad value fails with its own message."""

from dataclasses import replace

import numpy as np
import pytest

from wavedens.cli import ConfigError, make_fit
from wavedens.cross_validation import CvSelection, cv_criterion, fit_cv, select_lambda
from wavedens.estimator import (DensityEstimate, Sample, ThresholdPlan,
                               empirical_coefficients, reconstruct)
from wavedens.processes import build_target
from wavedens.wavelet_basis import REC_LO, build_filter

SAMPLE = Sample(np.linspace(0.05, 0.95, 64), (0.0, 1.0))


def _bad_taps(monkeypatch, taps):
    monkeypatch.setitem(REC_LO, ("daubechies", 1), taps)
    build_filter("daubechies", 1)


def _partial_scaling(tables):
    """Synthesis of a set whose scaling level lacks its first and last translates."""
    full = empirical_coefficients(SAMPLE, tables, j0=2, jmax=1)
    lev = full.scaling
    middle = replace(lev, k_min=lev.k_min + 1, values=lev.values[1:-1])
    return reconstruct(replace(full, scaling=middle), tables, grid_points=64)


CASES = {
    "plan j1 below j0": (lambda mp, t: ThresholdPlan("hard", {}, j0=3, j1=2),
                         ValueError, "j1=2 < j0=3"),
    "estimate grid not increasing": (
        lambda mp, t: DensityEstimate(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4)),
        ValueError, "strictly increasing"),
    "estimate not finite": (
        lambda mp, t: DensityEstimate(np.linspace(0.0, 1.0, 4), np.array([0, np.inf, 0, 0])),
        ValueError, "non-finite"),
    "synthesis of a partial level": (lambda mp, t: _partial_scaling(t),
                                     ValueError, "level j=2 lacks translates"),
    "coefficients jmax below j0 - 1": (
        lambda mp, t: empirical_coefficients(SAMPLE, t, j0=3, jmax=1),
        ValueError, "jmax=1 below j0-1"),
    "selection mode": (lambda mp, t: CvSelection("XTCV", 1, 2, 1, ()),
                       ValueError, "mode must be one of"),
    "select_lambda mode": (lambda mp, t: select_lambda(SAMPLE, t, 2, mode="XTCV"),
                           ValueError, "mode must be one of"),
    "cv_criterion mode": (lambda mp, t: cv_criterion(SAMPLE, t, 2, 0.1, mode="XTCV"),
                          ValueError, "mode must be one of"),
    "fit_cv mode": (lambda mp, t: fit_cv(SAMPLE, t, mode="XTCV"),
                    ValueError, "mode must be one of"),
    "target without mass": (
        lambda mp, t: build_target("custom", {"density": np.zeros_like, "support": (0.0, 1.0)}),
        ValueError, "no mass"),
    "unknown method": (lambda mp, t: make_fit("kernel-xx", t, 128),
                       ConfigError, "unknown method 'kernel-xx'"),
    "kernel fit grid points": (lambda mp, t: make_fit("kernel-rot", t, 1),
                               ValueError, "grid_points must be an integer >= 2"),
    "taps sum": (lambda mp, t: _bad_taps(mp, (1.0, 1.0)), ValueError, "do not sum to sqrt"),
    "taps QMF": (lambda mp, t: _bad_taps(mp, (2.0**0.5, 0.0)),
                 ValueError, "QMF identity at shift 0"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_bad_input_is_refused(monkeypatch, haar_tables, call, error, match):
    with pytest.raises(error, match=match):
        call(monkeypatch, haar_tables)
