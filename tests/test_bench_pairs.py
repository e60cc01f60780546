"""tools/bench_pairs.py: the sign test it reports for each metric."""

import importlib
from pathlib import Path

import pytest


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    return importlib.import_module("bench_pairs")


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024),  # every pair one way
    (8, 2, 112 / 1024),  # 2 (1 + 10 + 45) / 2^10: no evidence at 0.05
    (5, 5, 1.0),  # an even split; the doubled tail would exceed 1
    (0, 10, 2 / 1024),  # two-sided
])
def test_sign_test_p_values(bench_pairs, wins, losses, p):
    assert bench_pairs._sign_test(wins, losses) == pytest.approx(p, rel=1e-12)


def test_summary_leaves_ties_out(bench_pairs):
    """Per metric, wins follow the metric's direction; tied pairs count as
    neither, so 8 wins, 1 loss and 1 tie test 8 of 9 pairs."""
    base = [10.0] * 10
    head = [11.0] * 8 + [9.0, 10.0]
    pairs = [{"base": {"items_per_s": b, "setup_s": b},
              "head": {"items_per_s": h, "setup_s": h},
              "ratio": {"items_per_s": h / b, "setup_s": h / b}} for b, h in zip(base, head)]
    out = bench_pairs._summary(pairs, {"items_per_s": "higher", "setup_s": "lower"})
    assert out["items_per_s"]["head_better_pairs"] == 8
    assert out["items_per_s"]["sign_test_p"] == pytest.approx(2 * 10 / 512, rel=1e-12)
    assert out["setup_s"]["head_better_pairs"] == 1
    assert out["setup_s"]["sign_test_p"] == pytest.approx(2 * 10 / 512, rel=1e-12)
