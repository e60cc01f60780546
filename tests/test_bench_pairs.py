"""tools/bench_pairs.py: the sign test and the verdicts it reports for each
metric, its closing summary, its Tier-1 failures and its closing line count."""

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


def _pairs(base, head, digests=None):
    return [{"seed": seed, "base": {"items_per_s": b, "setup_s": b},
             "head": {"items_per_s": h, "setup_s": h},
             "ratio": {"items_per_s": h / b, "setup_s": h / b},
             "digests": (digests or {}).get(seed, {"base": {"ref": "a"}, "head": {"ref": "a"}})}
            for seed, (b, h) in enumerate(zip(base, head), start=1)]


def _closing(bench_pairs, pairs):
    entry = {"summary": bench_pairs._summary(pairs, {"items_per_s": "higher",
                                                     "setup_s": "lower"}),
             "digests": bench_pairs._digests(pairs), "pairs": pairs}
    return bench_pairs._closing_lines("mc-baselines", entry)


def test_closing_summary_per_metric(bench_pairs):
    """Median ratio, ratio range, head-better count and the base IQR as a
    share of the base median: base 8, 10, 10, 12 has quartiles 8.5 and 11.5
    (statistics.quantiles' exclusive method), an IQR of 30% of 10."""
    pairs = _pairs([8.0, 10.0, 10.0, 12.0], [16.0, 20.0, 30.0, 12.0])
    lines = _closing(bench_pairs, pairs)
    assert lines[0] == ("mc-baselines items_per_s: head/base x2.000 (pairs x1.000 to x3.000), "
                        "head better in 3 of 4, base IQR 30.0% of its median")
    assert lines[1] == ("mc-baselines setup_s: head/base x2.000 (pairs x1.000 to x3.000), "
                        "head better in 0 of 4, base IQR 30.0% of its median")
    assert lines[2] == "mc-baselines digests: digests equal"
    assert len(lines) == 3


def test_closing_summary_names_the_differing_digests(bench_pairs):
    """Each key that differs in any pair is named once, in sorted order."""
    differ = {"base": {"ref": "a", "seeded": "b", "same": "c"},
              "head": {"ref": "x", "seeded": "y", "same": "c"}}
    one = {"base": {"ref": "a", "seeded": "b"}, "head": {"ref": "x", "seeded": "b"}}
    pairs = _pairs([10.0] * 3, [11.0] * 3, {1: differ, 2: one})
    assert _closing(bench_pairs, pairs)[-1] == "mc-baselines digests: differ in ref, seeded"


def test_lines_line_gives_both_counts(bench_pairs):
    """Both sides' totals as `wc -l` reads them, and the head's generated lines."""
    report = {"base": {"src_lines": {"total": 2447, "taps": 265}},
              "head": {"src_lines": {"total": 2399, "taps": 265}}}
    assert (bench_pairs._lines_line(report)
            == "src/wavedens/*.py: 2447 -> 2399 lines (265 generated)")


def test_output_digests_line_names_the_differing_outputs(bench_pairs):
    """Equal when every output's digest agrees; otherwise each output that
    differs or is on one side only, in sorted order."""
    def report(base, head):
        return {side: {"output_digests": {"outputs": outputs, "overall": "-"}}
                for side, outputs in (("base", base), ("head", head))}

    same = {"cmd/a.csv": "1", "lib/b": "2"}
    assert bench_pairs._output_digests_line(report(same, dict(same))) == "output digests: equal"
    head = {"cmd/a.csv": "1", "lib/b": "3", "lib/c": "4"}
    assert (bench_pairs._output_digests_line(report(same, head))
            == "output digests: differ in lib/b, lib/c")


def test_failed_tests_reads_the_short_summary(bench_pairs):
    """The ids of pytest's FAILED and ERROR lines, sorted; other lines are skipped."""
    lines = ["tests/test_a.py ..F", "FAILED tests/test_a.py::test_x - AssertionError: 1 != 2",
             "ERROR tests/test_b.py::test_y[a-b] - RuntimeError: boom",
             "FAILED tests/test_a.py::test_w", "1 failed, 9 passed in 1.00s"]
    assert bench_pairs._failed_tests(lines) == [
        "tests/test_a.py::test_w", "tests/test_a.py::test_x", "tests/test_b.py::test_y[a-b]"]


def test_failures_line_names_the_failures(bench_pairs):
    """Equal sides name their shared failures, or none; otherwise each side's own."""
    def report(base, head):
        return {"base": {"tier1": {"failed": base}}, "head": {"tier1": {"failed": head}}}

    assert bench_pairs._failures_line(report(["t::a"], ["t::a"])) == "tier-1 failures: equal (t::a)"
    assert bench_pairs._failures_line(report([], [])) == "tier-1 failures: equal (none)"
    assert (bench_pairs._failures_line(report(["t::a", "t::b"], ["t::a", "t::c", "t::d"]))
            == "tier-1 failures: base only t::b; head only t::c, t::d")
    assert (bench_pairs._failures_line(report(["t::a"], []))
            == "tier-1 failures: base only t::a; head only none")


BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]  # IQR 0.2, 2% of 10


@pytest.mark.parametrize("head, bound, want", [
    # better in 10 of 10 and 1.0 below the base median, more than its IQR
    ([x * 0.9 for x in BASE], 0.1, {"gain": "met", "regression": "none"}),
    # better in 8 of 10 only: no gain, and no loss either
    ([9.0] * 8 + [10.5, 10.5], 0.1, {"gain": "not met", "regression": "none"}),
    # better in 10 of 10, but by 0.1, less than the base IQR
    ([x - 0.1 for x in BASE], 0.1, {"gain": "not met", "regression": "none"}),
    # 20% slower against a 10% bound
    ([x * 1.2 for x in BASE], 0.1, {"gain": "not met", "regression": "over bound"}),
    # 1% slower against a 0.5% bound
    ([x * 1.01 for x in BASE], 0.005, {"gain": "not met", "regression": "over bound"}),
])
def test_verdicts(bench_pairs, head, bound, want):
    """A metric that is better lower; the cases cover each verdict."""
    assert bench_pairs._verdicts(BASE, head, "lower", bound) == want


def test_verdict_unresolved_when_the_base_spreads_past_the_bound(bench_pairs):
    """A base IQR of 40% of its median cannot show a 10% loss, unless every
    head run beats every base run."""
    base = [6.0, 8.0, 10.0, 12.0, 14.0] * 2
    assert bench_pairs._verdicts(base, [10.0] * 10, "higher", 0.1) == {
        "gain": "not met", "regression": "unresolved"}
    assert bench_pairs._verdicts(base, [15.0] * 9 + [13.0], "higher", 0.1)["regression"] == (
        "unresolved")
    assert bench_pairs._verdicts(base, [15.0] * 10, "higher", 0.1)["regression"] == "none"


def test_closing_summary_states_the_verdicts(bench_pairs):
    """With the bounds, each metric line ends with its two verdicts."""
    pairs = _pairs(BASE, [x * 1.2 for x in BASE])
    entry = {"summary": bench_pairs._summary(pairs, {"items_per_s": "higher", "setup_s": "lower"},
                                             {"items_per_s": 0.25, "setup_s": 0.1}),
             "digests": bench_pairs._digests(pairs), "pairs": pairs}
    first, second, _ = bench_pairs._closing_lines("mc-acceptance", entry)
    assert first.endswith("of its median; gain met, regression none")
    assert second.endswith("of its median; gain not met, regression over bound")
    assert entry["summary"]["setup_s"]["regression"] == "over bound"
