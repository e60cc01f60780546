"""tools/output_digests.py: its command part hashes what the commands write."""

import importlib
from pathlib import Path

import pytest

CONFIG = {"experiment": "tiny", "cases": [{"case": "iid"}], "methods": ["HTCV", "kernel-rot"],
          "n": [256], "M": 2, "grid_points": 256}
FIT_METHODS = ("HTCV", "kernel-rot")


@pytest.fixture
def output_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    return importlib.import_module("output_digests")


def test_commands_give_the_same_digests_twice(output_digests):
    first = output_digests.command_digests(CONFIG, FIT_METHODS)
    assert first == output_digests.command_digests(CONFIG, FIT_METHODS)
    assert "cmd/benchmark/reports.json" in first
    assert "cmd/fit/iid_n256_r000_HTCV_selection.json" in first
    lines = output_digests.report_lines(first)
    assert len(lines) == len(first) + 1 and lines[-1].startswith("overall ")


def test_digests_follow_the_written_bytes(output_digests, monkeypatch):
    """Writing floats with 16 digits instead of 17 changes the CSV digests."""
    before = output_digests.command_digests(CONFIG, FIT_METHODS)
    monkeypatch.setattr("wavedens.cli._FLOAT_FMT", "%.16g")
    after = output_digests.command_digests(CONFIG, FIT_METHODS)
    assert after.keys() == before.keys()
    assert after["cmd/benchmark/risk_summary.csv"] != before["cmd/benchmark/risk_summary.csv"]
    assert (output_digests.report_lines(after)[-1]
            != output_digests.report_lines(before)[-1])
