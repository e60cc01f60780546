"""Interleaved benchmark pairs: this checkout against a base revision.

    python3 tools/bench_pairs.py --base HEAD~1 --workload mc-acceptance \
        --pairs 10 --out BENCH_<n>.json

Exports --base with `git archive` into a temporary directory, copies the
working tree (tracked files and untracked files that are not ignored, as the
working tree holds them) into another, and runs `perfbench/run.py --trace 0`
in the two one after the other, with the same seed on both sides of a pair;
every other pair runs the head side first. Both sides start from a fresh
directory, so neither reads build output or results left by earlier runs.
Each run lasts `run_seconds` from BENCHMARK.json, the length the benchmark
itself runs, as perfbench/stability.py defaults to. Writes one JSON file with:

- each pair's metrics and head/base ratios, per workload;
- each side's median and interquartile range of every metric, the median
  ratio, the count of pairs in which the head side is better, and the
  two-sided sign-test p-value of those wins against the losses (ties left
  out), the chance of a split at least that lopsided on code that does
  not change the metric;
- each metric's gain and regression verdicts (see _verdicts), the latter
  against the metric's `bound` in BENCHMARK.json;
- the digests of both sides and whether they agree;
- each side's output digests: the head's tools/output_digests.py run on
  that side's src/, per output and overall;
- each side's Tier-1 run (`pytest -q --durations=10` with ./src on the
  path): its wall time, its result line, the sorted ids of its failing and
  erroring tests and its ten slowest tests;
- each side's line count of src/wavedens/*.py as `wc -l` reads it, and the
  share of it in the generated _taps.py;
- the core count, the CPU, and the Python and numpy versions.

It ends by printing, for each workload, one line per end-to-end metric (the
median head/base ratio, the range of the pair ratios, the count of pairs in
which the head side is better, and the base runs' interquartile range as a
share of their median, then its gain and regression verdicts) and one line
naming the digest keys that differ between the sides, or "digests equal".
Then one line says whether the two sides fail the same Tier-1 tests, naming
them, or names the failures on one side only, and one line says whether the
two sides' output digests are equal or names the outputs that differ. Its
last line gives both sides' line counts of src/wavedens/*.py and the head
side's generated share.

Standard library only; run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` under dest; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return commit


def _copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and non-ignored untracked files under dest."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                              "--exclude-standard"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    for name in listing.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; returns its full result record."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 4 + 600)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    results = checkout / ".bench_build" / "perfbench" / "results"
    record = json.loads((results / f"{workload}-seed{seed}-trace0.json").read_text())
    record["correct"] = result["correct"]
    return record


def _tier1(checkout: Path) -> dict:
    """The Tier-1 suite in `checkout`: wall time, result line, ten slowest tests.

    A failing test does not stop the benchmark: its count is in the result
    line, which this records as pytest prints it.
    """
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=3600)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    first = next((i + 1 for i, line in enumerate(lines) if "slowest" in line), len(lines))
    slowest = []
    for line in lines[first:]:
        m = re.match(r"^(\d+(?:\.\d+)?)s (\w+) +(.+)$", line)
        if not m:
            break
        slowest.append({"seconds": float(m[1]), "phase": m[2], "test": m[3]})
    result = next((line.strip("= ") for line in reversed(lines)
                   if re.search(r"\d+ (passed|failed|error)", line)), None)
    if result is None:
        sys.exit(f"bench_pairs: no pytest result line in {checkout}:\n{proc.stdout}{proc.stderr}")
    return {"wall_s": wall, "exit_code": proc.returncode, "result": result,
            "failed": _failed_tests(lines), "slowest": slowest}


def _failed_tests(lines: list[str]) -> list[str]:
    """The sorted ids on pytest's `FAILED <id> - ...` and `ERROR <id> - ...` lines."""
    return sorted(line.split(" - ", 1)[0].split(" ", 1)[1] for line in lines
                  if line.startswith(("FAILED ", "ERROR ")))


def _output_digests(tool: Path, checkout: Path) -> dict:
    """`tool` (an output_digests.py) run on checkout/src: the per-output and overall digests."""
    cmd = [sys.executable, str(tool), "--src", str(checkout / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed:\n{proc.stderr}")
    *lines, overall = proc.stdout.splitlines()
    return {"outputs": dict(line.split("  ", 1)[::-1] for line in lines),
            "overall": overall.removeprefix("overall ")}


def _src_lines(checkout: Path) -> dict:
    """Newlines in src/wavedens/*.py, as `wc -l` counts them: total and _taps.py."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in (checkout / "src" / "wavedens").glob("*.py")}
    return {"total": sum(counts.values()), "taps": counts.get("_taps.py", 0)}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1}


def _sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of `wins` against `losses`, ties left out."""
    trials = wins + losses
    tail = sum(math.comb(trials, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**trials)


def _verdicts(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric's review verdicts from its pairs' base and head values.

    gain: `met` when the head side is better in at least 9 of 10 of all pairs
    (a tie counts for neither side) and its median beats the base median by
    more than the base IQR; else `not met`.
    regression: `over bound` when the head median is worse than the base
    median by more than `bound`, a share of the base median; `unresolved`
    when it is not, but the base IQR exceeds that share and some head run
    does not beat every base run, so the spread could hide such a change;
    else `none`.
    """
    sign = 1 if better == "higher" else -1
    b, h = _spread(base), _spread(head)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    gain = wins * 10 >= 9 * len(base) and sign * (h["median"] - b["median"]) > b["iqr"]
    if sign * (b["median"] - h["median"]) > bound * abs(b["median"]):
        regression = "over bound"
    elif (b["iqr"] > bound * abs(b["median"])
          and not all(sign * (y - x) > 0 for x in base for y in head)):
        regression = "unresolved"
    else:
        regression = "none"
    return {"gain": "met" if gain else "not met", "regression": regression}


def _summary(pairs: list[dict], better: dict, bounds: dict | None = None) -> dict:
    """Each metric's spreads, ratios, wins and sign test; with `bounds` (each
    metric's BENCHMARK.json bound), also its _verdicts."""
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        ratios = [p["ratio"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        out[name] = {"better": direction, "base": _spread(base), "head": _spread(head),
                     "ratio_median": statistics.median(ratios),
                     "ratio_range": [min(ratios), max(ratios)],
                     "head_better_pairs": wins, "sign_test_p": _sign_test(wins, losses)}
        if bounds:
            out[name].update(_verdicts(base, head, direction, bounds[name]))
    return out


def _digests(pairs: list[dict]) -> dict:
    mismatches = [{"seed": p["seed"], "key": key, "base": p["digests"]["base"].get(key),
                   "head": p["digests"]["head"].get(key)}
                  for p in pairs
                  for key in sorted(set(p["digests"]["base"]) | set(p["digests"]["head"]))
                  if p["digests"]["base"].get(key) != p["digests"]["head"].get(key)]
    return {"equal": not mismatches, "mismatches": mismatches,
            "by_seed": {p["seed"]: p["digests"]["head"] for p in pairs}}


def _closing_lines(workload: str, entry: dict) -> list[str]:
    """One workload's closing summary: a line per metric and one for the digests."""
    lines = []
    for name, metric in entry["summary"].items():
        low, high = metric["ratio_range"]
        base = metric["base"]
        spread = base["iqr"] / base["median"] if base["median"] else float("nan")
        verdicts = (f"; gain {metric['gain']}, regression {metric['regression']}"
                    if "gain" in metric else "")
        lines.append(f"{workload} {name}: head/base x{metric['ratio_median']:.3f} "
                     f"(pairs x{low:.3f} to x{high:.3f}), head better in "
                     f"{metric['head_better_pairs']} of {len(entry['pairs'])}, "
                     f"base IQR {spread:.1%} of its median{verdicts}")
    keys = sorted({m["key"] for m in entry["digests"]["mismatches"]})
    lines.append(f"{workload} digests: " + (f"differ in {', '.join(keys)}" if keys
                                            else "digests equal"))
    return lines


def _output_digests_line(report: dict) -> str:
    """The closing output-digest line: equal, or the outputs whose digests differ."""
    base, head = (report[side]["output_digests"]["outputs"] for side in ("base", "head"))
    names = sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))
    return "output digests: " + (f"differ in {', '.join(names)}" if names else "equal")


def _failures_line(report: dict) -> str:
    """The closing Tier-1 line: the same failures on both sides, or each side's own."""
    base, head = (set(report[side]["tier1"]["failed"]) for side in ("base", "head"))

    def ids(names):
        return ", ".join(sorted(names)) or "none"

    if base == head:
        return f"tier-1 failures: equal ({ids(base)})"
    return f"tier-1 failures: base only {ids(base - head)}; head only {ids(head - base)}"


def _lines_line(report: dict) -> str:
    """The closing line count: base -> head, with the head's generated _taps.py lines."""
    base, head = report["base"]["src_lines"], report["head"]["src_lines"]
    return (f"src/wavedens/*.py: {base['total']} -> {head['total']} lines "
            f"({head['taps']} generated)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        report["base"] = {"rev": args.base, "commit": _export(args.base, dirs["base"])}
        report["head"] = {"rev": "working tree"}
        _copy_worktree(dirs["head"])
        tool = dirs["head"] / "tools" / "output_digests.py"
        for side, checkout in dirs.items():
            report[side]["src_lines"] = _src_lines(checkout)
            report[side]["output_digests"] = _output_digests(tool, checkout)
            report[side]["tier1"] = _tier1(checkout)
            print(f"tier-1 {side}: {report[side]['tier1']['result']}, "
                  f"{report[side]['tier1']['wall_s']:.1f} s wall", flush=True)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("head", "base") if i % 2 else ("base", "head")
                runs = {side: _run(dirs[side], workload, seed, seconds) for side in order}
                pairs.append({
                    "seed": seed, "first": order[0],
                    "correct": {side: runs[side]["correct"] for side in order},
                    **{side: runs[side]["metrics"] for side in ("base", "head")},
                    "ratio": {k: runs["head"]["metrics"][k] / runs["base"]["metrics"][k]
                              for k in better if runs["base"]["metrics"].get(k)},
                    "digests": {side: runs[side]["digests"] for side in ("base", "head")},
                })
                ratio = pairs[-1]["ratio"].get("items_per_s", float("nan"))
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      f"items_per_s head/base = {ratio:.3f}", flush=True)
            env = runs["head"]["environment"]
            report["environment"] = {"nproc": os.cpu_count(), "cpu": env["cpu_model"],
                                     "python": env["python"], "numpy": env["numpy"]}
            report["workloads"][workload] = {
                "seconds": seconds, "summary": _summary(pairs, better, bounds),
                "digests": _digests(pairs),
                "pairs": [{k: v for k, v in p.items() if k != "digests"} for p in pairs]}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for workload, entry in report["workloads"].items():
        print("\n".join(_closing_lines(workload, entry)))
    print(_failures_line(report))
    print(_output_digests_line(report))
    print(_lines_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
