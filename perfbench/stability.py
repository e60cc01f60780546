"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/stability.py --seeds 1-10 [--seconds S] [--workload NAME ...] [--trace 1]

Spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median; the end-to-end
bounds in BENCHMARK.json must stay above it. The summary holds every run's
values, the environment, the output digests and, for traced runs, each
layer's self time; it is printed and written to --out (default
.bench_build/perfbench/stability-<stamp>.json). A traced run measures the
same probe on every workload, so the summary keeps one copy of the probe
metrics, that of the first workload, under "probe". A trajectory point is
the summary of ten untraced seeds plus that of one traced seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
WORKLOAD_NAMES = ("mc-acceptance", "mc-baselines")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or list(WORKLOAD_NAMES)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    records: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(args.seeds):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append(result)
            records[name].append(json.loads(
                (RESULTS / f"{name}-seed{seed}-trace{args.trace}.json").read_text()))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items())
                             if k in bounds), flush=True)

    summary: dict = {}
    probe_names: set = set()
    if args.trace:
        first = records[names[0]]
        probe_names = set(first[0]["probe"])
        summary["probe"] = {
            "workload": names[0],
            "notes": first[0]["probe_notes"],
            "metrics": {k: {**summarize([rec["probe"][k] for rec in first]),
                            "unit": runs[names[0]][0]["metrics"][k]["unit"]}
                        for k in sorted(probe_names)}}
    for name, results in runs.items():
        metrics = sorted(set(results[0]["metrics"]) - probe_names)
        summary[name] = {
            "environment": records[name][0]["environment"],
            "digests": {str(seed): rec["digests"] for seed, rec in zip(args.seeds, records[name])},
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {k: {**summarize([r["metrics"][k]["value"] for r in results]),
                            "unit": results[0]["metrics"][k]["unit"]} for k in metrics},
        }
        if args.trace:
            summary[name]["trace_layers"] = {
                str(seed): rec["trace_summary"]["layers"]
                for seed, rec in zip(args.seeds, records[name])}
        print(f"\n{name}: correct={summary[name]['correct']} "
              f"failed={summary[name]['failed']}/{summary[name]['attempted']}")
        for k in metrics:
            if args.trace and k not in bounds:
                continue
            s = summary[name]["metrics"][k]
            bound = bounds.get(k)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {k:20s} median {s['median']:.6g} {s['unit']:5s} spread {s['spread']:.4f}"
                  f" (bound {bound}){flag}")
    out = args.out or RESULTS.parent / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
                               "summary": summary}, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
