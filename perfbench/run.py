"""wavedens benchmark: one workload per call, or all of them with --workload all.

    python3 perfbench/run.py --workload mc-acceptance --seed 1 --seconds 15 --trace 0

Run from the repository root (the program is imported from ./src). With
--trace 0 the run reports the end-to-end metrics listed in BENCHMARK.json;
with --trace 1 it also runs the workload with a span on every layer entry
point and the per-level/scaling probe, and reports the per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A fuller record
(environment, digests, trace breakdown) is written under
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so the wavedens thread count is the
# only parallelism; WAVEDENS_THREADS beats the config, so a stray value would
# silently change the thread count of the MC workloads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
CLEARED_WAVEDENS_THREADS = os.environ.pop("WAVEDENS_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("mc-acceptance", "mc-baselines")
SETUP_FIRST = 4

# Time from a fresh interpreter to a program ready to run the workload:
# import, filter and table build, target build and config parse. A run takes
# SETUP_FIRST set-ups before its loop and one after each loop unit, so the
# samples span the run as the loop's own do, and reports their median.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from wavedens import cli
cfg = cli.load_config(sys.argv[2])
tables = cfg.tables()
specs = [cfg.process_spec(block, n) for block in cfg.cases for n in cfg.n]
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "wavedens").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "WAVEDENS_THREADS_cleared": CLEARED_WAVEDENS_THREADS,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS}}


def _setup_seconds(config_path: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up run failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    import probe
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    problems: list[str] = []
    digests: dict = {}
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        metrics: dict[str, float] = {}
        record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                        "trace": int(trace), "environment": _environment()}
        setups: list[float] = []
        between_units = None
        if not trace:
            cfg_path = work / "setup-config.json"
            cfg_path.write_text(json.dumps(workload.config(seed, work / "setup-out")))

            def sample_setups(count: int = 1) -> None:
                setups.extend(_setup_seconds(cfg_path) for _ in range(count))
            sample_setups(SETUP_FIRST)
            between_units = sample_setups

        # a traced run splits its time between an untraced and a traced loop
        # over the same inputs; their rate difference is the tracing overhead
        loop_s = seconds / 2 if trace else seconds
        loop = workload.loop(seed, loop_s, work, problems, digests,
                             between_units=between_units)
        record["loop"] = {"items": loop.items, "failed": loop.failed, "units": loop.units,
                          "wall_s": loop.wall_s, "user_s": loop.user_s, "sys_s": loop.sys_s,
                          "fit_times_s": loop.fit_times}
        attempted, failed = loop.items, loop.failed
        if not trace:
            record["setup_samples_s"] = setups
            metrics["setup_s"] = statistics.median(setups)
            metrics["items_per_s"] = loop.items_per_s()
            metrics["fit_s_p50"] = loop.fit_s_p50()
            metrics["cpu_s_per_item"] = loop.cpu_s_per_item()
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer = Tracer()
            workloads.install_layer_spans(tracer)
            try:
                traced = workload.loop(seed, loop_s, work, problems, digests, tracer=tracer)
            finally:
                tracer.restore()
            attempted += traced.items
            failed += traced.failed
            summary = tracer.summary(traced.wall_s, workload.threads)
            record["trace_summary"] = summary
            probe_metrics, record["probe_notes"] = probe.run_probe(seed)
            record["probe"] = probe_metrics
            metrics.update(probe_metrics)
            metrics["risk_metrics.pool_efficiency"] = summary["pool_efficiency"]
            metrics["risk_metrics.sys_cpu_share"] = loop.sys_s / (loop.user_s + loop.sys_s)
            metrics["trace.items_per_s_delta"] = traced.items_per_s() - loop.items_per_s()
            record["untraced_items_per_s"] = loop.items_per_s()
            record["traced_items_per_s"] = traced.items_per_s()

        if set(metrics) != set(declared):
            problems.append(f"metric names differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ set(declared))}")
        record.update(digests=digests, problems=problems, metrics=metrics)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_human(record, declared, attempted, failed)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": declared[k]}
                        for k in declared if k in metrics}}


def _print_human(record: dict, declared: dict, attempted: int, failed: int) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit']} WAVEDENS_THREADS(cleared)={env['WAVEDENS_THREADS_cleared']}")
    for key, value in sorted(record["digests"].items()):
        print(f"digest {key} = {value}")
    if "trace_summary" in record:
        summary = record["trace_summary"]
        print(f"trace: {summary['items']} items, {summary['spans']} spans; "
              f"untraced {record['untraced_items_per_s']:.4f}/s, "
              f"traced {record['traced_items_per_s']:.4f}/s")
        for layer, entry in summary["layers"].items():
            print(f"layer {layer:16s} self {entry['self_ms_per_item']:10.3f} ms/item "
                  f"({100 * entry['self_share']:5.1f}%)")
        for span, entry in summary["by_name"].items():
            print(f"span {span:34s} calls {entry['calls']:6d}  "
                  f"self {entry['self_ms_per_item']:10.3f} ms/item")
    for key in declared:
        if key in record["metrics"]:
            print(f"{key} = {record['metrics'][key]:.6g} {declared[key]}")
    fraction = failed / attempted if attempted else float("nan")
    print(f"failed_fraction = {fraction:.6g} ({failed}/{attempted})")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"correct = {not record['problems']}")


def _run_all(args) -> int:
    """Run each workload in its own process, so set-up and peak RSS stay separate."""
    results, rc = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        rc = rc or proc.returncode
        record = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        results[name] = json.loads(record.read_text()) if proc.returncode == 0 else None
    print(json.dumps({name: None if r is None else
                      {"correct": not r["problems"], "metrics": r["metrics"]}
                      for name, r in results.items()}, sort_keys=True))
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (SRC / "wavedens" / "__init__.py").is_file():
        _fail(f"no wavedens sources under {SRC}; run from a repository checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import wavedens
    if Path(wavedens.__file__).resolve().parent != SRC / "wavedens":
        _fail(f"imported wavedens from {wavedens.__file__}, not from {SRC}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), declared)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
