"""hemsim benchmark: host time to a verdict on seeded scenario workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload signed_fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. Execution times are scaled to a reference
host speed that worker.SpeedProbe samples during each execution. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Each workload runs in
fresh, single-threaded interpreters (worker.py), one at a time: a --trace 0
run splits its seconds over several of them and pools their executions. Set-up
time is the median of several fresh interpreters that import hemsim.scenarios
and validate the workload config. Outputs go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 9
# Fresh interpreters per untraced run. Each gets its own hash seed and memory
# layout, which shift its speed a little; pooling their executions evens that out.
WORKERS = 3
DEADLINE_S = 170.0  # from the start of a workload to its last worker's end
OUT_DIR = ".bench_out"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _worker_env(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")


def measure_setup(workload: str, seed: int, env: dict) -> list[float]:
    """Fresh interpreter -> import hemsim.scenarios + validate_config, in seconds."""
    args = ["setup", "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = _worker(args, env, timeout=60.0)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            _fail(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
        if i:  # the first start fills file and bytecode caches; users pay that once
            samples.append(elapsed)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               out_root: Path, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.perf_counter())
    proc = _worker(["run", "--workload", workload, "--seed", str(seed), "--seconds",
                    str(seconds), "--trace", str(trace), "--out", str(out_root)],
                   env, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"workload {workload} failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def pool(parts: list[dict]) -> dict:
    """One untraced result from the results of several workers."""
    raw = {key: [x for part in parts for x in part[key]]
           for key in ("verdict_s", "cpu_s", "slowdown", "verdict_ref_s", "cpu_ref_s")}
    failures = [f for part in parts for f in part["failures"]]
    if len({part["report_sha256"] for part in parts}) != 1:
        failures.append("report bytes differ between worker processes")
    raw.update({
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts) + 1,
        "failures": failures,
        "report_sha256": parts[0]["report_sha256"],
        "machine": parts[0]["machine"],
    })
    return raw


def run_workload(workload: str, seed: int, seconds: float, trace: int, bench: dict,
                 checkout: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    env = _worker_env(checkout)
    out_root = checkout / OUT_DIR
    out_root.mkdir(exist_ok=True)
    if trace:
        setup = []
        raw = run_worker(workload, seed, seconds, trace, env, out_root, deadline)
    else:
        setup = measure_setup(workload, seed, env)
        raw = pool([run_worker(workload, seed, seconds / WORKERS, trace, env, out_root,
                               deadline)
                    for _ in range(WORKERS)])

    if trace:
        wanted = bench["per_layer"]
        values = raw["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "verdict_ref_s": statistics.median(raw["verdict_ref_s"]),
            "cpu_ref_s": statistics.median(raw["cpu_ref_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"workload {workload} produced no value for {missing}")
    failed = len(raw["failures"])
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "executions": len(raw["verdict_s"]),
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "failures": raw["failures"],
        "failed_frac": failed / raw["attempted"],
        "report_sha256": raw["report_sha256"],
        "machine": raw["machine"],
        "samples": {"setup_s": setup,
                    **{k: raw.get(k, []) for k in ("verdict_s", "cpu_s", "slowdown",
                                                   "verdict_ref_s", "cpu_ref_s")}},
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    results_dir = out_root / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"executions {result['executions']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    if not result["trace"]:
        samples = result["samples"]
        for name, unit in (("verdict_s", "s"), ("cpu_s", "s"), ("slowdown", "x")):
            print(f"  {name + ' (median)':44s} "
                  f"{statistics.median(samples[name]):>14.6g} {unit}")
    print(f"  {'failed_frac':44s} {result['failed_frac']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']} checks failed)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  report_sha256 {result['report_sha256']}")
    print(f"  machine nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} cryptography={m['cryptography']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hemsim benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "hemsim" / "scenarios.py").is_file():
        _fail(f"{checkout} holds no hemsim source (src/hemsim); run from a checkout root")
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, seconds, args.trace, bench, checkout)
               for name in names]
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
