"""One benchmark workload in a fresh, single-threaded interpreter.

    worker.py setup --workload W --seed N
        import hemsim.scenarios and validate the workload config, then exit;
        run.py times this from process start to exit (`setup_s`).
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
        execute the workload through validate_config -> execute_scenario ->
        write_reports until S seconds have passed, check every execution, and
        print one JSON object as the last line of standard output.

With --trace 0 a `SpeedProbe` samples the host's speed during each timed
execution, so that the end-to-end times can be scaled to one reference speed.
With --trace 1 untraced executions alternate with executions under
`tracer.Tracer`, which yield the per-layer numbers and the tracing overhead.
run.py starts this file with PYTHONPATH pointing at the checkout's `src/`, so
the hemsim measured is the one in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import SECTION_SPANS, Tracer

VALIDATE_REPEATS = 25


def _import_hemsim(checkout: Path):
    from hemsim import config, scenarios

    src = (checkout / "src").resolve()
    if src not in Path(scenarios.__file__).resolve().parents:
        sys.exit(f"hemsim was imported from {scenarios.__file__}, not from {src}")
    return config, scenarios


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def machine_info() -> dict:
    import cryptography
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
    }


class SpeedProbe:
    """Samples how fast the host runs this process while an execution runs.

    On a shared host the speed of the core this process gets swings by up to
    1.7x within seconds, as other tenants load it, and Python, ed25519 and
    numpy code slow down alike. Every PERIOD_S of wall time a timer signal runs
    a fixed pure-Python loop and records how long it took. The mean of those
    times over one execution, divided by REF_S, is that execution's slowdown.
    Its wall and CPU time, less the time spent in the probe, divided by the
    slowdown, are the times it would have taken at the reference speed.
    """

    PERIOD_S = 0.03
    LOOPS = 12000
    # About the loop's time on the reference box (2 vCPUs, Intel Xeon, 2.1 GHz,
    # Python 3.11) when its core is not shared; it only sets the scale.
    REF_S = 0.00095

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - wall0)
        self.spent_cpu += time.process_time() - cpu0
        self.spent_wall += time.perf_counter() - wall0

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self.samples.clear()
        self.spent_wall = self.spent_cpu = 0.0
        # The first sample comes after half a period, so even a short
        # execution gets one.
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S / 2, self.PERIOD_S)

    def stop(self) -> float:
        """Stops sampling; returns the slowdown of the stretch since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if not self.samples:
            raise RuntimeError("speed probe took no sample")
        return statistics.fmean(self.samples) / self.REF_S


class Executor:
    """Runs one validated config repeatedly and checks every execution."""

    def __init__(self, scenarios, config: dict, out_dir: Path):
        self.scenarios = scenarios
        self.config = config
        self.out_dir = out_dir
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def execute(self, probe: SpeedProbe | None = None) -> tuple[float, float, float]:
        """One execution; returns (wall seconds, CPU seconds, slowdown).

        With a probe the times exclude the probe's own time and the slowdown
        is the probe's; without one the slowdown is 1.
        """
        slowdown = 1.0
        if probe:
            probe.start()
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        outcome = self.scenarios.execute_scenario(self.config)
        written = self.scenarios.write_reports(outcome, self.out_dir)
        if probe:
            slowdown = probe.stop()
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        if probe:
            wall -= probe.spent_wall
            cpu -= probe.spent_cpu

        digest = hashlib.sha256()
        summary = None
        for path in sorted(written):
            data = path.read_bytes()
            digest.update(f"{path.name}\n{len(data)}\n".encode())
            digest.update(data)
            if path.name == "summary.json":
                summary = json.loads(data)
        predicates = summary["predicates"] if summary else {}
        self.check(bool(predicates), "summary.json lists no predicates")
        for name, passed in sorted(predicates.items()):
            self.check(passed is True, f"predicate {name} failed")
        if self.reference is None:
            self.reference = digest.hexdigest()
        else:
            self.check(digest.hexdigest() == self.reference,
                       "report bytes differ from the first execution of this seed")
        return wall, cpu, slowdown

    def repeat(self, seconds: float, minimum: int, probe: SpeedProbe) -> list[tuple]:
        """Execute until `seconds` have passed and at least `minimum` times."""
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < minimum or time.perf_counter() < deadline:
            samples.append(self.execute(probe))
        return samples


def _span_for(metric: str) -> str:
    if not metric.endswith(".calls"):
        raise ValueError(f"bypass fact on {metric}: only *.calls facts are supported")
    return metric[: -len(".calls")]


def _source_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "hemsim").glob("*.py")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_untraced(executor: Executor, name: str, seconds: float) -> dict:
    """End-to-end numbers with no span open; bypass facts use call counters.

    A bypass fact names a function the workload must never call, so counting
    its calls costs nothing while the fact holds.
    """
    facts = workloads.bypass_facts(name)
    sentinel = Tracer()
    sentinel.install({_span_for(f["metric"]) for f in facts}, count_only=True)
    probe = SpeedProbe()
    probe.install()
    try:
        start = time.perf_counter()
        executor.execute()  # warm-up and reference bytes, not timed
        samples = executor.repeat(seconds - (time.perf_counter() - start), minimum=3,
                                  probe=probe)
    finally:
        probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sentinel.uninstall()
    for fact in facts:
        calls = sentinel.calls(_span_for(fact["metric"]))
        executor.check(calls == fact["equals"] * (len(samples) + 1),
                       f"bypass fact {fact['metric']} = {fact['equals']} broken: {calls}")
    walls, cpus, slowdowns = (list(column) for column in zip(*samples))
    return {
        "verdict_s": walls,
        "cpu_s": cpus,
        "slowdown": slowdowns,
        "verdict_ref_s": [w / k for w, k in zip(walls, slowdowns)],
        "cpu_ref_s": [c / k for c, k in zip(cpus, slowdowns)],
        "peak_rss_mb": peak_rss_mb,
    }


def run_traced(executor: Executor, name: str, seconds: float, config_module, raw: dict,
               checkout: Path, out_root: Path, seed: int) -> dict:
    """Alternating untraced and traced executions; per-layer numbers and overhead.

    Alternating puts both kinds in the same stretch of machine time, so the
    difference of their medians is the tracing overhead, not machine drift.
    """
    deadline = time.perf_counter() + seconds
    executor.execute()  # warm-up and reference bytes, not timed
    tracer = Tracer()
    tracer.install()
    try:
        validate_s = []
        for _ in range(VALIDATE_REPEATS):
            tracer.reset()
            config_module.validate_config(raw)
            validate_s.append(tracer.stats["config.validate_config"][1])
    finally:
        tracer.uninstall()

    untraced, traced, exacts, times = [], [], [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(executor.execute()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(executor.execute()[0])
        finally:
            tracer.uninstall()
        exact, spent = tracer.snapshot()
        exacts.append(exact)
        times.append(spent)
    spans = list(tracer.spans)

    counts = exacts[0]
    for i, other in enumerate(exacts[1:], start=2):
        changed = sorted(k for k in counts if other.get(k) != counts[k])
        executor.check(not changed, f"traced execution {i} counts differ: {changed}")
    for fact in workloads.bypass_facts(name):
        executor.check(counts[fact["metric"]] == fact["equals"],
                       f"bypass fact {fact['metric']} = {fact['equals']} broken: "
                       f"{counts[fact['metric']]}")

    # Section spans plus execute_scenario self time plus write_reports account
    # for the traced verdict; what is left is the harness loop itself.
    accounted = [
        (sum(t.get(f"{s}.s", 0.0) for s in SECTION_SPANS)
         + t["scenarios.execute_scenario.self_s"] + t["scenarios.write_reports.s"]) / wall
        for t, wall in zip(times, traced)
    ]
    executor.check(min(accounted) >= 0.95,
                   f"traced spans account for only {min(accounted):.3f} of verdict_s")

    # Exact counts must also repeat across processes on the same source.
    counts_file = out_root / "counts" / f"{name}-seed{seed}-{_source_digest(checkout)}.json"
    if counts_file.exists():
        earlier = json.loads(counts_file.read_text(encoding="utf-8"))
        changed = sorted(k for k in counts if earlier.get(k) != counts[k])
        executor.check(not changed, f"counts differ from an earlier traced run: {changed}")
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")

    _write_spans(out_root / f"spans-{name}.jsonl", spans)

    layers = dict(counts)
    for key in times[0]:
        layers[key] = statistics.median(t[key] for t in times)
    layers["config.validate_config.s"] = statistics.median(validate_s)
    layers["trace.verdict_s"] = statistics.median(traced)
    layers["trace.untraced_verdict_s"] = statistics.median(untraced)
    # Each traced execution minus the untraced one just before it: machine
    # drift between the two is smaller than across the whole run.
    layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    layers["trace.accounted_ratio"] = statistics.median(accounted)
    return {"layers": layers, "verdict_s": traced}


def _write_spans(path: Path, spans: list) -> None:
    """The last traced execution's spans, times relative to its first span."""
    origin = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                 parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    config_module, scenarios = _import_hemsim(checkout)
    raw = workloads.build(args.workload, args.seed)
    config = config_module.validate_config(raw)
    if args.mode == "setup":
        return 0

    out_root = args.out.resolve()
    reports_dir = out_root / "reports" / f"{args.workload}-{os.getpid()}"
    executor = Executor(scenarios, config, reports_dir)
    if args.trace:
        result = run_traced(executor, args.workload, args.seconds, config_module, raw,
                            checkout, out_root, args.seed)
    else:
        result = run_untraced(executor, args.workload, args.seconds)
    for path in sorted(reports_dir.iterdir()):
        path.unlink()
    reports_dir.rmdir()
    result.update({
        "attempted": executor.attempted,
        "failures": executor.failures,
        "report_sha256": executor.reference,
        "machine": machine_info(),
    })
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
