"""In-memory span tracer that wraps hemsim's public functions from outside.

Nothing under `src/` knows about it. `Tracer.install` replaces each target
function with a wrapper in every hemsim module namespace that holds it
(`scenarios` and `adversary` bind names with `from ... import`, so patching
only the defining module would miss their calls) and, for methods, on the
class. `Tracer.uninstall` puts the originals back.

A span records (name, start, end, parent index). A layer's self time is its
span time minus the time of its traced children. Counting targets record
calls only and open no span, so their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"


# Observers see (tracer, args, kwargs, result, seconds) after each call.

def _observe_verify(tracer, args, kwargs, result, dt):
    tracer.counts["canon.verify.ok"] += bool(result)


def _observe_run_until(tracer, args, kwargs, result, dt):
    tracer.counts["netsim.run_until.events"] += len(result)


def _observe_install(tracer, args, kwargs, result, dt):
    tracer.counts["licensing.install.accepted"] += bool(result.accepted)


def _observe_handshake(tracer, args, kwargs, result, dt):
    tracer.counts["cluster.handshake.accepted"] += bool(result.accepted)


def _observe_distances(tracer, args, kwargs, result, dt):
    tracer.counts["geoloc.cells_evaluated"] += int(result.size)


def _observe_descent(tracer, args, kwargs, result, dt):
    tracer.counts["geoloc.descent_iterations"] += result.iterations


def _observe_verify_chain(tracer, args, kwargs, result, dt):
    table = args[0] if args else kwargs["snapshots_by_device"]
    tracer.counts["attest.verify_chain.snapshots"] += sum(len(s) for s in table.values())


def _observe_run_attack(tracer, args, kwargs, result, dt):
    name = args[0] if args else kwargs["name"]
    tracer.times[f"adversary.{name}.s"] += dt


def _observe_write_reports(tracer, args, kwargs, result, dt):
    outcome = args[0] if args else kwargs["outcome"]
    tracer.counts["scenarios.report_bytes"] += sum(
        len(text.encode("utf-8")) for text in outcome.reports.values())


# (span name, defining module, attribute path, kind, observer)
TARGETS = [
    ("canon.verify", "canon", "verify", SPAN, _observe_verify),
    ("canon.sign", "canon", "KeyPair.sign", SPAN, None),
    ("canon.generate_keypair", "canon", "generate_keypair", SPAN, None),
    ("netsim.send", "netsim", "Simulator.send", SPAN, None),
    ("netsim.run_until", "netsim", "Simulator.run_until", SPAN, _observe_run_until),
    ("netsim.geodesic_distance", "netsim", "geodesic_distance", COUNT, None),
    ("chipmodel.provision_chip", "chipmodel", "provision_chip", SPAN, None),
    ("licensing.issue", "licensing", "IssuerState.issue", SPAN, None),
    ("licensing.install", "licensing", "install", SPAN, _observe_install),
    ("cluster.handshake", "cluster", "handshake", SPAN, _observe_handshake),
    ("cluster.run_due_checks", "cluster", "run_due_checks", SPAN, None),
    ("cluster.apply_cap_update", "cluster", "apply_cap_update", SPAN, None),
    ("geoloc.distances_km", "geoloc", "GridSpec.distances_km", SPAN, _observe_distances),
    ("geoloc.estimate_cbg", "geoloc", "estimate_cbg", SPAN, None),
    ("geoloc.estimate_bft", "geoloc", "estimate_bft", SPAN, None),
    ("geoloc.estimate_descent", "geoloc", "estimate_descent", SPAN, _observe_descent),
    ("geoloc.objective", "geoloc", "descent_objective_and_gradient", COUNT, None),
    ("geoloc.synthesize_round", "geoloc", "synthesize_round", SPAN, None),
    ("attest.emit_snapshot", "attest", "emit_snapshot", SPAN, None),
    ("attest.verify_chain", "attest", "verify_chain", SPAN, _observe_verify_chain),
    ("attest.classify", "attest", "classify", SPAN, None),
    ("attest.generate_trace", "attest", "generate_trace", SPAN, None),
    ("adversary.run_attack", "adversary", "run_attack", SPAN, _observe_run_attack),
    ("config.validate_config", "config", "validate_config", SPAN, None),
    ("scenarios.run_network_section", "scenarios", "run_network_section", SPAN, None),
    ("scenarios.run_licensing_section", "scenarios", "run_licensing_section", SPAN, None),
    ("scenarios.run_cluster_section", "scenarios", "run_cluster_section", SPAN, None),
    ("scenarios.run_geoloc_section", "scenarios", "run_geoloc_section", SPAN, None),
    ("scenarios.run_attest_section", "scenarios", "run_attest_section", SPAN, None),
    ("scenarios.run_attack_matrix_section", "scenarios", "run_attack_matrix_section",
     SPAN, None),
    ("scenarios.execute_scenario", "scenarios", "execute_scenario", SPAN, None),
    ("scenarios.write_reports", "scenarios", "write_reports", SPAN, _observe_write_reports),
]

SECTION_SPANS = tuple(name for name, *_ in TARGETS
                      if name.startswith("scenarios.run_") and name.endswith("_section"))

# Counts derived as (numerator counter, denominator span) per execution.
RATIOS = {
    "canon.verify.ok_ratio": ("canon.verify.ok", "canon.verify"),
    "licensing.install.accept_ratio": ("licensing.install.accepted", "licensing.install"),
    "cluster.handshake.accept_ratio": ("cluster.handshake.accepted", "cluster.handshake"),
}
RENAMED_COUNTS = {"geoloc.objective.calls": "geoloc.objective_evals"}
# Counters every execution reports, zero when their layer is bypassed.
COUNTERS = ("canon.verify.ok", "netsim.run_until.events", "licensing.install.accepted",
            "cluster.handshake.accepted", "geoloc.cells_evaluated",
            "geoloc.descent_iterations", "attest.verify_chain.snapshots",
            "scenarios.report_bytes")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[list] = []  # [span index, traced child time]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.timed: set[str] = set()  # names whose wrapper opens spans
        self.counts: defaultdict[str, int] = defaultdict(int)  # exact, per execution
        self.times: defaultdict[str, float] = defaultdict(float)  # seconds, per execution
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, names=None, count_only: bool = False) -> None:
        """Wrap the named targets (all by default) everywhere they are bound."""
        modules = [m for key, m in sys.modules.items()
                   if key == "hemsim" or key.startswith("hemsim.")]
        for name, module_name, attr, kind, observe in TARGETS:
            if names is not None and name not in names:
                continue
            owner = sys.modules[f"hemsim.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            if count_only or kind == COUNT:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original, observe)
                self.timed.add(name)
            if path:  # a method: patching the class reaches every caller
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _counter(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, observe):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                spans[frame[0]] = (name, start, end, parent)
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(self, args, kwargs, result, dt)
            return result
        return wrapper

    # -- per-execution results ------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.times.clear()
        if "adversary.run_attack" in self.timed:
            attacks = sys.modules["hemsim.adversary"].ATTACKS
            self.times.update({f"adversary.{name}.s": 0.0 for name in attacks})
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def snapshot(self) -> tuple[dict, dict]:
        """(exact counts, times in seconds) for the execution since `reset`."""
        exact: dict[str, float] = {}
        times: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            exact[RENAMED_COUNTS.get(f"{name}.calls", f"{name}.calls")] = calls
            if name in self.timed:
                times[f"{name}.s"] = total
                times[f"{name}.self_s"] = self_s
        exact.update(self.counts)
        for metric, (numerator, span) in RATIOS.items():
            calls = self.calls(span)
            exact[metric] = exact[numerator] / calls if calls else 0.0
        times.update(self.times)
        exact["trace.spans"] = len(self.spans)
        return exact, times
