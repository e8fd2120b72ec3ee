"""Scenario execution engine and the bundled scenario catalog.

A scenario is a validated config with optional per-mechanism sections.
Each section runner is a deterministic function of (section config, seed)
returning structured records plus named true/false predicates; the engine
writes one JSONL report per mechanism, the attack matrix table, and a
summary with one pass/fail line per predicate. Every byte of output is a
function of (config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .adversary import ATTACKS, Tier, matrix_report, profile_for_tier, run_matrix
from .attest import (
    DEFAULT_SNAPSHOT_PERIOD_MS,
    DeviceStatus,
    MeterResource,
    WorkloadLabel,
    classify,
    covert_rollback_chain,
    emit_snapshot,
    fragmentation_demo,
    generate_trace,
    metered_ops,
    verify_chain,
)
from .canon import verify_memo
from .chipmodel import ChipState, ConsumeResult, ThrottleLevel, mint_fleet, provision_chip
from .cluster import (
    HandshakeReject,
    Session,
    apply_cap_update,
    bridge_transfer,
    handshake,
    issue_cap_policy,
    run_due_checks,
    teardown,
)
from .geoloc import (
    GridSpec,
    InsufficientLandmarksError,
    KM_PER_DEGREE,
    Landmark,
    estimate_bft,
    estimate_cbg,
    estimate_descent,
    synthesize_round,
)
from .licensing import (
    fuzz_licenses,
    install,
    make_issuer,
)
from .netsim import GeoPoint, LatencyModel, Network, Node, Simulator, geodesic_distance


@dataclass
class Predicate:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SectionResult:
    records: list[dict] = field(default_factory=list)
    predicates: list[Predicate] = field(default_factory=list)


# -- licensing ---------------------------------------------------------------------


def run_licensing_section(section: dict, fleet: dict, seed: int) -> SectionResult:
    rng = random.Random(seed * 1_000_003 + 11)
    result = SectionResult()
    issuer = make_issuer(rng)
    chips = [provision_chip(rng, frozenset({issuer.public_key})) for _ in range(fleet["count"])]
    resource = MeterResource(section["resource"])
    quota = section["quota"]

    # Completeness: every correctly issued, in-order license is accepted.
    honest_accepted = 0
    for i in range(section["honest_licenses"]):
        chip = chips[i % len(chips)]
        lic = issuer.issue(chip.device_id, {resource: quota})
        if install(chip, lic).accepted:
            honest_accepted += 1
    result.records.append({
        "event": "honest_campaign",
        "issued": section["honest_licenses"],
        "accepted": honest_accepted,
    })
    result.predicates.append(Predicate(
        "licensing_completeness",
        honest_accepted == section["honest_licenses"],
        f"{honest_accepted}/{section['honest_licenses']} accepted",
    ))

    # Quota lifecycle on one chip: boundary, default-deny, renewal.
    chip = chips[0]
    lic = issuer.issue(chip.device_id, {resource: quota})
    install(chip, lic)
    near = chip.consume(resource, quota - 1)
    at_boundary_full = chip.throttle is ThrottleLevel.FULL
    last = chip.consume(resource, 1)
    disabled_after = chip.throttle is ThrottleLevel.DISABLED
    renewal = issuer.issue(chip.device_id, {resource: quota})
    install(chip, renewal)
    renewed_full = chip.throttle is ThrottleLevel.FULL
    lifecycle_ok = (near is ConsumeResult.APPLIED and at_boundary_full
                    and last is ConsumeResult.APPLIED and disabled_after and renewed_full)
    result.records.append({
        "event": "quota_lifecycle",
        "boundary_full": at_boundary_full,
        "disabled_after_exhaustion": disabled_after,
        "renewed_full": renewed_full,
    })
    result.predicates.append(Predicate("licensing_quota_lifecycle", lifecycle_ok))

    # Soundness: the fuzz campaign accepts nothing.
    acceptances, refusals = fuzz_licenses(issuer, chips, section["fuzz_licenses"], rng)
    result.records.append({
        "event": "fuzz_campaign",
        "trials": section["fuzz_licenses"],
        "acceptances": acceptances,
        "refusals": refusals,
    })
    result.predicates.append(Predicate(
        "licensing_soundness", acceptances == 0,
        f"{acceptances} forged acceptances in {section['fuzz_licenses']} trials",
    ))
    return result


# -- cluster -----------------------------------------------------------------------


def run_cluster_section(section: dict, seed: int) -> SectionResult:
    rng = random.Random(seed * 1_000_003 + 23)
    result = SectionResult()
    regulator, registry, chips = mint_fleet(rng, section["chips"])
    check_period = section["check_period_ms"]
    epoch = 0
    cap = section["cap"]
    policy = issue_cap_policy(regulator, cap, epoch, check_period)
    for chip in chips:
        apply_cap_update(chip, policy)
    adopted_at = 0.0  # every chip adopts each policy at the same instant

    churn = section["churn_events"]
    lowering_at = {
        (churn * (k + 1)) // (section["cap_lowerings"] + 1)
        for k in range(section["cap_lowerings"])
    }
    session_ids = itertools.count()
    now = 0.0
    stats = {"handshakes": 0, "accepted": 0, "teardowns": 0, "lowerings": 0,
             "replays_rejected": 0}
    refusals = {reason.value: 0 for reason in HandshakeReject}
    violations = 0
    # Work per event is proportional to what changed, not to the fleet size.
    # Session ids grow in establishment order, so `open_sessions` iterates in
    # id order.
    open_sessions: dict[int, Session] = {}
    over_cap: set[int] = set()

    def recount(chip: ChipState) -> None:
        if len(chip.sessions) > chip.adopted_cap():
            over_cap.add(chip.device_id)
        else:
            over_cap.discard(chip.device_id)

    def close(session: Session) -> None:
        del open_sessions[session.session_id]
        for end in session.ends:
            recount(end)

    def next_check_ms() -> float:
        return min(c.last_check_ms + c.cap_policy.check_period_ms for c in chips)

    next_check = next_check_ms()
    for i in range(churn):
        now += rng.uniform(0.5, check_period / 10.0)
        if next_check <= now:
            # Every chip, in list order, once any is due. Popping chips off a
            # heap would reorder enforcement, and so which sessions close.
            for chip in chips:
                for session in run_due_checks(chip, now):
                    close(session)
            next_check = next_check_ms()
        if i in lowering_at and cap > 0:
            epoch += 1
            cap = rng.randrange(0, cap)
            lowered = issue_cap_policy(regulator, cap, epoch, check_period)
            for chip in chips:
                apply_cap_update(chip, lowered)
                recount(chip)
            adopted_at = now
            replay = issue_cap_policy(regulator, cap + 8, epoch - 1, check_period)
            if not any(apply_cap_update(chip, replay) for chip in chips):
                stats["replays_rejected"] += 1
            stats["lowerings"] += 1
            next_check = next_check_ms()
        if open_sessions and rng.random() < 0.35:
            session = rng.choice(list(open_sessions.values()))
            teardown(session)
            close(session)
            stats["teardowns"] += 1
        else:
            a, b = rng.sample(chips, 2)
            outcome = handshake(now, a, b, registry, rng, session_ids)
            stats["handshakes"] += 1
            if outcome.accepted:
                stats["accepted"] += 1
                open_sessions[outcome.session.session_id] = outcome.session
                recount(a)
                recount(b)
            else:
                refusals[outcome.reason.value] += 1
        if now > adopted_at + check_period + 1e-9:
            violations += len(over_cap)
    result.records.append({"event": "churn_summary", **stats, "refusals": refusals,
                           "violations": violations, "final_cap": cap, "final_epoch": epoch})
    result.predicates.append(Predicate(
        "cluster_cap_safety", violations == 0,
        f"{violations} instants over cap beyond one check period",
    ))
    result.predicates.append(Predicate(
        "cluster_epoch_monotonicity",
        stats["replays_rejected"] == stats["lowerings"],
        f"{stats['replays_rejected']}/{stats['lowerings']} replays rejected",
    ))

    # Bridge latency sweep: transit grows with the configured multiplier.
    a, b = chips[0], chips[1]
    transits = []
    for multiplier in section["bridge_multiplier_sweep"]:
        event = bridge_transfer(now, a, b, 10**9, multiplier=multiplier)
        transits.append(event.transit_ms)
        result.records.append({"event": "bridge_sweep", "multiplier": multiplier,
                               "transit_ms": event.transit_ms})
    monotone = all(t2 >= t1 for t1, t2 in zip(transits, transits[1:]))
    result.predicates.append(Predicate("cluster_bridge_penalty_monotone", monotone))
    return result


# -- geoloc ------------------------------------------------------------------------


def _random_landmarks(rng: random.Random, n: int, region: dict, link: LatencyModel):
    """Dispersed landmark geometry: a jittered ring around the region.

    Landmark networks are deployed for angular coverage; clustered
    placements leave sliver-shaped feasible regions where a speedup attack
    can hide. Phase, per-landmark angle, and radius are all randomized.
    """
    center_lat = (region["lat_min"] + region["lat_max"]) / 2.0
    center_lon = (region["lon_min"] + region["lon_max"]) / 2.0
    extent_lat = (region["lat_max"] - region["lat_min"]) / 2.0
    extent_lon = (region["lon_max"] - region["lon_min"]) / 2.0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    landmarks = []
    for k in range(n):
        angle = phase + 2.0 * math.pi * k / n \
            + rng.uniform(-math.pi / (2 * n), math.pi / (2 * n))
        radius = rng.uniform(0.55, 0.95)
        landmarks.append(Landmark(
            f"lm{k}",
            GeoPoint(center_lat + radius * extent_lat * math.sin(angle),
                     center_lon + radius * extent_lon * math.cos(angle)),
            link,
        ))
    return landmarks


def _random_truth(rng: random.Random, region: dict) -> GeoPoint:
    lat_pad = (region["lat_max"] - region["lat_min"]) * 0.2
    lon_pad = (region["lon_max"] - region["lon_min"]) * 0.2
    return GeoPoint(
        rng.uniform(region["lat_min"] + lat_pad, region["lat_max"] - lat_pad),
        rng.uniform(region["lon_min"] + lon_pad, region["lon_max"] - lon_pad),
    )


def run_geoloc_section(section: dict, seed: int) -> SectionResult:
    rng = random.Random(seed * 1_000_003 + 37)
    result = SectionResult()
    region = section["region"]
    grid = GridSpec(region["lat_min"], region["lat_max"], region["lon_min"],
                    region["lon_max"], region["resolution_deg"])
    link = LatencyModel(jitter_median_ms=section["jitter_median_ms"],
                        jitter_sigma=section["jitter_sigma"],
                        fixed_overhead_ms=section["fixed_overhead_ms"])

    contained = 0
    for trial in range(section["trials"]):
        n = rng.randint(section["landmarks_min"], section["landmarks_max"])
        landmarks = _random_landmarks(rng, n, region, link)
        truth = _random_truth(rng, region)
        ms = synthesize_round(rng, landmarks, truth)
        est = estimate_cbg(ms, grid)
        ok = est.contains(truth) and not est.empty
        contained += ok
        result.records.append({"event": "cbg_trial", "trial": trial, "landmarks": n,
                               "contained": ok, "region_cells": est.cell_count()})
    result.predicates.append(Predicate(
        "geoloc_cbg_containment", contained == section["trials"],
        f"{contained}/{section['trials']} trials contained the truth",
    ))

    flagged = 0
    for trial in range(section["speedup_trials"]):
        n = rng.randint(max(3, section["landmarks_min"]), section["landmarks_max"])
        landmarks = _random_landmarks(rng, n, region, link)
        truth = _random_truth(rng, region)
        speedy = rng.choice(landmarks).id
        ms = synthesize_round(rng, landmarks, truth, speedup={speedy: section["latency_factor"]})
        est = estimate_cbg(ms, grid)
        flagged += est.inconsistent
        result.records.append({"event": "speedup_trial", "trial": trial,
                               "flagged": est.inconsistent})
    if section["speedup_trials"]:
        rate = flagged / section["speedup_trials"]
        result.predicates.append(Predicate(
            "geoloc_speedup_flag_rate", rate >= 0.95,
            f"flag rate {rate:.3f} over {section['speedup_trials']} trials",
        ))

    bft = section["bft"]
    bft_contained = 0
    for trial in range(bft["trials"]):
        landmarks = _random_landmarks(rng, bft["n"], region, link)
        truth = _random_truth(rng, region)
        ms = synthesize_round(rng, landmarks, truth)
        liars = rng.sample(range(bft["n"]), bft["f"])
        for idx in liars:
            mode = rng.random()
            if mode < 0.5:
                lied = rng.uniform(0.0, ms[idx].rtt_ms)  # pull closer
            else:
                lied = ms[idx].rtt_ms * rng.uniform(1.0, 50.0)  # push away
            ms[idx] = replace(ms[idx], rtt_ms=lied)
        est = estimate_bft(ms, grid, f=bft["f"])
        bft_contained += est.contains(truth)
    result.records.append({"event": "bft_campaign", "n": bft["n"], "f": bft["f"],
                           "trials": bft["trials"], "contained": bft_contained})
    result.predicates.append(Predicate(
        "geoloc_bft_containment", bft_contained == bft["trials"],
        f"{bft_contained}/{bft['trials']} trials contained the truth",
    ))

    refusal_landmarks = _random_landmarks(rng, 4, region, link)
    refusal_ms = synthesize_round(rng, refusal_landmarks, _random_truth(rng, region))
    try:
        estimate_bft(refusal_ms, grid, f=2)
        refused = False
    except InsufficientLandmarksError:
        refused = True
    result.predicates.append(Predicate("geoloc_bft_refusal", refused,
                                       "n=4, f=2 must be refused"))

    recovered = 0
    quiet = replace(link, jitter_median_ms=0.0)
    for trial in range(section["descent_trials"]):
        landmarks = _random_landmarks(rng, 5, region, quiet)
        truth = _random_truth(rng, region)
        ms = synthesize_round(rng, landmarks, truth)
        init = _random_truth(rng, region)
        res = estimate_descent(ms, init)
        err_km = geodesic_distance(res.point, truth)
        ok = err_km <= grid.resolution_deg * KM_PER_DEGREE
        recovered += ok
        result.records.append({"event": "descent_trial", "trial": trial,
                               "error_km": round(err_km, 6), "recovered": ok,
                               "iterations": res.iterations, "status": res.status,
                               "start": res.start})
    if section["descent_trials"]:
        result.predicates.append(Predicate(
            "geoloc_descent_recovery", recovered == section["descent_trials"],
            f"{recovered}/{section['descent_trials']} zero-noise recoveries",
        ))
    return result


# -- attest ------------------------------------------------------------------------


def run_attest_section(section: dict, seed: int) -> SectionResult:
    rng = random.Random(seed * 1_000_003 + 41)
    np_rng = np.random.default_rng(seed * 7 + 5)
    result = SectionResult()
    _, registry, chips = mint_fleet(rng, section["chips"])

    oracle_total = 0
    table = {}
    for chip in chips:
        snaps = [emit_snapshot(chip, 0)]
        for seq in range(1, section["snapshots"]):
            chip.advance_to(seq * DEFAULT_SNAPSHOT_PERIOD_MS)
            ops = rng.randrange(section["ops_per_interval"] // 2,
                                section["ops_per_interval"] + 1)
            chip.consume(MeterResource.FLOAT_OPS, ops)
            oracle_total += ops
            snaps.append(emit_snapshot(chip, seq))
        table[chip.device_id] = snaps
    report = verify_chain(table, registry, threshold=section["threshold"])
    exact = report.totals[MeterResource.FLOAT_OPS] == oracle_total
    threshold_ok = report.exceeds_threshold == (oracle_total > section["threshold"])
    result.records.append({
        "event": "accounting",
        "oracle_total": oracle_total,
        "verified_total": report.totals[MeterResource.FLOAT_OPS],
        "threshold": section["threshold"],
        "exceeds_threshold": report.exceeds_threshold,
    })
    result.predicates.append(Predicate("attest_exactness", exact))
    result.predicates.append(Predicate("attest_threshold_reporting", threshold_ok))

    if section["rollback_demo"]:
        rollback_report, _ = covert_rollback_chain(rng)
        status = rollback_report.device_results[0]
        detected = status.status is DeviceStatus.METER_ROLLBACK
        result.records.append({
            "event": "rollback_demo",
            "detected": detected,
            "offending_pair": list(status.offending_pair) if status.offending_pair else None,
        })
        result.predicates.append(Predicate("attest_rollback_detected", detected))

    if section["classifier_traces"]:
        labels = (WorkloadLabel.FRONTIER_TRAINING, WorkloadLabel.INFERENCE,
                  WorkloadLabel.NON_AI)
        correct = 0
        for i in range(section["classifier_traces"]):
            label = labels[i % 3]
            devices = 96 if label is WorkloadLabel.FRONTIER_TRAINING else None
            trace = generate_trace(label, np_rng, devices=devices)
            correct += classify(trace) is label
        accuracy = correct / section["classifier_traces"]
        result.records.append({"event": "classification",
                               "traces": section["classifier_traces"],
                               "accuracy": round(accuracy, 4)})
        result.predicates.append(Predicate(
            "attest_classification_accuracy", accuracy >= 0.9,
            f"accuracy {accuracy:.3f}",
        ))

    # Fragmentation asymmetry: classification evaded, accounting unimpressed.
    k = section["fragmentation_k"]
    devices = 60 * k  # fragments land below the fleet-size threshold
    trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, np_rng, devices=devices)
    demo = fragmentation_demo(trace, k)
    union_ops = sum(demo.fragment_ops)
    totals_preserved = abs(union_ops - metered_ops(trace)) <= k  # integer truncation only
    result.records.append({
        "event": "fragmentation_demo",
        "k": k,
        "whole_label": demo.whole_label.value,
        "fragment_labels": [label.value for label in demo.fragment_labels],
        "union_ops": union_ops,
        "union_exceeds_threshold": union_ops > section["threshold"],
    })
    result.predicates.append(Predicate(
        "attest_fragmentation_asymmetry",
        demo.evaded and totals_preserved and union_ops > section["threshold"],
    ))
    return result


# -- attack matrix -----------------------------------------------------------------


def run_attack_matrix_section(section: dict, adversary_cfg: dict, seed: int) -> tuple[
        SectionResult, str]:
    result = SectionResult()
    profile = profile_for_tier(Tier(adversary_cfg["tier"]),
                               latency_factor=adversary_cfg["latency_factor"],
                               counterfeit_trials=section["counterfeit_trials"])
    outcomes = run_matrix(profile, seed)
    mismatches = [
        o.attack for o in outcomes
        if (o.succeeded, o.detected) != (ATTACKS[o.attack].expected_succeeded,
                                         ATTACKS[o.attack].expected_detected)
    ]
    result.predicates.append(Predicate(
        "attack_matrix_expected_outcomes", not mismatches,
        f"mismatched: {mismatches}" if mismatches else "",
    ))
    for outcome in sorted(outcomes, key=lambda o: o.attack):
        result.records.append({
            "event": "attack",
            "attack": outcome.attack,
            "mechanism": outcome.mechanism,
            "succeeded": outcome.succeeded,
            "detected": outcome.detected,
        })
    return result, matrix_report(outcomes)


# -- network smoke -----------------------------------------------------------------


def run_network_section(section: dict, seed: int) -> SectionResult:
    result = SectionResult()
    nodes = [Node(n["id"], GeoPoint(n["lat"], n["lon"])) for n in section["nodes"]]
    if len(nodes) < 2:
        return result
    latency = LatencyModel(**section["default_latency"])
    net = Network(nodes, default_latency=latency)
    sim = Simulator(seed=seed * 1_000_003 + 53)
    floor_ok = True
    for src in nodes:
        for dst in nodes:
            if src.id == dst.id:
                continue
            event = sim.send(net, src.id, dst.id, b"ping")
            delay = event.time - sim.now
            floor = latency.propagation_floor_ms(net.distance_km(src.id, dst.id))
            floor_ok &= delay >= floor - 1e-9
            result.records.append({
                "event": "ping", "src": src.id, "dst": dst.id,
                "delay_ms": round(delay, 9),
                "floor_ms": round(floor, 9),
            })
    sim.run_until(sim.now + 10_000.0)
    result.predicates.append(Predicate("network_physical_floor", floor_ok))
    return result


# -- engine ------------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    name: str
    predicates: list[Predicate]
    reports: dict[str, str]  # filename -> content
    passed: bool


def execute_scenario(config: dict) -> ScenarioOutcome:
    """Run every section present in the config; pure function of the config."""
    seed = config["seed"]
    predicates: list[Predicate] = []
    reports: dict[str, str] = {}
    # The encoder json.dumps(r, sort_keys=True) would build for each record.
    encode = json.JSONEncoder(sort_keys=True).encode

    def add(name: str, section_result: SectionResult) -> None:
        predicates.extend(section_result.predicates)
        if section_result.records:
            lines = [encode(r) for r in section_result.records]
            reports[f"{name}.jsonl"] = "\n".join(lines) + "\n"

    # Each distinct signed message is verified once per execution, never across runs.
    with verify_memo():
        if "network" in config:
            add("network", run_network_section(config["network"], seed))
        if "licensing" in config:
            add("licensing", run_licensing_section(config["licensing"], config["fleet"], seed))
        if "cluster" in config:
            add("cluster", run_cluster_section(config["cluster"], seed))
        if "geoloc" in config:
            add("geoloc", run_geoloc_section(config["geoloc"], seed))
        if "attest" in config:
            add("attest", run_attest_section(config["attest"], seed))
        if config.get("attack_matrix", {}).get("enabled"):
            section_result, matrix_text = run_attack_matrix_section(
                config["attack_matrix"], config["adversary"], seed)
            add("attacks", section_result)
            reports["attack_matrix.txt"] = matrix_text

    expectations = config.get("expect", {})
    failures = []
    lines = []
    for predicate in predicates:
        expected = expectations.get(predicate.name, True)
        ok = predicate.passed == expected
        marker = "PASS" if ok else "FAIL"
        detail = f"  [{predicate.detail}]" if predicate.detail else ""
        lines.append(f"{marker} {predicate.name}{detail}")
        if not ok:
            failures.append(predicate.name)
    unknown_expectations = sorted(set(expectations) - {p.name for p in predicates})
    for name in unknown_expectations:
        lines.append(f"FAIL {name}  [expectation references no computed predicate]")
        failures.append(name)
    passed = not failures
    lines.append(f"RESULT {'PASS' if passed else 'FAIL'} ({config['name']})")
    reports["summary.txt"] = "\n".join(lines) + "\n"
    reports["summary.json"] = json.dumps({
        "name": config["name"],
        "seed": seed,
        "predicates": {p.name: p.passed for p in predicates},
        "failures": failures,
        "passed": passed,
    }, indent=2, sort_keys=True) + "\n"
    return ScenarioOutcome(config["name"], predicates, reports, passed)


def write_reports(outcome: ScenarioOutcome, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for filename in sorted(outcome.reports):
        path = out_dir / filename
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(outcome.reports[filename])
        written.append(path)
    return written


# -- bundled catalog ---------------------------------------------------------------


BUNDLED_SCENARIOS: dict[str, dict] = {
    "licensing_basic": {
        "name": "licensing_basic",
        "description": "License issuance, quota throttling, and a forged-license fuzz campaign.",
        "seed": 101,
        "licensing": {"honest_licenses": 200, "fuzz_licenses": 2000},
    },
    "cluster_caps": {
        "name": "cluster_caps",
        "description": "Adjustable-cap churn with signed mid-run lowerings and a bridge-latency sweep.",
        "seed": 202,
        "cluster": {"cap": 6, "check_period_ms": 1000.0, "churn_events": 1200,
                    "cap_lowerings": 3},
    },
    "geoloc_cbg": {
        "name": "geoloc_cbg",
        "description": "Distance-bound region estimation: honest containment, speedup flags, fault-tolerant quorum, descent recovery.",
        "seed": 303,
        "geoloc": {"trials": 80, "speedup_trials": 80, "descent_trials": 12},
    },
    "attest_accounting": {
        "name": "attest_accounting",
        "description": "Signed meter chains: exact totals, rollback detection, threshold reporting, workload classification.",
        "seed": 404,
        "attest": {"classifier_traces": 30},
    },
    "attack_matrix": {
        "name": "attack_matrix",
        "description": "Every named attack vs. its defense, with expected outcomes asserted both ways.",
        "seed": 505,
        "attack_matrix": {"counterfeit_trials": 1000},
    },
}
