"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line (visible with `pytest -s`) and asserts
both the criterion and its runtime budget.
"""

import math
import random
import time

import numpy as np
import pytest

from hemsim import canon
from hemsim.adversary import (
    ATTACK_INVENTORY,
    ATTACKS,
    Tier,
    profile_for_tier,
    run_matrix,
    unexercised_rows,
)
from hemsim.attest import WorkloadLabel, classify, generate_trace
from hemsim.chipmodel import (
    MeterResource,
    PersistencePolicy,
    PolicyKind,
    ThrottleLevel,
    provision_chip,
)
from hemsim.config import validate_config
from hemsim.geoloc import descent_objective_and_gradient, descent_terms
from hemsim.licensing import fuzz_licenses, install, make_issuer
from hemsim.netsim import EARTH_RADIUS_KM, GeoPoint
from hemsim.scenarios import (
    BUNDLED_SCENARIOS,
    execute_scenario,
    run_attest_section,
    run_cluster_section,
    run_geoloc_section,
)


def _report(criterion: str, passed: bool, elapsed: float, budget: float, detail: str = ""):
    marker = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] {marker} {criterion} ({elapsed:.1f}s / budget {budget:.0f}s){suffix}")


def _predicates(result):
    return {p.name: (p.passed, p.detail) for p in result.predicates}


class TestAcceptance:
    def test_01_licensing_soundness(self):
        start = time.monotonic()
        rng = random.Random(9001)
        issuer = make_issuer(rng)
        chips = [provision_chip(rng, frozenset({issuer.public_key})) for _ in range(8)]

        honest_accepted = 0
        for i in range(1000):
            chip = chips[i % len(chips)]
            lic = issuer.issue(chip.identity.device_id,
                               {MeterResource.CLOCK_CYCLES: 1000})
            honest_accepted += install(chip, lic).accepted

        acceptances, refusals = fuzz_licenses(issuer, chips, 10_000, rng)
        elapsed = time.monotonic() - start
        passed = honest_accepted == 1000 and acceptances == 0 and elapsed < 30.0
        _report("1 licensing soundness", passed, elapsed, 30,
                f"honest {honest_accepted}/1000, forged acceptances {acceptances}/10000")
        assert honest_accepted == 1000
        assert acceptances == 0
        assert elapsed < 30.0

    def test_02_counter_monotonicity(self):
        start = time.monotonic()
        issuer_key = canon.generate_keypair(random.Random(0).randbytes(32))
        policies = {
            PolicyKind.CAPACITOR_FLUSH: PersistencePolicy(
                PolicyKind.CAPACITOR_FLUSH, flush_interval_ms=100.0),
            PolicyKind.PERIODIC_FLUSH: PersistencePolicy(
                PolicyKind.PERIODIC_FLUSH, flush_interval_ms=100.0),
            PolicyKind.BOOT_ROUNDUP: PersistencePolicy(
                PolicyKind.BOOT_ROUNDUP, flush_interval_ms=100.0, roundup_increment=64),
        }
        trials_per_policy = 1000
        resource = MeterResource.FLOAT_OPS
        for kind, policy in policies.items():
            for trial in range(trials_per_policy):
                rng = random.Random(f"{kind.value}:{trial}")
                chip = provision_chip(rng, frozenset({issuer_key.public_bytes}),
                                      policy=policy)
                chip.throttle = ThrottleLevel.FULL
                # External oracle state, recomputed independently of MeterBank.
                true_consumed = 0
                model_volatile = 0
                model_persisted = 0
                window_consumed = 0
                now = 0.0
                next_flush = policy.flush_interval_ms
                prev_persisted_max = 0
                for _ in range(30):
                    now += rng.uniform(1.0, 60.0)
                    while next_flush <= now:  # oracle mirrors flush instants
                        model_persisted = max(model_persisted, model_volatile)
                        window_consumed = 0
                        next_flush += policy.flush_interval_ms
                    chip.advance_to(now)
                    if rng.random() < 0.3:
                        volatile_at_loss = model_volatile
                        chip.power_loss(at_ms=now)
                        if kind is PolicyKind.CAPACITOR_FLUSH:
                            model_persisted = max(model_persisted, model_volatile)
                        now += rng.uniform(0.5, 10.0)
                        recovered = chip.power_on(at_ms=now)[resource]
                        if kind is PolicyKind.BOOT_ROUNDUP:
                            model_persisted += policy.roundup_increment
                        model_volatile = model_persisted
                        next_flush = now + policy.flush_interval_ms
                        # Persisted values never decrease across reboots.
                        assert chip.meters.persisted[resource] >= prev_persisted_max
                        prev_persisted_max = chip.meters.persisted[resource]
                        assert recovered == model_volatile
                        if kind is PolicyKind.CAPACITOR_FLUSH:
                            assert recovered == true_consumed
                        elif kind is PolicyKind.PERIODIC_FLUSH:
                            # A cut forfeits at most the unflushed window.
                            assert volatile_at_loss - recovered == window_consumed
                            assert recovered <= true_consumed
                        else:
                            assert recovered >= true_consumed  # never undercounts
                        window_consumed = 0
                    else:
                        cap = 64 - window_consumed  # conforming increment bound
                        amount = rng.randrange(0, max(cap, 0) + 1)
                        chip.consume(resource, amount)
                        true_consumed += amount
                        model_volatile += amount
                        window_consumed += amount
        elapsed = time.monotonic() - start
        _report("2 counter monotonicity", elapsed < 30.0, elapsed, 30,
                f"{3 * trials_per_policy} schedules across 3 policies")
        assert elapsed < 30.0

    def test_03_cap_safety(self):
        start = time.monotonic()
        section = validate_config({
            "name": "cap_accept", "seed": 0,
            "cluster": {"chips": 16, "cap": 6, "check_period_ms": 1000.0,
                        "churn_events": 10_000, "cap_lowerings": 5},
        })["cluster"]
        result = run_cluster_section(section, seed=777)
        predicates = _predicates(result)
        elapsed = time.monotonic() - start
        ok = predicates["cluster_cap_safety"][0] and elapsed < 30.0
        _report("3 cap safety", ok, elapsed, 30, predicates["cluster_cap_safety"][1])
        assert predicates["cluster_cap_safety"][0], predicates
        assert predicates["cluster_epoch_monotonicity"][0], predicates
        assert elapsed < 30.0

    def test_04_cbg_containment(self):
        start = time.monotonic()
        section = validate_config({
            "name": "cbg_accept", "seed": 0,
            "geoloc": {"trials": 500, "speedup_trials": 500, "latency_factor": 0.5,
                       "bft": {"trials": 1}, "descent_trials": 0},
        })["geoloc"]
        result = run_geoloc_section(section, seed=4242)
        predicates = _predicates(result)
        elapsed = time.monotonic() - start
        contained_ok = predicates["geoloc_cbg_containment"][0]
        flag_ok = predicates["geoloc_speedup_flag_rate"][0]
        _report("4 cbg containment + speedup flags", contained_ok and flag_ok
                and elapsed < 60.0, elapsed, 60,
                f"{predicates['geoloc_cbg_containment'][1]}; "
                f"{predicates['geoloc_speedup_flag_rate'][1]}")
        assert contained_ok, predicates
        assert flag_ok, predicates
        assert elapsed < 60.0

    def test_05_bft_containment(self):
        start = time.monotonic()
        section = validate_config({
            "name": "bft_accept", "seed": 0,
            "geoloc": {"trials": 1, "speedup_trials": 0,
                       "bft": {"n": 7, "f": 2, "trials": 200}, "descent_trials": 0},
        })["geoloc"]
        result = run_geoloc_section(section, seed=515)
        predicates = _predicates(result)
        elapsed = time.monotonic() - start
        ok = (predicates["geoloc_bft_containment"][0]
              and predicates["geoloc_bft_refusal"][0] and elapsed < 60.0)
        _report("5 bft containment", ok, elapsed, 60,
                predicates["geoloc_bft_containment"][1])
        assert predicates["geoloc_bft_containment"][0], predicates
        assert predicates["geoloc_bft_refusal"][0], predicates
        assert elapsed < 60.0

    def test_06_descent_correctness(self):
        start = time.monotonic()
        rng = random.Random(606)
        h = 1e-3  # km along the east and north great circles

        def moved(lat, lon, bearing, km):
            p1, d = math.radians(lat), km / EARTH_RADIUS_KM
            p2 = math.asin(math.sin(p1) * math.cos(d)
                           + math.cos(p1) * math.sin(d) * math.cos(bearing))
            dl = math.atan2(math.sin(bearing) * math.sin(d) * math.cos(p1),
                            math.cos(d) - math.sin(p1) * math.sin(p2))
            return math.degrees(p2), lon + math.degrees(dl)

        worst_rel = 0.0
        for _ in range(100):
            targets = descent_terms([
                (GeoPoint(rng.uniform(-30, 40), rng.uniform(-60, 70)),
                 rng.uniform(100.0, 4000.0))
                for _ in range(rng.randrange(3, 8))
            ])
            lat = rng.uniform(-45, 45)
            lon = rng.uniform(-100, 100)
            _, g_e, g_n, _, _, _ = descent_objective_and_gradient(lat, lon, targets)
            for analytic, bearing in ((g_e, math.pi / 2.0), (g_n, 0.0)):
                f_p = descent_objective_and_gradient(*moved(lat, lon, bearing, h), targets)[0]
                f_m = descent_objective_and_gradient(*moved(lat, lon, bearing, -h), targets)[0]
                numeric = (f_p - f_m) / (2 * h)
                scale = max(abs(analytic), abs(numeric), 1e-3)
                rel = abs(analytic - numeric) / scale
                worst_rel = max(worst_rel, rel)
                assert rel < 1e-5, (analytic, numeric)

        section = validate_config({
            "name": "descent_accept", "seed": 0,
            "geoloc": {"trials": 1, "speedup_trials": 0, "bft": {"trials": 1},
                       "descent_trials": 100},
        })["geoloc"]
        result = run_geoloc_section(section, seed=66)
        predicates = _predicates(result)
        elapsed = time.monotonic() - start
        ok = predicates["geoloc_descent_recovery"][0] and elapsed < 30.0
        _report("6 descent correctness", ok, elapsed, 30,
                f"worst gradient rel err {worst_rel:.2e}; "
                f"{predicates['geoloc_descent_recovery'][1]}")
        assert predicates["geoloc_descent_recovery"][0], predicates
        assert elapsed < 30.0

    def test_07_attestation_exactness(self):
        start = time.monotonic()
        section = validate_config({
            "name": "attest_accept", "seed": 0,
            "attest": {"chips": 6, "snapshots": 8, "ops_per_interval": 125_000_000,
                       "threshold": 10**9, "rollback_demo": True,
                       "classifier_traces": 0, "fragmentation_k": 4},
        })["attest"]
        result = run_attest_section(section, seed=700)
        predicates = _predicates(result)
        elapsed = time.monotonic() - start
        ok = all(predicates[name][0] for name in
                 ("attest_exactness", "attest_threshold_reporting",
                  "attest_rollback_detected")) and elapsed < 30.0
        _report("7 attestation exactness", ok, elapsed, 30)
        assert predicates["attest_exactness"][0], predicates
        assert predicates["attest_threshold_reporting"][0], predicates
        assert predicates["attest_rollback_detected"][0], predicates
        assert elapsed < 30.0

    def test_08_attack_matrix(self):
        start = time.monotonic()
        assert unexercised_rows() == []
        inventory = {name for names in ATTACK_INVENTORY.values() for name in names}
        assert inventory == set(ATTACKS)

        outcomes = run_matrix(profile_for_tier(Tier.OPEN, latency_factor=0.5,
                                               counterfeit_trials=10_000), seed=808)
        by_name = {o.attack: o for o in outcomes}
        mismatches = [
            name for name, o in by_name.items()
            if (o.succeeded, o.detected) != (ATTACKS[name].expected_succeeded,
                                             ATTACKS[name].expected_detected)
        ]
        # Defenses hold where claimed...
        assert not by_name["licensing_counterfeit"].succeeded
        assert not by_name["licensing_replay"].succeeded
        assert not by_name["licensing_cross_device"].succeeded
        assert by_name["geoloc_delay_speedup"].detected
        # ...and fail where conceded.
        relay = by_name["geoloc_key_extraction_relay"]
        assert relay.succeeded and not relay.detected
        fragmentation = by_name["accounting_fragmentation"]
        assert fragmentation.succeeded
        assert fragmentation.evidence["union_exceeds_threshold"]
        elapsed = time.monotonic() - start
        ok = not mismatches
        _report("8 attack matrix", ok and elapsed < 120.0, elapsed, 120,
                f"{len(outcomes)} attacks, mismatches: {mismatches}")
        assert not mismatches

    def test_09_determinism(self):
        start = time.monotonic()
        for name, raw in sorted(BUNDLED_SCENARIOS.items()):
            config = validate_config(raw)
            first = execute_scenario(config)
            second = execute_scenario(config)
            assert first.reports == second.reports, f"{name} reports differ across reruns"
            assert first.passed, f"{name} failed: {[p.name for p in first.predicates if not p.passed]}"
        elapsed = time.monotonic() - start
        _report("9 determinism", True, elapsed, 120,
                f"{len(BUNDLED_SCENARIOS)} scenarios, byte-identical reruns")

    def test_10_classification_accuracy(self):
        start = time.monotonic()
        rng = np.random.default_rng(1010)
        labels = (WorkloadLabel.FRONTIER_TRAINING, WorkloadLabel.INFERENCE,
                  WorkloadLabel.NON_AI)
        total = 300
        correct = 0
        for i in range(total):
            label = labels[i % 3]
            devices = 128 if label is WorkloadLabel.FRONTIER_TRAINING else None
            trace = generate_trace(label, rng, devices=devices)
            correct += classify(trace).label is label
        accuracy = correct / total
        elapsed = time.monotonic() - start
        _report("10 classification", accuracy >= 0.9 and elapsed < 60.0, elapsed, 60,
                f"accuracy {accuracy:.3f} on {total} traces")
        assert accuracy >= 0.9
        assert elapsed < 60.0
