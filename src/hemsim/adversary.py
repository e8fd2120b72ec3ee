"""Adversary tiers, capabilities, and the scripted attack inventory.

Each named attack against the four mechanisms is a self-contained scenario:
it builds a small world from a seed, runs the adversary's script, and
reports whether the adversary's goal predicate held and whether any defense
flagged the attempt. The registry also records the expected outcome either
way, because the claims are falsifiable in both directions: defenses must
hold where they are designed to hold, and attacks the design concedes
(key-extraction relay, workload shaping) must actually succeed.

Each attack is declared once, by the `@attack` decorator on its body; the
mechanism comes from its row in `ATTACK_INVENTORY`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import canon
from .attest import (
    DESK_SCALE_THRESHOLD_OPS,
    DeviceStatus,
    WorkloadLabel,
    classification_flip_point,
    classify,
    covert_rollback_chain,
    emit_snapshot,
    fragmentation_demo,
    generate_trace,
    inject_noise,
    verify_chain,
)
from .chipmodel import (
    MeterResource,
    Registry,
    ThrottleLevel,
    extract_signing_oracle,
    mint_fleet,
    provision_chip,
)
from .cluster import (
    ClusterNode,
    DataEvent,
    HandshakeReject,
    SessionAllocator,
    adopt_manifest,
    apply_cap_update,
    bridge_transfer,
    detect_cross_pod_coupling,
    handshake,
    issue_cap_policy,
    issue_manifest,
)
from .geoloc import (
    GridSpec,
    Landmark,
    challenge_round,
    delay_to_distance,
    estimate_bft,
    estimate_cbg,
    synthesize_round,
)
from .licensing import (
    RejectReason,
    fuzz_licenses,
    install,
    make_issuer,
    metered_consume,
)
from .netsim import GeoPoint, LatencyModel, Network, Node, Simulator


class Capability(Enum):
    COUNTERFEIT_LICENSE = "counterfeit_license"
    REPLAY_LICENSE = "replay_license"
    CROSS_DEVICE_LICENSE = "cross_device_license"
    POWER_CUT_TIMING = "power_cut_timing"
    COVERT_TAMPER = "covert_tamper"
    KEY_EXTRACTION = "key_extraction"
    PCIE_BRIDGE = "pcie_bridge"
    GRADIENT_SMUGGLE = "gradient_smuggle"
    DELAY_SLOWDOWN = "delay_slowdown"
    DELAY_SPEEDUP = "delay_speedup"
    COMPROMISE_LANDMARKS = "compromise_landmarks"
    DDOS_LANDMARKS = "ddos_landmarks"
    FIRMWARE_MOD = "firmware_mod"


class Tier(Enum):
    MINIMAL = "minimal"
    COVERT = "covert"
    OPEN = "open"


# Default tier -> capability mapping. Config, not claim: the taxonomy orders
# attacker budgets, and the nesting below must stay strict.
TIER_CAPABILITIES: dict[Tier, frozenset[Capability]] = {
    Tier.MINIMAL: frozenset({
        Capability.COUNTERFEIT_LICENSE,
        Capability.REPLAY_LICENSE,
        Capability.CROSS_DEVICE_LICENSE,
        Capability.DELAY_SLOWDOWN,
    }),
}
TIER_CAPABILITIES[Tier.COVERT] = TIER_CAPABILITIES[Tier.MINIMAL] | frozenset({
    Capability.POWER_CUT_TIMING,
    Capability.COVERT_TAMPER,
    Capability.PCIE_BRIDGE,
    Capability.GRADIENT_SMUGGLE,
    Capability.DELAY_SPEEDUP,
    Capability.COMPROMISE_LANDMARKS,
    Capability.DDOS_LANDMARKS,
})
TIER_CAPABILITIES[Tier.OPEN] = TIER_CAPABILITIES[Tier.COVERT] | frozenset({
    Capability.KEY_EXTRACTION,
    Capability.FIRMWARE_MOD,
})


@dataclass(frozen=True)
class AdversaryProfile:
    tier: Tier
    capabilities: frozenset[Capability]
    latency_factor: float = 0.5          # for delay_speedup
    compromised_landmarks: int = 2       # for compromise_landmarks


def profile_for_tier(tier: Tier, **overrides) -> AdversaryProfile:
    return AdversaryProfile(tier=tier, capabilities=TIER_CAPABILITIES[tier], **overrides)


class ScenarioConfigError(ValueError):
    """The scripted action needs a capability the profile does not grant."""


@dataclass(frozen=True)
class AttackOutcome:
    attack: str
    mechanism: str
    succeeded: bool
    detected: bool
    evidence: dict


@dataclass(frozen=True)
class AttackSpec:
    name: str
    mechanism: str
    required: frozenset[Capability]
    expected_succeeded: bool
    expected_detected: bool
    # (profile, rng, params) -> {"succeeded", "detected", "evidence"}
    run_fn: Callable[[AdversaryProfile, random.Random, dict], dict] = field(
        repr=False, compare=False)


# The named-attack inventory, grouped by the mechanism each attack targets.
# The test suite fails if any row here lacks a registered scenario.
ATTACK_INVENTORY: dict[str, tuple[str, ...]] = {
    "accounting": (
        "accounting_meter_tamper",
        "accounting_noise_injection",
        "accounting_fragmentation",
    ),
    "cluster": (
        "cluster_pod_firmware_mod",
        "cluster_cap_forge",
        "cluster_manifest_forge",
        "cluster_pcie_bridge",
        "cluster_gradient_smuggle",
    ),
    "geoloc": (
        "geoloc_delay_slowdown",
        "geoloc_delay_speedup",
        "geoloc_landmark_compromise",
        "geoloc_landmark_ddos",
        "geoloc_key_extraction_relay",
    ),
    "licensing": (
        "licensing_counterfeit",
        "licensing_replay",
        "licensing_cross_device",
        "licensing_host_clock_rollback",
        "licensing_meter_rollback",
        "licensing_power_cut_rollback",
        "licensing_throttle_bypass",
    ),
}
_MECHANISM_OF = {name: mechanism
                 for mechanism, names in ATTACK_INVENTORY.items() for name in names}

ATTACKS: dict[str, AttackSpec] = {}


def attack(name: str, *, expect: tuple[bool, bool], required=frozenset()):
    """Register the decorated body as the scenario for an inventory row.

    `expect` is (succeeded, detected) as the design claims it; `required`
    are the capabilities `run_attack` demands of the profile.
    """
    def register(fn):
        if name in ATTACKS:
            raise ValueError(f"attack registered twice: {name}")
        if name not in _MECHANISM_OF:
            raise ValueError(f"attack not in ATTACK_INVENTORY: {name}")
        ATTACKS[name] = AttackSpec(name, _MECHANISM_OF[name], frozenset(required), *expect, fn)
        return fn
    return register


# -- world helpers ---------------------------------------------------------------


def _require(done: bool, step: str) -> None:
    """A set-up step the row cannot mean anything without; runs under -O too."""
    if not done:
        raise RuntimeError(f"attack set-up failed: {step}")


def _licensed_chip(rng: random.Random, quota: int):
    issuer = make_issuer(rng)
    chip = provision_chip(rng, frozenset({issuer.public_key}))
    lic = issuer.issue(chip.identity.device_id, {MeterResource.CLOCK_CYCLES: quota})
    _require(install(chip, lic).accepted, "genuine license install")
    return issuer, chip, lic


def _landmark_ring(n: int, overhead: float = 0.5, center=(10.0, 10.0),
                   radius_deg: float = 9.0) -> list[Landmark]:
    """Fixed dispersed geometry so each matrix row is seed-robust."""
    clat, clon = center
    return [
        Landmark(
            f"lm{i}",
            GeoPoint(clat + radius_deg * math.sin(2 * math.pi * i / n),
                     clon + radius_deg * math.cos(2 * math.pi * i / n)),
            fixed_overhead_ms=overhead,
        )
        for i in range(n)
    ]


_GRID = GridSpec(lat_min=-5.0, lat_max=25.0, lon_min=-5.0, lon_max=25.0, resolution_deg=0.25)


# -- licensing attacks -------------------------------------------------------------


@attack("licensing_counterfeit", required={Capability.COUNTERFEIT_LICENSE}, expect=(False, True))
def _attack_counterfeit(profile, rng, params) -> dict:
    trials = params.get("trials", 2000)
    issuer, chip, _ = _licensed_chip(rng, quota=10**6)
    acceptances, refusals = fuzz_licenses(issuer, [chip], trials, rng)
    return dict(
        succeeded=acceptances > 0,
        detected=acceptances < trials,  # rejections are visible events
        evidence={"trials": trials, "acceptances": acceptances, "refusals": refusals},
    )


@attack("licensing_replay", required={Capability.REPLAY_LICENSE}, expect=(False, True))
def _attack_replay(profile, rng, params) -> dict:
    issuer, chip, lic = _licensed_chip(rng, quota=1000)
    metered_consume(chip, MeterResource.CLOCK_CYCLES, 1000)  # exhaust the grant
    rejections = []
    for _ in range(50):
        rejections.append(install(chip, lic).reason)
    return dict(
        succeeded=any(r is None for r in rejections),
        detected=all(r is RejectReason.STALE_ID for r in rejections),
        evidence={"attempts": len(rejections)},
    )


@attack("licensing_cross_device", required={Capability.CROSS_DEVICE_LICENSE}, expect=(False, True))
def _attack_cross_device(profile, rng, params) -> dict:
    issuer = make_issuer(rng)
    chip_a = provision_chip(rng, frozenset({issuer.public_key}))
    chip_b = provision_chip(rng, frozenset({issuer.public_key}))
    lic_a = issuer.issue(chip_a.identity.device_id, {MeterResource.CLOCK_CYCLES: 10**6})
    result = install(chip_b, lic_a)
    return dict(
        succeeded=result.accepted,
        detected=result.reason is RejectReason.WRONG_DEVICE,
        evidence={"reason": result.reason.value if result.reason else None},
    )


@attack("licensing_host_clock_rollback", expect=(False, True))
def _attack_host_clock_rollback(profile, rng, params) -> dict:
    issuer = make_issuer(rng)
    chip = provision_chip(rng, frozenset({issuer.public_key}))
    chip.advance_to(50_000.0)
    # A license that expired long ago, offered by a host that turns time back.
    not_after = 10_000
    expired = issuer.issue(chip.identity.device_id, {MeterResource.CLOCK_CYCLES: 10**6},
                           not_after=not_after)
    chip.advance_to(0.0)
    result = install(chip, expired)
    return dict(
        succeeded=result.accepted,
        detected=result.reason is RejectReason.EXPIRED,
        evidence={"chip_rtc_ms": chip.rtc_read(), "not_after": not_after,
                  "reason": result.reason.value if result.reason else None},
    )


@attack("licensing_meter_rollback", required={Capability.COVERT_TAMPER}, expect=(True, True))
def _attack_meter_rollback_licensing(profile, rng, params) -> dict:
    quota = 10_000
    issuer, chip, lic = _licensed_chip(rng, quota=quota)
    registry = Registry()
    registry.enroll(chip)
    snapshots = [emit_snapshot(chip, 0)]
    true_consumed = 0
    # Burn most of the quota, roll the meter back covertly, keep consuming.
    for seq in range(1, 4):
        amount = 3000
        if metered_consume(chip, MeterResource.CLOCK_CYCLES, amount).applied:
            true_consumed += amount
        snapshots.append(emit_snapshot(chip, seq))
    chip.tamper_event("meter_rollback", covert=True,
                      resource=MeterResource.CLOCK_CYCLES, amount=8000)
    snapshots.append(emit_snapshot(chip, 4))
    overdraft = 0
    for seq in range(5, 8):
        amount = 3000
        if metered_consume(chip, MeterResource.CLOCK_CYCLES, amount).applied:
            true_consumed += amount
            overdraft = max(0, true_consumed - quota)
        snapshots.append(emit_snapshot(chip, seq))
    report = verify_chain({chip.identity.device_id: snapshots}, registry)
    status = report.device_results[0].status
    return dict(
        succeeded=overdraft > 0,  # used beyond licensed capacity
        detected=status is DeviceStatus.METER_ROLLBACK,
        evidence={
            "true_consumed": true_consumed,
            "quota": quota,
            "overdraft": overdraft,
            "verifier_status": status.value,
            "offending_pair": report.device_results[0].offending_pair,
        },
    )


@attack("licensing_power_cut_rollback", required={Capability.POWER_CUT_TIMING},
        expect=(False, True))
def _attack_power_cut_rollback(profile, rng, params) -> dict:
    issuer, chip, lic = _licensed_chip(rng, quota=500)
    metered_consume(chip, MeterResource.CLOCK_CYCLES, 500)
    reuse_accepted = 0
    attempts = 200
    for _ in range(attempts):
        at = chip.clock_ms + rng.uniform(0.01, 20.0)
        chip.power_loss(at_ms=at)
        chip.power_on(at_ms=at + rng.uniform(0.01, 5.0))
        if install(chip, lic).accepted:
            reuse_accepted += 1
    return dict(
        succeeded=reuse_accepted > 0,
        detected=reuse_accepted == 0,
        evidence={"attempts": attempts, "reuse_accepted": reuse_accepted,
                  "last_license_id": chip.last_license_id},
    )


@attack("licensing_throttle_bypass", required={Capability.FIRMWARE_MOD}, expect=(True, True))
def _attack_throttle_bypass(profile, rng, params) -> dict:
    regulator = canon.generate_keypair(rng.randbytes(32))
    registry = Registry()
    chip = provision_chip(rng, frozenset({regulator.public_bytes}))  # never licensed
    peer = provision_chip(rng, frozenset({regulator.public_bytes}))
    peer.throttle = ThrottleLevel.FULL
    registry.enroll(chip)
    registry.enroll(peer)
    genuine_hashes = {
        chip.identity.device_id: chip.firmware_hash,
        peer.identity.device_id: peer.firmware_hash,
    }
    throttled = chip.consume(MeterResource.CLOCK_CYCLES, 100)
    # Modified firmware ignores the throttle: meters move despite the
    # disabled state the license state machine mandates.
    chip.tamper_event("firmware_mod", covert=True)
    chip.meters.increment(MeterResource.CLOCK_CYCLES, 10**6)
    unlicensed_use = chip.meter_value(MeterResource.CLOCK_CYCLES)
    # The pod integrity check catches the patched firmware at the next
    # handshake against the regulator-signed manifest of genuine hashes.
    manifest = issue_manifest(regulator, "pod-0", genuine_hashes, manifest_epoch=0)
    node_chip = ClusterNode(chip=chip)
    node_peer = ClusterNode(chip=peer)
    for node in (node_peer, node_chip):
        _require(adopt_manifest(node, manifest), "genuine manifest adoption")
    result = handshake(0.0, node_peer, node_chip, registry, rng, SessionAllocator())
    return dict(
        succeeded=unlicensed_use > 0,
        detected=result.reason is HandshakeReject.FIRMWARE_MISMATCH
        and node_chip.self_disabled,
        evidence={"honest_consume_throttled": throttled.value,
                  "unlicensed_cycles": unlicensed_use,
                  "handshake_reason": result.reason.value if result.reason else None},
    )


# -- cluster attacks ---------------------------------------------------------------


def _cluster_world(rng, n_chips):
    regulator, registry, chips = mint_fleet(rng, n_chips)
    return regulator, registry, [ClusterNode(chip=chip) for chip in chips]


@attack("cluster_pod_firmware_mod", required={Capability.FIRMWARE_MOD}, expect=(False, True))
def _attack_pod_firmware(profile, rng, params) -> dict:
    regulator, registry, nodes = _cluster_world(rng, 2)
    a, b = nodes
    manifest = issue_manifest(
        regulator, "pod-1",
        {a.device_id: a.chip.firmware_hash, b.device_id: b.chip.firmware_hash},
        manifest_epoch=0,
    )
    for node in (a, b):
        _require(adopt_manifest(node, manifest), "genuine manifest adoption")
    b.chip.tamper_event("firmware_mod", covert=True)
    result = handshake(0.0, a, b, registry, rng, SessionAllocator())
    return dict(
        succeeded=result.accepted,
        detected=result.reason is HandshakeReject.FIRMWARE_MISMATCH and b.self_disabled,
        evidence={"reason": result.reason.value if result.reason else None,
                  "member_self_disabled": b.self_disabled},
    )


@attack("cluster_cap_forge", expect=(False, True))
def _attack_cap_forge(profile, rng, params) -> dict:
    regulator, registry, nodes = _cluster_world(rng, 1)
    node = nodes[0]
    genuine = issue_cap_policy(regulator, cap=4, cap_epoch=1)
    _require(apply_cap_update(node, genuine), "genuine cap policy adoption")
    rogue = canon.generate_keypair(rng.randbytes(32))
    forged_raise = issue_cap_policy(rogue, cap=1024, cap_epoch=2)
    replayed = issue_cap_policy(regulator, cap=64, cap_epoch=0)
    adopted_forged = apply_cap_update(node, forged_raise)
    adopted_replay = apply_cap_update(node, replayed)
    return dict(
        succeeded=adopted_forged or adopted_replay,
        detected=not adopted_forged and not adopted_replay,
        evidence={"cap_after": node.adopted_cap(), "cap_epoch_after": node.cap_policy.cap_epoch},
    )


@attack("cluster_manifest_forge", expect=(False, True))
def _attack_manifest_forge(profile, rng, params) -> dict:
    regulator, registry, nodes = _cluster_world(rng, 3)
    member, peer, outsider = nodes
    pod = {n.device_id: n.chip.firmware_hash for n in (member, peer)}
    _require(adopt_manifest(member, issue_manifest(regulator, "pod-0", pod, manifest_epoch=0)),
             "genuine manifest adoption")
    # The outsider is a genuine member of another pod.
    own = issue_manifest(regulator, "pod-1", {outsider.device_id: outsider.chip.firmware_hash},
                         manifest_epoch=0)
    _require(adopt_manifest(outsider, own), "genuine manifest adoption")
    rogue = canon.generate_keypair(rng.randbytes(32))
    forged = issue_manifest(rogue, "pod-0",
                            {**pod, outsider.device_id: outsider.chip.firmware_hash},
                            manifest_epoch=1)
    adopted = adopt_manifest(member, forged)
    result = handshake(0.0, member, outsider, registry, rng, SessionAllocator())
    return dict(
        succeeded=adopted or result.accepted,
        detected=not adopted and result.reason is HandshakeReject.NOT_IN_POD,
        evidence={"forged_adopted": adopted,
                  "member_epoch": member.pod_manifest.manifest_epoch,
                  "handshake_reason": result.reason.value if result.reason else None},
    )


@attack("cluster_pcie_bridge", required={Capability.PCIE_BRIDGE}, expect=(True, True))
def _attack_pcie_bridge(profile, rng, params) -> dict:
    regulator, registry, nodes = _cluster_world(rng, 2)
    a, b = nodes
    moved = 0
    events = []
    for step in range(5):
        event = bridge_transfer(step * 100.0, "host-0", a, b, 10**9,
                                capability_granted=True)
        events.append(event)
        moved += event.n_bytes
    direct_ms = 10**9 / 1e8
    return dict(
        succeeded=moved == 5 * 10**9,
        detected=a.chip.meter_value(MeterResource.PCIE_TRANSFER_BYTES) == moved,
        evidence={
            "bytes_moved": moved,
            "latency_penalty": events[0].transit_ms / direct_ms,
            "pcie_meter_a": a.chip.meter_value(MeterResource.PCIE_TRANSFER_BYTES),
            "pcie_meter_b": b.chip.meter_value(MeterResource.PCIE_TRANSFER_BYTES),
        },
    )


@attack("cluster_gradient_smuggle",
        required={Capability.GRADIENT_SMUGGLE, Capability.PCIE_BRIDGE}, expect=(True, True))
def _attack_gradient_smuggle(profile, rng, params) -> dict:
    regulator, registry, nodes = _cluster_world(rng, 8)
    pod_of = {}
    for i, node in enumerate(nodes):
        pod_of[node.device_id] = "pod-a" if i < 4 else "pod-b"
    bridge_a, bridge_b = nodes[3], nodes[4]  # one compromised device per pod
    step_ms = 1000.0
    gradient_bytes = 2 * 10**9
    events: list[DataEvent] = []
    for step in range(12):
        events.append(
            bridge_transfer(step * step_ms + 500.0, "host-0", bridge_a, bridge_b,
                            gradient_bytes, capability_granted=True)
        )
    flags = detect_cross_pod_coupling(events, pod_of, window_ms=step_ms,
                                      threshold_bytes_per_step=gradient_bytes // 2)
    return dict(
        succeeded=len(events) == 12,
        detected=any(f.pod_pair == ("pod-a", "pod-b") for f in flags),
        evidence={
            "flagged_pairs": [list(f.pod_pair) for f in flags],
            "windows_over": flags[0].windows_over_threshold if flags else 0,
        },
    )


# -- geoloc attacks ----------------------------------------------------------------


@attack("geoloc_delay_slowdown", required={Capability.DELAY_SLOWDOWN}, expect=(False, False))
def _attack_slowdown(profile, rng, params) -> dict:
    landmarks = _landmark_ring(6)
    lms = {lm.id: lm for lm in landmarks}
    truth = GeoPoint(11.0, 9.0)
    honest = synthesize_round(rng, landmarks, truth, 0.2, 0.5)
    baseline = estimate_cbg(honest, lms, _GRID)
    slowed = [
        type(m)(m.landmark_id, m.rtt_ms + rng.uniform(5.0, 30.0), m.nonce,
                m.response_signature, m.verified)
        for m in honest
    ]
    attacked = estimate_cbg(slowed, lms, _GRID)
    return dict(
        succeeded=not attacked.contains(truth),  # goal: evict the truth
        detected=attacked.inconsistent,
        evidence={
            "region_cells_honest": baseline.cell_count(),
            "region_cells_attacked": attacked.cell_count(),
            "uncertainty_grew": attacked.cell_count() > baseline.cell_count(),
        },
    )


@attack("geoloc_delay_speedup", required={Capability.DELAY_SPEEDUP}, expect=(False, True))
def _attack_speedup(profile, rng, params) -> dict:
    landmarks = _landmark_ring(5)
    lms = {lm.id: lm for lm in landmarks}
    truth = GeoPoint(11.0, 9.0)
    ms = synthesize_round(rng, landmarks, truth, 0.1, 0.5,
                          speedup={"lm0": profile.latency_factor})
    est = estimate_cbg(ms, lms, _GRID)
    # Success would be a clean (non-empty, unflagged) region that the chip
    # appears inside while the truth is pushed out.
    clean_spoof = (not est.inconsistent) and not est.contains(truth)
    return dict(
        succeeded=clean_spoof,
        detected=est.inconsistent,
        evidence={"empty_region": est.empty,
                  "floor_violations": list(est.floor_violations),
                  "latency_factor": profile.latency_factor},
    )


@attack("geoloc_landmark_compromise", required={Capability.COMPROMISE_LANDMARKS},
        expect=(False, True))
def _attack_landmark_compromise(profile, rng, params) -> dict:
    f = 2
    landmarks = _landmark_ring(7)
    truth = GeoPoint(11.0, 9.0)
    # Two ring landmarks lie hard, reporting the chip nearly on top of them.
    compromised = list(range(min(profile.compromised_landmarks, f)))
    liars = {landmarks[idx].id for idx in compromised}
    lms = {lm.id: lm for lm in landmarks}
    ms = [
        replace(m, rtt_ms=m.rtt_ms * 0.1) if m.landmark_id in liars else m
        for m in synthesize_round(rng, landmarks, truth, 0.2, 0.5)
    ]
    est = estimate_bft(ms, lms, _GRID, f=f)
    # Liars whose bounds exclude the whole surviving region stand out.
    outliers = []
    for m in ms:
        bound = delay_to_distance(m, lms[m.landmark_id].fixed_overhead_ms)
        if bound.floor_violation:
            outliers.append(m.landmark_id)
            continue
        slack = _GRID.half_diagonal_km()
        disk = _GRID.within_km(lms[m.landmark_id].position, bound.bound_km + slack)
        if est.mask.any() and not (disk & est.mask).any():
            outliers.append(m.landmark_id)
    return dict(
        succeeded=not est.contains(truth),
        detected=len(outliers) > 0,
        evidence={"compromised": [landmarks[i].id for i in compromised],
                  "flagged_outliers": outliers,
                  "truth_contained": est.contains(truth)},
    )


@attack("geoloc_landmark_ddos", required={Capability.DDOS_LANDMARKS}, expect=(False, True))
def _attack_ddos(profile, rng, params) -> dict:
    _, registry, (chip,) = mint_fleet(rng, 1)
    landmarks = _landmark_ring(7, overhead=0.5)
    truth = GeoPoint(11.0, 9.0)
    nodes = [Node(lm.id, lm.position, role="landmark") for lm in landmarks]
    nodes.append(Node("chip", truth))
    net = Network(nodes, default_latency=LatencyModel(
        kappa=0.67, jitter_median_ms=0.2, jitter_sigma=0.5, fixed_overhead_ms=0.5))
    downed = {lm.id for lm in rng.sample(landmarks, 2)}
    net.drop_hooks.append(lambda src, dst: dst in downed)
    sim = Simulator(seed=rng.randrange(2**31))
    ms = challenge_round(sim, net, landmarks, chip.identity.device_id, "chip",
                         chip.sign, registry, timeout_ms=500.0)
    lms = {lm.id: lm for lm in landmarks}
    est = estimate_cbg(ms, lms, _GRID)
    missing = [m.landmark_id for m in ms if m.missing]
    return dict(
        succeeded=not est.contains(truth),
        detected=len(missing) > 0,
        evidence={"missing": missing, "usable": sum(1 for m in ms if m.verified)},
    )


@attack("geoloc_key_extraction_relay", required={Capability.KEY_EXTRACTION}, expect=(True, False))
def _attack_relay(profile, rng, params) -> dict:
    _, registry, (chip,) = mint_fleet(rng, 1)
    oracle = extract_signing_oracle(chip, capability_granted=True)
    truth = GeoPoint(20.0, 20.0)        # where the chip really sits
    relay_site = GeoPoint(2.0, 2.0)     # where the relay answers from
    landmarks = [
        Landmark("lm0", GeoPoint(0.0, 0.0), fixed_overhead_ms=0.5),
        Landmark("lm1", GeoPoint(0.0, 8.0), fixed_overhead_ms=0.5),
        Landmark("lm2", GeoPoint(8.0, 4.0), fixed_overhead_ms=0.5),
    ]
    nodes = [Node(lm.id, lm.position, role="landmark") for lm in landmarks]
    nodes.append(Node("relay", relay_site))
    net = Network(nodes, default_latency=LatencyModel(
        kappa=0.67, jitter_median_ms=0.1, jitter_sigma=0.5, fixed_overhead_ms=0.5))
    sim = Simulator(seed=rng.randrange(2**31))
    ms = challenge_round(sim, net, landmarks, chip.identity.device_id, "relay",
                         oracle, registry)
    lms = {lm.id: lm for lm in landmarks}
    est = estimate_cbg(ms, lms, _GRID)
    spoofed = (
        all(m.verified for m in ms)
        and not est.inconsistent
        and est.contains(relay_site)
        and not est.contains(truth)
    )
    return dict(
        succeeded=spoofed,
        detected=est.inconsistent or any(not m.verified for m in ms),
        evidence={"relay_site_in_region": est.contains(relay_site),
                  "truth_in_region": est.contains(truth),
                  "all_verified": all(m.verified for m in ms)},
    )


# -- accounting attacks -------------------------------------------------------------


@attack("accounting_meter_tamper", required={Capability.COVERT_TAMPER}, expect=(False, True))
def _attack_accounting_meter_tamper(profile, rng, params) -> dict:
    report, true_total = covert_rollback_chain(rng)
    result = report.device_results[0]
    # The falsified chain is rejected outright, so no undercounted total is
    # ever reported as verified.
    return dict(
        succeeded=result.status is DeviceStatus.VERIFIED
        and report.totals[MeterResource.FLOAT_OPS] < true_total,
        detected=result.status is DeviceStatus.METER_ROLLBACK,
        evidence={"status": result.status.value,
                  "offending_pair": result.offending_pair,
                  "true_total": true_total},
    )


@attack("accounting_noise_injection", expect=(True, False))
def _attack_noise_injection(profile, rng, params) -> dict:
    np_rng = np.random.default_rng(rng.randrange(2**31))
    trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, np_rng, devices=128)
    base_label = classify(trace).label
    flip = classification_flip_point(trace, [0.05, 0.1, 0.2, 0.4, 0.8],
                                     rng_seed=rng.randrange(2**31))
    evaded = flip is not None
    noisy_label = None
    if evaded:
        noisy = classify(inject_noise(trace, flip, np.random.default_rng(1)))
        noisy_label = noisy.label.value
    return dict(
        succeeded=evaded,
        detected=False,  # the classifier raises no alarm; it is simply wrong
        evidence={"base_label": base_label.value, "flip_magnitude": flip,
                  "label_after_noise": noisy_label,
                  "accounting_unaffected": True},
    )


@attack("accounting_fragmentation", expect=(True, False))
def _attack_fragmentation(profile, rng, params) -> dict:
    np_rng = np.random.default_rng(rng.randrange(2**31))
    trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, np_rng, devices=240)
    demo = fragmentation_demo(trace, 4)
    # Accounting still totals the union: chips meter the same operations no
    # matter how the telemetry is reported.
    union_ops = sum(demo.fragment_ops)
    return dict(
        succeeded=demo.evaded,
        detected=False,
        evidence={
            "fragment_labels": [label.value for label in demo.fragment_labels],
            "union_total_ops": union_ops,
            "union_exceeds_threshold": union_ops > DESK_SCALE_THRESHOLD_OPS,
            "per_fragment_totals": demo.fragment_ops,
        },
    )


# -- running -----------------------------------------------------------------------


def run_attack(
    name: str,
    profile: AdversaryProfile,
    seed: int,
    params: Optional[dict] = None,
) -> AttackOutcome:
    """Execute one named attack scenario under the given adversary profile."""
    spec = ATTACKS.get(name)
    if spec is None:
        raise KeyError(f"unknown attack: {name}")
    missing = spec.required - profile.capabilities
    if missing:
        raise ScenarioConfigError(
            f"{name} requires capabilities not granted: {sorted(c.value for c in missing)}"
        )
    return AttackOutcome(name, spec.mechanism,
                         **spec.run_fn(profile, random.Random(seed), params or {}))


def run_matrix(
    profile: AdversaryProfile, seed: int, params: Optional[dict] = None
) -> list[AttackOutcome]:
    """Run every registered attack; the profile must grant every capability."""
    outcomes = []
    for offset, name in enumerate(sorted(ATTACKS)):
        outcomes.append(run_attack(name, profile, seed + offset, params))
    return outcomes


def matrix_report(outcomes: list[AttackOutcome]) -> str:
    """Structured text: one row per attack, with outcome and expectation."""
    lines = ["attack\tmechanism\tsucceeded\tdetected\texpected_succeeded\texpected_detected"]
    for outcome in sorted(outcomes, key=lambda o: o.attack):
        spec = ATTACKS[outcome.attack]
        lines.append(
            f"{outcome.attack}\t{outcome.mechanism}\t{outcome.succeeded}\t"
            f"{outcome.detected}\t{spec.expected_succeeded}\t{spec.expected_detected}"
        )
    return "\n".join(lines) + "\n"


def unexercised_rows() -> list[str]:
    """Inventory rows without a registered scenario."""
    return [name for name in _MECHANISM_OF if name not in ATTACKS]
