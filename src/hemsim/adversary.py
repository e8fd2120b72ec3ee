"""Adversary tiers, capabilities, and the scripted attack rows.

Each named attack against the four mechanisms is a self-contained scenario:
it builds a small world from a seed, runs the adversary's script, and
reports whether the adversary's goal predicate held and whether any defense
flagged the attempt. The registry also records the expected outcome either
way, because the claims are falsifiable in both directions: defenses must
hold where they are designed to hold, and attacks the design concedes
(key-extraction relay, workload shaping) must actually succeed.

Each attack row is one declaration: the `@attack` decorator on a function
named after the row, whose first word is the mechanism it targets
(accounting, cluster, geoloc or licensing). A row judges a region only
through `estimate_cbg` or `estimate_bft`, never through `GridSpec`'s
kernels.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

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
    ConsumeResult,
    MeterResource,
    ThrottleLevel,
    extract_signing_oracle,
    mint_fleet,
    provision_chip,
)
from .cluster import (
    DIRECT_INTERCONNECT_BYTES_PER_MS,
    HandshakeReject,
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
    estimate_bft,
    estimate_cbg,
    synthesize_round,
)
from .licensing import (
    IssuerState,
    RejectReason,
    fuzz_licenses,
    install,
    make_issuer,
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
    """The attacker: the capabilities it may use and how hard each row tries."""

    capabilities: frozenset[Capability]
    latency_factor: float                # for delay_speedup
    counterfeit_trials: int              # for the counterfeit-license row


def profile_for_tier(tier: Tier, **strength) -> AdversaryProfile:
    return AdversaryProfile(TIER_CAPABILITIES[tier], **strength)


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
    mechanism: str
    required: frozenset[Capability]
    expected_succeeded: bool
    expected_detected: bool
    # (profile, rng) -> {"succeeded", "detected", "evidence"}
    run_fn: Callable[[AdversaryProfile, random.Random], dict] = field(repr=False, compare=False)


ATTACKS: dict[str, AttackSpec] = {}


def attack(*, expect: tuple[bool, bool], required=frozenset()):
    """Register the decorated body as the attack row named after it.

    The row's mechanism is the first word of its name. `expect` is
    (succeeded, detected) as the design claims it; `required` are the
    capabilities `run_attack` demands of the profile.
    """
    def register(fn):
        name = fn.__name__
        if name in ATTACKS:
            raise ValueError(f"attack registered twice: {name}")
        ATTACKS[name] = AttackSpec(name.partition("_")[0], frozenset(required), *expect, fn)
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
    lic = issuer.issue(chip.device_id, {MeterResource.CLOCK_CYCLES: quota})
    _require(install(chip, lic).accepted, "genuine license install")
    return issuer, chip, lic


def _link(jitter_median_ms: float) -> LatencyModel:
    """Every row's medium: the default speed and jitter spread, the rows'
    per-leg processing delay, and the row's jitter median."""
    return LatencyModel(jitter_median_ms=jitter_median_ms, fixed_overhead_ms=0.5)


def _landmark_ring(n: int, jitter_median_ms: float) -> list[Landmark]:
    """Fixed dispersed geometry so each matrix row is seed-robust: n landmarks
    9 degrees around (10, 10), calibrated on `_link(jitter_median_ms)`."""
    link = _link(jitter_median_ms)
    return [
        Landmark(
            f"lm{i}",
            GeoPoint(10.0 + 9.0 * math.sin(2 * math.pi * i / n),
                     10.0 + 9.0 * math.cos(2 * math.pi * i / n)),
            link,
        )
        for i in range(n)
    ]


# The schema's default `geoloc.region`, at `DEFAULT_GRID_RESOLUTION_DEG`.
_GRID = GridSpec(lat_min=-5.0, lat_max=25.0, lon_min=-5.0, lon_max=25.0)


# -- licensing attacks -------------------------------------------------------------


@attack(expect=(False, True), required={Capability.COUNTERFEIT_LICENSE})
def licensing_counterfeit(profile, rng) -> dict:
    trials = profile.counterfeit_trials
    issuer, chip, _ = _licensed_chip(rng, quota=10**6)
    acceptances, refusals = fuzz_licenses(issuer, [chip], trials, rng)
    return dict(
        succeeded=acceptances > 0,
        detected=acceptances < trials,  # rejections are visible events
        evidence={"trials": trials, "acceptances": acceptances, "refusals": refusals},
    )


@attack(expect=(False, True), required={Capability.REPLAY_LICENSE})
def licensing_replay(profile, rng) -> dict:
    issuer, chip, lic = _licensed_chip(rng, quota=1000)
    chip.consume(MeterResource.CLOCK_CYCLES, 1000)  # exhaust the grant
    rejections = []
    for _ in range(50):
        rejections.append(install(chip, lic).reason)
    return dict(
        succeeded=any(r is None for r in rejections),
        detected=all(r is RejectReason.STALE_ID for r in rejections),
        evidence={"attempts": len(rejections)},
    )


@attack(expect=(False, True), required={Capability.CROSS_DEVICE_LICENSE})
def licensing_cross_device(profile, rng) -> dict:
    issuer = make_issuer(rng)
    chip_a = provision_chip(rng, frozenset({issuer.public_key}))
    chip_b = provision_chip(rng, frozenset({issuer.public_key}))
    lic_a = issuer.issue(chip_a.device_id, {MeterResource.CLOCK_CYCLES: 10**6})
    result = install(chip_b, lic_a)
    return dict(
        succeeded=result.accepted,
        detected=result.reason is RejectReason.WRONG_DEVICE,
        evidence={"reason": result.reason.value if result.reason else None},
    )


@attack(expect=(False, True))
def licensing_host_clock_rollback(profile, rng) -> dict:
    issuer = make_issuer(rng)
    chip = provision_chip(rng, frozenset({issuer.public_key}))
    chip.advance_to(50_000.0)
    # A license that expired long ago, offered by a host that turns time back.
    not_after = 10_000
    expired = issuer.issue(chip.device_id, {MeterResource.CLOCK_CYCLES: 10**6},
                           not_after=not_after)
    chip.advance_to(0.0)
    result = install(chip, expired)
    return dict(
        succeeded=result.accepted,
        detected=result.reason is RejectReason.EXPIRED,
        evidence={"chip_rtc_ms": chip.rtc_read(), "not_after": not_after,
                  "reason": result.reason.value if result.reason else None},
    )


@attack(expect=(True, True), required={Capability.COVERT_TAMPER})
def licensing_meter_rollback(profile, rng) -> dict:
    quota = 10_000
    issuer, chip, lic = _licensed_chip(rng, quota=quota)
    registry = {chip.device_id: chip.public_key}
    snapshots = [emit_snapshot(chip, 0)]
    true_consumed = 0
    # Burn most of the quota, roll the meter back covertly at seq 4, keep consuming.
    for seq in range(1, 8):
        if seq == 4:
            chip.tamper_event("meter_rollback", covert=True,
                              resource=MeterResource.CLOCK_CYCLES, amount=8000)
        elif chip.consume(MeterResource.CLOCK_CYCLES, 3000) is ConsumeResult.APPLIED:
            true_consumed += 3000
        snapshots.append(emit_snapshot(chip, seq))
    overdraft = max(0, true_consumed - quota)
    report = verify_chain({chip.device_id: snapshots}, registry)
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


@attack(expect=(False, True), required={Capability.POWER_CUT_TIMING})
def licensing_power_cut_rollback(profile, rng) -> dict:
    issuer, chip, lic = _licensed_chip(rng, quota=500)
    chip.consume(MeterResource.CLOCK_CYCLES, 500)
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


@attack(expect=(False, True))
def licensing_quota_overrun(profile, rng) -> dict:
    # Any host can ask a licensed chip for work: five quotas at once, then five in steps.
    quota = 1000
    _, chip, _ = _licensed_chip(rng, quota=quota)
    asks = [5 * quota]
    while sum(asks) < 10 * quota:
        asks.append(rng.randint(1, quota // 4))
    results = [chip.consume(MeterResource.CLOCK_CYCLES, amount) for amount in asks]
    consumed = chip.consumed_since_install(MeterResource.CLOCK_CYCLES)
    refusals = Counter(r.value for r in results if r is not ConsumeResult.APPLIED)
    return dict(
        succeeded=consumed > quota,
        detected=bool(refusals),
        evidence={"quota": quota, "asked": sum(asks), "consumed": consumed,
                  "requests": len(asks), "refusals": dict(refusals)},
    )


@attack(expect=(True, True), required={Capability.FIRMWARE_MOD})
def licensing_throttle_bypass(profile, rng) -> dict:
    _, registry, (chip, peer) = _pod_world(rng, 2)
    chip.throttle = ThrottleLevel.DISABLED  # never licensed
    throttled = chip.consume(MeterResource.CLOCK_CYCLES, 100)
    # Modified firmware ignores the throttle: meters move despite the
    # disabled state the license state machine mandates.
    chip.tamper_event("firmware_mod", covert=True)
    chip.meters.increment(MeterResource.CLOCK_CYCLES, 10**6)
    unlicensed_use = chip.meter_value(MeterResource.CLOCK_CYCLES)
    # The pod integrity check catches the patched firmware at the next
    # handshake against the regulator-signed manifest of genuine hashes.
    result = handshake(0.0, peer, chip, registry, rng, itertools.count())
    return dict(
        succeeded=unlicensed_use > 0,
        detected=result.reason is HandshakeReject.FIRMWARE_MISMATCH
        and chip.self_disabled,
        evidence={"honest_consume_throttled": throttled.value,
                  "unlicensed_cycles": unlicensed_use,
                  "handshake_reason": result.reason.value if result.reason else None},
    )


# -- cluster attacks ---------------------------------------------------------------


def _pod_world(rng, n_chips):
    """`mint_fleet` with every chip in one pod, under an adopted manifest
    of the genuine firmware that the regulator signed."""
    regulator, registry, chips = mint_fleet(rng, n_chips)
    genuine = {chip.device_id: chip.firmware_hash for chip in chips}
    manifest = issue_manifest(regulator, "pod-0", genuine, manifest_epoch=0)
    for chip in chips:
        _require(adopt_manifest(chip, manifest), "genuine manifest adoption")
    return regulator, registry, chips


@attack(expect=(False, True), required={Capability.FIRMWARE_MOD})
def cluster_pod_firmware_mod(profile, rng) -> dict:
    _, registry, (a, b) = _pod_world(rng, 2)
    b.tamper_event("firmware_mod", covert=True)
    result = handshake(0.0, a, b, registry, rng, itertools.count())
    return dict(
        succeeded=result.accepted,
        detected=result.reason is HandshakeReject.FIRMWARE_MISMATCH and b.self_disabled,
        evidence={"reason": result.reason.value if result.reason else None,
                  "member_self_disabled": b.self_disabled},
    )


@attack(expect=(False, True), required={Capability.FIRMWARE_MOD})
def cluster_self_disable_relicense(profile, rng) -> dict:
    # A member that caught its own patched firmware is offered a genuine license.
    regulator, registry, (a, b) = _pod_world(rng, 2)
    b.tamper_event("firmware_mod", covert=True)
    handshake(0.0, a, b, registry, rng, itertools.count())
    _require(b.self_disabled, "firmware self-disable")
    lic = IssuerState(regulator).issue(b.device_id, {MeterResource.CLOCK_CYCLES: 10**6})
    _require(install(b, lic).accepted, "genuine license install")
    result = b.consume(MeterResource.CLOCK_CYCLES, 1000)
    return dict(
        succeeded=result is ConsumeResult.APPLIED,
        detected=result is not ConsumeResult.APPLIED,
        evidence={"consume": result.value, "throttle": b.throttle.value},
    )


@attack(expect=(False, True))
def cluster_cap_forge(profile, rng) -> dict:
    regulator, registry, (chip,) = mint_fleet(rng, 1)
    genuine = issue_cap_policy(regulator, cap=4, cap_epoch=1)
    _require(apply_cap_update(chip, genuine), "genuine cap policy adoption")
    rogue = canon.generate_keypair(rng.randbytes(32))
    forged_raise = issue_cap_policy(rogue, cap=1024, cap_epoch=2)
    replayed = issue_cap_policy(regulator, cap=64, cap_epoch=0)
    adopted_forged = apply_cap_update(chip, forged_raise)
    adopted_replay = apply_cap_update(chip, replayed)
    return dict(
        succeeded=adopted_forged or adopted_replay,
        detected=not adopted_forged and not adopted_replay,
        evidence={"cap_after": chip.adopted_cap(), "cap_epoch_after": chip.cap_policy.cap_epoch},
    )


@attack(expect=(False, True))
def cluster_manifest_forge(profile, rng) -> dict:
    regulator, registry, (member, peer, outsider) = mint_fleet(rng, 3)
    pod = {c.device_id: c.firmware_hash for c in (member, peer)}
    _require(adopt_manifest(member, issue_manifest(regulator, "pod-0", pod, manifest_epoch=0)),
             "genuine manifest adoption")
    # The outsider is a genuine member of another pod.
    own = issue_manifest(regulator, "pod-1", {outsider.device_id: outsider.firmware_hash},
                         manifest_epoch=0)
    _require(adopt_manifest(outsider, own), "genuine manifest adoption")
    rogue = canon.generate_keypair(rng.randbytes(32))
    forged = issue_manifest(rogue, "pod-0",
                            {**pod, outsider.device_id: outsider.firmware_hash},
                            manifest_epoch=1)
    adopted = adopt_manifest(member, forged)
    result = handshake(0.0, member, outsider, registry, rng, itertools.count())
    return dict(
        succeeded=adopted or result.accepted,
        detected=not adopted and result.reason is HandshakeReject.NOT_IN_POD,
        evidence={"forged_adopted": adopted,
                  "member_epoch": member.pod_manifest.manifest_epoch,
                  "handshake_reason": result.reason.value if result.reason else None},
    )


@attack(expect=(True, True), required={Capability.PCIE_BRIDGE})
def cluster_pcie_bridge(profile, rng) -> dict:
    regulator, registry, (a, b) = mint_fleet(rng, 2)
    events = [bridge_transfer(step * 100.0, a, b, 10**9) for step in range(5)]
    moved = sum(event.n_bytes for event in events)
    direct_ms = 10**9 / DIRECT_INTERCONNECT_BYTES_PER_MS
    return dict(
        succeeded=moved == 5 * 10**9,
        detected=a.meter_value(MeterResource.PCIE_TRANSFER_BYTES) == moved,
        evidence={
            "bytes_moved": moved,
            "latency_penalty": events[0].transit_ms / direct_ms,
            "pcie_meter_a": a.meter_value(MeterResource.PCIE_TRANSFER_BYTES),
            "pcie_meter_b": b.meter_value(MeterResource.PCIE_TRANSFER_BYTES),
        },
    )


@attack(expect=(True, True), required={Capability.GRADIENT_SMUGGLE, Capability.PCIE_BRIDGE})
def cluster_gradient_smuggle(profile, rng) -> dict:
    regulator, registry, chips = mint_fleet(rng, 8)
    pod_of = {chip.device_id: "pod-a" if i < 4 else "pod-b" for i, chip in enumerate(chips)}
    bridge_a, bridge_b = chips[3], chips[4]  # one compromised device per pod
    step_ms = 1000.0
    gradient_bytes = 2 * 10**9
    events = [bridge_transfer(step * step_ms + 500.0, bridge_a, bridge_b, gradient_bytes)
              for step in range(12)]
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


@attack(expect=(False, False), required={Capability.DELAY_SLOWDOWN})
def geoloc_delay_slowdown(profile, rng) -> dict:
    landmarks = _landmark_ring(6, 0.2)
    truth = GeoPoint(11.0, 9.0)
    honest = synthesize_round(rng, landmarks, truth)
    baseline = estimate_cbg(honest, _GRID)
    slowed = [replace(m, rtt_ms=m.rtt_ms + rng.uniform(5.0, 30.0)) for m in honest]
    attacked = estimate_cbg(slowed, _GRID)
    return dict(
        succeeded=not attacked.contains(truth),  # goal: evict the truth
        detected=attacked.inconsistent,
        evidence={
            "region_cells_honest": baseline.cell_count(),
            "region_cells_attacked": attacked.cell_count(),
            "uncertainty_grew": attacked.cell_count() > baseline.cell_count(),
        },
    )


@attack(expect=(False, True), required={Capability.DELAY_SPEEDUP})
def geoloc_delay_speedup(profile, rng) -> dict:
    landmarks = _landmark_ring(5, 0.1)
    truth = GeoPoint(11.0, 9.0)
    ms = synthesize_round(rng, landmarks, truth, speedup={"lm0": profile.latency_factor})
    est = estimate_cbg(ms, _GRID)
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


@attack(expect=(False, True), required={Capability.COMPROMISE_LANDMARKS})
def geoloc_landmark_compromise(profile, rng) -> dict:
    f = 2
    landmarks = _landmark_ring(7, 0.2)
    truth = GeoPoint(11.0, 9.0)
    # Two ring landmarks lie hard, reporting the chip nearly on top of them.
    liars = [lm.id for lm in landmarks[:f]]
    ms = [
        replace(m, rtt_ms=m.rtt_ms * 0.1) if m.landmark.id in liars else m
        for m in synthesize_round(rng, landmarks, truth)
    ]
    est = estimate_bft(ms, _GRID, f=f)
    # A liar stands out by impossible timing, or by a region of its own that
    # misses the whole surviving one.
    outliers = []
    for m in ms:
        own = estimate_cbg([m], _GRID)
        if own.floor_violations or (est.mask.any() and not (own.mask & est.mask).any()):
            outliers.append(m.landmark.id)
    return dict(
        succeeded=not est.contains(truth),
        detected=len(outliers) > 0,
        evidence={"compromised": liars,
                  "flagged_outliers": outliers,
                  "truth_contained": est.contains(truth)},
    )


def _challenge(rng, registry, chip, sign_fn, landmarks, responder: Node,
               downed: int = 0, timeout_ms: float = 5000.0):
    """One `challenge_round` from `landmarks` to `responder`, which answers
    with `sign_fn` for `chip`, over the landmarks' link; `downed` landmarks,
    sampled from `rng`, never receive a message."""
    net = Network([*(Node(lm.id, lm.position) for lm in landmarks), responder],
                  default_latency=landmarks[0].link)
    net.unreachable.update(lm.id for lm in rng.sample(landmarks, downed))
    sim = Simulator(seed=rng.randrange(2**31))
    return challenge_round(sim, net, landmarks, chip.device_id, responder.id,
                           sign_fn, registry, timeout_ms)


@attack(expect=(False, True), required={Capability.DDOS_LANDMARKS})
def geoloc_landmark_ddos(profile, rng) -> dict:
    _, registry, (chip,) = mint_fleet(rng, 1)
    landmarks = _landmark_ring(7, 0.2)
    truth = GeoPoint(11.0, 9.0)
    ms = _challenge(rng, registry, chip, chip.sign, landmarks, Node("chip", truth),
                    downed=2, timeout_ms=500.0)
    est = estimate_cbg(ms, _GRID)
    missing = [m.landmark.id for m in ms if m.rtt_ms is None]
    return dict(
        succeeded=not est.contains(truth),
        detected=len(missing) > 0,
        evidence={"missing": missing, "usable": sum(1 for m in ms if m.verified)},
    )


@attack(expect=(True, False), required={Capability.KEY_EXTRACTION})
def geoloc_key_extraction_relay(profile, rng) -> dict:
    _, registry, (chip,) = mint_fleet(rng, 1)
    oracle = extract_signing_oracle(chip)
    truth = GeoPoint(20.0, 20.0)        # where the chip really sits
    relay_site = GeoPoint(2.0, 2.0)     # where the relay answers from
    link = _link(0.1)
    landmarks = [
        Landmark("lm0", GeoPoint(0.0, 0.0), link),
        Landmark("lm1", GeoPoint(0.0, 8.0), link),
        Landmark("lm2", GeoPoint(8.0, 4.0), link),
    ]
    ms = _challenge(rng, registry, chip, oracle, landmarks, Node("relay", relay_site))
    est = estimate_cbg(ms, _GRID)
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


@attack(expect=(False, True), required={Capability.COVERT_TAMPER})
def accounting_meter_tamper(profile, rng) -> dict:
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


@attack(expect=(True, False))
def accounting_noise_injection(profile, rng) -> dict:
    np_rng = np.random.default_rng(rng.randrange(2**31))
    trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, np_rng, devices=128)
    base_label = classify(trace)
    flip = classification_flip_point(trace, [0.05, 0.1, 0.2, 0.4, 0.8],
                                     rng_seed=rng.randrange(2**31))
    evaded = flip is not None
    noisy_label = None
    if evaded:
        noisy_label = classify(inject_noise(trace, flip, np.random.default_rng(1))).value
    return dict(
        succeeded=evaded,
        detected=False,  # the classifier raises no alarm; it is simply wrong
        evidence={"base_label": base_label.value, "flip_magnitude": flip,
                  "label_after_noise": noisy_label,
                  "accounting_unaffected": True},
    )


@attack(expect=(True, False))
def accounting_fragmentation(profile, rng) -> dict:
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


def run_attack(name: str, profile: AdversaryProfile, seed: int) -> AttackOutcome:
    """Execute one named attack under the profile: the one capability gate."""
    spec = ATTACKS.get(name)
    if spec is None:
        raise KeyError(f"unknown attack: {name}")
    missing = spec.required - profile.capabilities
    if missing:
        raise ScenarioConfigError(
            f"{name} requires capabilities not granted: {sorted(c.value for c in missing)}"
        )
    # Seeded from the row's own name, so adding a row reseeds no other; a str
    # seed is hashed with SHA-512, the same in every process.
    rng = random.Random(f"{seed}:{name}")
    return AttackOutcome(name, spec.mechanism, **spec.run_fn(profile, rng))


def run_matrix(profile: AdversaryProfile, seed: int) -> list[AttackOutcome]:
    """Run every registered attack; the profile must grant every capability."""
    return [run_attack(name, profile, seed) for name in sorted(ATTACKS)]


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

