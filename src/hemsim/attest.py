"""Verifiable compute accounting and heuristic workload classification.

Chips periodically emit signed snapshots of their cumulative meters; the
verifier checks signatures against the registry, requires gapless strictly
increasing sequence numbers, and requires meters never to step backwards.
Totals are exact deltas (final minus initial) per device, summed per
resource, and compared against a reporting threshold.

Classification is a deliberately simple three-feature rule over telemetry
traces: fleet size, utilization steadiness, and interconnect periodicity.
It is honest about its limits: the evasion helpers exist to demonstrate
that classification can be fooled while accounting still totals correctly.
The attest section and the accounting attack rows share two worlds, each
built here once: `covert_rollback_chain` and `fragmentation_demo`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import canon
from .chipmodel import ChipState, MeterResource, Registry, mint_fleet

SNAPSHOT_TAG = "meter-snapshot.v1"

DEFAULT_SNAPSHOT_PERIOD_MS = 600_000.0  # ten simulated minutes
DESK_SCALE_THRESHOLD_OPS = 10**9


@dataclass(frozen=True)
class MeterSnapshot:
    device_id: int
    sequence_no: int
    rtc_time_ms: int
    meters: tuple[tuple[MeterResource, int], ...]  # all resources, ordinal order
    device_signature: bytes

    def meter(self, resource: MeterResource) -> int:
        for res, value in self.meters:
            if res is resource:
                return value
        raise KeyError(resource)


def snapshot_signed_bytes(
    device_id: int,
    sequence_no: int,
    rtc_time_ms: int,
    meters: tuple[tuple[MeterResource, int], ...],
) -> bytes:
    parts = [canon.u128(device_id), canon.u64(sequence_no), canon.u64(rtc_time_ms),
             canon.u32(len(meters))]
    for resource, value in meters:
        parts.append(canon.u8(resource.ordinal))
        parts.append(canon.u64(value))
    return canon.tagged(SNAPSHOT_TAG, *parts)


def emit_snapshot(chip: ChipState, sequence_no: int) -> MeterSnapshot:
    """Sign the chip's current meters; refused when zeroized."""
    meters = tuple((r, chip.meters.volatile[r]) for r in MeterResource)
    rtc_ms = int(chip.rtc_read())
    signature = chip.sign(
        snapshot_signed_bytes(chip.identity.device_id, sequence_no, rtc_ms, meters)
    )
    return MeterSnapshot(
        device_id=chip.identity.device_id,
        sequence_no=sequence_no,
        rtc_time_ms=rtc_ms,
        meters=meters,
        device_signature=signature,
    )


class DeviceStatus(Enum):
    VERIFIED = "verified"
    UNVERIFIABLE = "unverifiable"  # not in the registry
    BAD_SIGNATURE = "bad_signature"
    SEQUENCE_GAP = "sequence_gap"
    METER_ROLLBACK = "meter_rollback"
    NO_DATA = "no_data"


@dataclass(frozen=True)
class DeviceVerification:
    device_id: int
    status: DeviceStatus
    offending_pair: Optional[tuple[int, int]] = None  # sequence numbers
    detail: str = ""


@dataclass
class AttestReport:
    device_results: list[DeviceVerification]
    totals: dict[MeterResource, int]
    threshold: int
    exceeds_threshold: bool
    incomplete: bool
    no_data: bool


def _verify_device_chain(
    device_id: int,
    snapshots: Sequence[MeterSnapshot],
    registry: Registry,
) -> DeviceVerification:
    key = registry.public_key(device_id)
    if key is None:
        return DeviceVerification(device_id, DeviceStatus.UNVERIFIABLE,
                                  detail="device not in registry")
    if not snapshots:
        return DeviceVerification(device_id, DeviceStatus.NO_DATA)
    ordered = sorted(snapshots, key=lambda s: s.sequence_no)
    for snap in ordered:
        signed = snapshot_signed_bytes(
            snap.device_id, snap.sequence_no, snap.rtc_time_ms, snap.meters
        )
        if snap.device_id != device_id or not canon.verify(key, signed, snap.device_signature):
            return DeviceVerification(
                device_id, DeviceStatus.BAD_SIGNATURE,
                detail=f"snapshot {snap.sequence_no} failed verification",
            )
    for prev, cur in zip(ordered, ordered[1:]):
        gap = cur.sequence_no - prev.sequence_no
        if gap != 1:
            return DeviceVerification(
                device_id, DeviceStatus.SEQUENCE_GAP,
                offending_pair=(prev.sequence_no, cur.sequence_no),
            )
        for resource in MeterResource:
            if cur.meter(resource) < prev.meter(resource):
                return DeviceVerification(
                    device_id, DeviceStatus.METER_ROLLBACK,
                    offending_pair=(prev.sequence_no, cur.sequence_no),
                    detail=resource.value,
                )
    return DeviceVerification(device_id, DeviceStatus.VERIFIED)


def verify_chain(
    snapshots_by_device: dict[int, Sequence[MeterSnapshot]],
    registry: Registry,
    threshold: int = DESK_SCALE_THRESHOLD_OPS,
) -> AttestReport:
    """Validate per-device snapshot chains and total the verified consumption.

    Only devices whose whole chain verifies contribute to totals; any meter
    decrease is named by its offending sequence pair (covert rollbacks are
    exactly what this catches). The threshold decision is taken on total
    operation count.
    """
    results = []
    totals = {r: 0 for r in MeterResource}
    incomplete = False
    any_data = False
    for device_id in sorted(snapshots_by_device):
        snapshots = snapshots_by_device[device_id]
        verification = _verify_device_chain(device_id, snapshots, registry)
        results.append(verification)
        if verification.status is not DeviceStatus.VERIFIED:
            incomplete = True
            continue
        any_data = True
        ordered = sorted(snapshots, key=lambda s: s.sequence_no)
        first, last = ordered[0], ordered[-1]
        for resource in MeterResource:
            totals[resource] += last.meter(resource) - first.meter(resource)
    no_data = not any_data
    total_ops = totals[MeterResource.FLOAT_OPS]
    return AttestReport(
        device_results=results,
        totals=totals,
        threshold=threshold,
        exceeds_threshold=total_ops > threshold,
        incomplete=incomplete,
        no_data=no_data,
    )


def covert_rollback_chain(rng: random.Random) -> tuple[AttestReport, int]:
    """A fresh chip signs a snapshot after each of 4 intervals of 1e6 ops,
    then one more after a covert tamper rolls its meter back by 2e6.

    Returns the verifier's report on that chain and the ops really run.
    """
    _, registry, (chip,) = mint_fleet(rng, 1)
    snapshots = []
    for seq in range(4):
        chip.consume(MeterResource.FLOAT_OPS, 10**6)
        snapshots.append(emit_snapshot(chip, seq))
    chip.tamper_event("meter_rollback", covert=True,
                      resource=MeterResource.FLOAT_OPS, amount=2 * 10**6)
    snapshots.append(emit_snapshot(chip, 4))
    return verify_chain({chip.identity.device_id: snapshots}, registry), 4 * 10**6


# -- workload classification ----------------------------------------------------


class WorkloadLabel(Enum):
    FRONTIER_TRAINING = "frontier_training"
    INFERENCE = "inference"
    NON_AI = "non_ai"
    INDETERMINATE = "indeterminate"


@dataclass
class WorkloadTrace:
    """Per-device telemetry series; rows are devices, columns are steps."""

    utilization: np.ndarray
    interconnect_bytes: np.ndarray
    pcie_bytes: np.ndarray
    step_period_ms: float
    label: Optional[WorkloadLabel] = None  # generator ground truth only

    def __post_init__(self):
        shapes = {self.utilization.shape, self.interconnect_bytes.shape, self.pcie_bytes.shape}
        if len(shapes) != 1 or self.utilization.ndim != 2:
            raise ValueError("trace series must share one (devices, steps) shape")
        if (self.utilization < 0.0).any() or (self.utilization > 1.0).any():
            raise ValueError("utilization must lie in [0, 1]")

    @property
    def device_count(self) -> int:
        return self.utilization.shape[0]

    @property
    def steps(self) -> int:
        return self.utilization.shape[1]


# Desk-scale rule thresholds: illustrative values, not a claim about where
# real frontier training sits.
MIN_DEVICES = 64
UTIL_MEAN_MIN = 0.8
UTIL_STD_MAX = 0.05
AUTOCORR_MIN = 0.6
MAX_LAG = 16
MIN_STEPS = 16
INTERCONNECT_LOW_BYTES = 1e6


@dataclass(frozen=True)
class Classification:
    label: WorkloadLabel
    scores: dict


def _autocorrelation_peak(series: np.ndarray, max_lag: int) -> tuple[float, int]:
    centered = series - series.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return 0.0, 0
    best_value, best_lag = 0.0, 0
    for lag in range(1, min(max_lag, len(series) - 1) + 1):
        value = float(np.dot(centered[:-lag], centered[lag:])) / denom
        if value > best_value:
            best_value, best_lag = value, lag
    return best_value, best_lag


def classify(trace: WorkloadTrace) -> Classification:
    """Three-feature rule: fleet size, steady high utilization, periodic sync.

    All three must fire for frontier training; bursty utilization with low
    interconnect reads as inference; anything else is non-AI. Traces shorter
    than the autocorrelation window are indeterminate.
    """
    fleet_util = trace.utilization.mean(axis=0)
    fleet_interconnect = trace.interconnect_bytes.mean(axis=0)
    scores = {
        "device_count": trace.device_count,
        "util_mean": float(fleet_util.mean()),
        "util_std": float(fleet_util.std()),
        "interconnect_mean_bytes": float(fleet_interconnect.mean()),
        "autocorr_peak": 0.0,
        "autocorr_lag": 0,
    }
    if trace.steps < MIN_STEPS:
        return Classification(WorkloadLabel.INDETERMINATE, scores)
    peak, lag = _autocorrelation_peak(fleet_interconnect, MAX_LAG)
    scores["autocorr_peak"] = peak
    scores["autocorr_lag"] = lag

    fleet_large = trace.device_count >= MIN_DEVICES
    util_steady = (
        scores["util_mean"] >= UTIL_MEAN_MIN
        and scores["util_std"] <= UTIL_STD_MAX
    )
    periodic_sync = peak >= AUTOCORR_MIN and lag >= 1
    scores["fleet_large"] = fleet_large
    scores["util_steady"] = util_steady
    scores["periodic_sync"] = periodic_sync

    if fleet_large and util_steady and periodic_sync:
        return Classification(WorkloadLabel.FRONTIER_TRAINING, scores)
    bursty = scores["util_std"] > UTIL_STD_MAX
    interconnect_low = scores["interconnect_mean_bytes"] < INTERCONNECT_LOW_BYTES
    if bursty and interconnect_low:
        return Classification(WorkloadLabel.INFERENCE, scores)
    return Classification(WorkloadLabel.NON_AI, scores)


# -- trace generation and evasion -----------------------------------------------


GRADIENT_SYNC_BYTES = 2 * 10**9
SYNC_PERIOD_STEPS = 4


def generate_trace(
    label: WorkloadLabel,
    rng: np.random.Generator,
    devices: Optional[int] = None,
    steps: int = 96,
    step_period_ms: float = 1000.0,
) -> WorkloadTrace:
    """Synthesize a labeled telemetry trace from one of three templates."""
    if label is WorkloadLabel.FRONTIER_TRAINING:
        devices = devices or 256
        util = np.clip(rng.normal(0.95, 0.02, size=(devices, steps)), 0.0, 1.0)
        interconnect = np.full((devices, steps), 1e5)
        phase = int(rng.integers(0, SYNC_PERIOD_STEPS))
        sync_steps = (np.arange(steps) % SYNC_PERIOD_STEPS) == phase
        interconnect[:, sync_steps] = GRADIENT_SYNC_BYTES
        pcie = np.full((devices, steps), 1e4)
    elif label is WorkloadLabel.INFERENCE:
        devices = devices or int(rng.integers(1, 9))
        low = rng.uniform(0.02, 0.15, size=(devices, steps))
        high = rng.uniform(0.75, 0.98, size=(devices, steps))
        bursts = rng.random(size=(devices, steps)) < 0.5
        util = np.where(bursts, high, low)
        interconnect = rng.uniform(0.0, 1e4, size=(devices, steps))
        pcie = rng.uniform(0.0, 1e5, size=(devices, steps))
    elif label is WorkloadLabel.NON_AI:
        devices = devices or int(rng.integers(4, 33))
        util = np.clip(rng.normal(0.35, 0.02, size=(devices, steps)), 0.0, 1.0)
        interconnect = rng.uniform(0.0, 1e4, size=(devices, steps))
        pcie = rng.uniform(0.0, 1e6, size=(devices, steps))
    else:
        raise ValueError(f"no generator template for {label}")
    return WorkloadTrace(util, interconnect, pcie, step_period_ms, label=label)


def inject_noise(trace: WorkloadTrace, magnitude: float, rng: np.random.Generator) -> WorkloadTrace:
    """Add irrelevant activity to blur the classifier's features.

    Extra utilization and unsynchronized interconnect chatter raise the
    utilization spread and drown the periodicity peak. The underlying work
    (and therefore metered consumption) only grows; accounting is unmoved.
    """
    if magnitude < 0.0:
        raise ValueError("noise magnitude must be nonnegative")
    if magnitude == 0.0:
        return WorkloadTrace(
            trace.utilization.copy(), trace.interconnect_bytes.copy(),
            trace.pcie_bytes.copy(), trace.step_period_ms, label=trace.label,
        )
    shape = trace.utilization.shape
    util = np.clip(
        trace.utilization + rng.uniform(-magnitude, magnitude, size=shape), 0.0, 1.0
    )
    chatter = rng.uniform(0.0, magnitude * GRADIENT_SYNC_BYTES, size=shape)
    interconnect = trace.interconnect_bytes + chatter
    return WorkloadTrace(util, interconnect, trace.pcie_bytes.copy(),
                         trace.step_period_ms, label=trace.label)


def fragment(trace: WorkloadTrace, k: int) -> list[WorkloadTrace]:
    """Split one logical run into k device groups reported separately.

    Each fragment looks like a smaller fleet to the classifier, while the
    union of the fragments carries exactly the original activity.
    """
    if not 1 <= k <= trace.device_count:
        raise ValueError("k must be between 1 and the device count")
    splits = np.array_split(np.arange(trace.device_count), k)
    return [
        WorkloadTrace(
            trace.utilization[idx], trace.interconnect_bytes[idx],
            trace.pcie_bytes[idx], trace.step_period_ms, label=trace.label,
        )
        for idx in splits
    ]


def metered_ops(trace: WorkloadTrace) -> int:
    """Float ops the trace's chips meter (1e7 per device-step at full
    utilization), whoever reports the telemetry."""
    return int(trace.utilization.sum() * 10**7)


@dataclass(frozen=True)
class FragmentationDemo:
    whole_label: WorkloadLabel
    fragment_labels: list[WorkloadLabel]
    fragment_ops: list[int]
    evaded: bool


def fragmentation_demo(trace: WorkloadTrace, k: int) -> FragmentationDemo:
    """Report one run as `k` fragments: what the classifier and the meters see.

    Evasion holds when the whole run reads as frontier training and no
    fragment does. The fragments' metered ops still sum to the whole run's.
    """
    fragments = fragment(trace, k)
    whole_label = classify(trace).label
    fragment_labels = [classify(f).label for f in fragments]
    evaded = (whole_label is WorkloadLabel.FRONTIER_TRAINING
              and all(label is not WorkloadLabel.FRONTIER_TRAINING for label in fragment_labels))
    return FragmentationDemo(whole_label, fragment_labels,
                             [metered_ops(f) for f in fragments], evaded)


def classification_flip_point(
    trace: WorkloadTrace,
    magnitudes: Sequence[float],
    rng_seed: int,
) -> Optional[float]:
    """Smallest swept noise magnitude that changes the assigned label."""
    base = classify(trace).label
    for magnitude in sorted(magnitudes):
        rng = np.random.default_rng(rng_seed)
        perturbed = inject_noise(trace, magnitude, rng)
        if classify(perturbed).label is not base:
            return magnitude
    return None
