"""Verifiable compute accounting and heuristic workload classification.

Chips periodically emit signed snapshots of their cumulative meters as wire
bytes, each numbered by the chip's own counter; the verifier decodes each,
checks signatures against the registry, requires gapless strictly increasing
sequence numbers, and requires meters never to step backwards.
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
from .chipmodel import RESOURCE, ChipState, MeterResource, Registry, mint_fleet

SNAPSHOT = canon.Doc("meter-snapshot.v1", device_id=canon.U128, sequence_no=canon.U64,
                     rtc_time_ms=canon.U64, meters=canon.mapping(RESOURCE, canon.U64))
MeterSnapshot = SNAPSHOT.record  # a snapshot's fields, as the verifier holds them decoded

DEFAULT_SNAPSHOT_PERIOD_MS = 600_000.0  # ten simulated minutes
DESK_SCALE_THRESHOLD_OPS = 10**9


def emit_snapshot(chip: ChipState) -> bytes:
    """Sign the chip's current meters under its next sequence number; returns
    wire bytes. Refused when zeroized, and a refusal uses up no number."""
    wire = SNAPSHOT.wire(chip.sign, device_id=chip.device_id,
                         sequence_no=chip.next_sequence_no, rtc_time_ms=int(chip.rtc_read()),
                         meters=chip.meters.volatile)
    chip.next_sequence_no += 1
    return wire


class DeviceStatus(Enum):
    VERIFIED = "verified"
    UNVERIFIABLE = "unverifiable"  # not in the registry
    BAD_SIGNATURE = "bad_signature"
    SEQUENCE_GAP = "sequence_gap"
    METER_ROLLBACK = "meter_rollback"
    NO_DATA = "no_data"
    MALFORMED = "malformed"  # a snapshot that does not decode, or leaves out a meter


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
    exceeds_threshold: bool
    incomplete: bool


def _verify_device_chain(
    device_id: int,
    wires: Sequence[bytes],
    registry: Registry,
) -> tuple[DeviceVerification, list[MeterSnapshot]]:
    """The device's verdict and, when verified, its snapshots in sequence order.

    Every wire is decoded before any signature is checked, and each signature
    is checked over the wire's own signed bytes.
    """
    key = registry.get(device_id)
    if key is None:
        return DeviceVerification(device_id, DeviceStatus.UNVERIFIABLE,
                                  detail="device not in registry"), []
    if not wires:
        return DeviceVerification(device_id, DeviceStatus.NO_DATA), []
    decoded = []
    for wire in wires:
        try:
            fields, signed, signature = SNAPSHOT.decode(wire)
            if len(fields["meters"]) != len(MeterResource):
                raise canon.EncodingError("snapshot leaves out a meter")
        except canon.EncodingError as exc:
            return DeviceVerification(device_id, DeviceStatus.MALFORMED, detail=str(exc)), []
        decoded.append((SNAPSHOT.record(**fields), signed, signature))
    decoded.sort(key=lambda d: d[0].sequence_no)
    for snap, signed, signature in decoded:
        if snap.device_id != device_id or not canon.verify(key, signed, signature):
            return DeviceVerification(
                device_id, DeviceStatus.BAD_SIGNATURE,
                detail=f"snapshot {snap.sequence_no} failed verification",
            ), []
    ordered = [snap for snap, _, _ in decoded]
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.sequence_no - prev.sequence_no != 1:
            return DeviceVerification(
                device_id, DeviceStatus.SEQUENCE_GAP,
                offending_pair=(prev.sequence_no, cur.sequence_no),
            ), []
        for resource in MeterResource:
            if cur.meters[resource] < prev.meters[resource]:
                return DeviceVerification(
                    device_id, DeviceStatus.METER_ROLLBACK,
                    offending_pair=(prev.sequence_no, cur.sequence_no),
                    detail=resource.value,
                ), []
    return DeviceVerification(device_id, DeviceStatus.VERIFIED), ordered


def verify_chain(
    snapshots_by_device: dict[int, Sequence[bytes]],
    registry: Registry,
    threshold: int = DESK_SCALE_THRESHOLD_OPS,
) -> AttestReport:
    """Validate per-device chains of snapshot wires and total the verified consumption.

    Only devices whose whole chain verifies contribute to totals; any meter
    decrease is named by its offending sequence pair (covert rollbacks are
    exactly what this catches). The threshold decision is taken on total
    operation count.
    """
    results = []
    totals = {r: 0 for r in MeterResource}
    incomplete = False
    for device_id in sorted(snapshots_by_device):
        verification, ordered = _verify_device_chain(
            device_id, snapshots_by_device[device_id], registry)
        results.append(verification)
        if verification.status is not DeviceStatus.VERIFIED:
            incomplete = True
            continue
        first, last = ordered[0], ordered[-1]
        for resource in MeterResource:
            totals[resource] += last.meters[resource] - first.meters[resource]
    return AttestReport(results, totals, incomplete=incomplete,
                        exceeds_threshold=totals[MeterResource.FLOAT_OPS] > threshold)


def covert_rollback_chain(rng: random.Random) -> tuple[AttestReport, int]:
    """A fresh chip signs a snapshot after each of 4 intervals of 1e6 ops,
    then one more after a covert tamper rolls its meter back by 2e6.

    Returns the verifier's report on that chain and the ops really run.
    """
    _, registry, (chip,) = mint_fleet(rng, 1)
    snapshots = []
    for _ in range(4):
        chip.consume(MeterResource.FLOAT_OPS, 10**6)
        snapshots.append(emit_snapshot(chip))
    chip.tamper_event("meter_rollback", covert=True,
                      resource=MeterResource.FLOAT_OPS, amount=2 * 10**6)
    snapshots.append(emit_snapshot(chip))
    return verify_chain({chip.device_id: snapshots}, registry), 4 * 10**6


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


def _autocorrelation_peak(series: np.ndarray, max_lag: int) -> float:
    """The largest autocorrelation of `series` at lags 1 to `max_lag`; 0
    for a constant series."""
    centered = series - series.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return 0.0
    return max(float(np.dot(centered[:-lag], centered[lag:])) / denom
               for lag in range(1, min(max_lag, len(series) - 1) + 1))


def classify(trace: WorkloadTrace) -> WorkloadLabel:
    """Three-feature rule: fleet size, steady high utilization, periodic sync.

    All three must fire for frontier training; bursty utilization with low
    interconnect reads as inference; anything else is non-AI. Traces shorter
    than the autocorrelation window are indeterminate.
    """
    if trace.steps < MIN_STEPS:
        return WorkloadLabel.INDETERMINATE
    fleet_util = trace.utilization.mean(axis=0)
    fleet_interconnect = trace.interconnect_bytes.mean(axis=0)
    util_std = float(fleet_util.std())
    fleet_large = trace.device_count >= MIN_DEVICES
    util_steady = fleet_util.mean() >= UTIL_MEAN_MIN and util_std <= UTIL_STD_MAX
    periodic_sync = _autocorrelation_peak(fleet_interconnect, MAX_LAG) >= AUTOCORR_MIN
    if fleet_large and util_steady and periodic_sync:
        return WorkloadLabel.FRONTIER_TRAINING
    if util_std > UTIL_STD_MAX and fleet_interconnect.mean() < INTERCONNECT_LOW_BYTES:
        return WorkloadLabel.INFERENCE
    return WorkloadLabel.NON_AI


# -- trace generation and evasion -----------------------------------------------


GRADIENT_SYNC_BYTES = 2 * 10**9
SYNC_PERIOD_STEPS = 4


def generate_trace(
    label: WorkloadLabel,
    rng: np.random.Generator,
    devices: Optional[int] = None,
    steps: int = 96,
) -> WorkloadTrace:
    """Synthesize a telemetry trace from the template for `label`, one of three."""
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
    return WorkloadTrace(util, interconnect, pcie)


def inject_noise(trace: WorkloadTrace, magnitude: float, rng: np.random.Generator) -> WorkloadTrace:
    """Add irrelevant activity to blur the classifier's features.

    Extra utilization and unsynchronized interconnect chatter raise the
    utilization spread and drown the periodicity peak. The underlying work
    (and therefore metered consumption) only grows; accounting is unmoved.
    """
    if magnitude < 0.0:
        raise ValueError("noise magnitude must be nonnegative")
    shape = trace.utilization.shape
    util = np.clip(
        trace.utilization + rng.uniform(-magnitude, magnitude, size=shape), 0.0, 1.0
    )
    chatter = rng.uniform(0.0, magnitude * GRADIENT_SYNC_BYTES, size=shape)
    interconnect = trace.interconnect_bytes + chatter
    return WorkloadTrace(util, interconnect, trace.pcie_bytes.copy())


def fragment(trace: WorkloadTrace, k: int) -> list[WorkloadTrace]:
    """Split one logical run into k device groups reported separately.

    Each fragment looks like a smaller fleet to the classifier, while the
    union of the fragments carries exactly the original activity.
    """
    if not 1 <= k <= trace.device_count:
        raise ValueError("k must be between 1 and the device count")
    splits = np.array_split(np.arange(trace.device_count), k)
    return [
        WorkloadTrace(trace.utilization[idx], trace.interconnect_bytes[idx], trace.pcie_bytes[idx])
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
    whole_label = classify(trace)
    fragment_labels = [classify(f) for f in fragments]
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
    base = classify(trace)
    for magnitude in sorted(magnitudes):
        rng = np.random.default_rng(rng_seed)
        perturbed = inject_noise(trace, magnitude, rng)
        if classify(perturbed) is not base:
            return magnitude
    return None
