"""Authenticated chip interconnect: fixed pods and adjustable peer caps.

Chips mutually authenticate before any data moves: each side signs the
peer's nonce with its device key and the claimed device id is checked
against the verifier registry. Two enforcement regimes gate the session:
pod membership with firmware integrity (fixed set), or a regulator-signed
cap on concurrently authenticated peers (adjustable cap). A chip's regime is
what it has itself verified and adopted from wire bytes - a pod manifest
(`adopt_manifest`), a cap policy (`apply_cap_update`), or both - and each
endpoint of a handshake enforces its own; the caller passes no regime, and
no session id or time. A `Session` holds its two chips as its ends and is
open while both hold it in their `sessions` tables, kept in admission order,
so closing one needs nothing but the session.
The module also models the two circumvention routes named for these regimes -
PCIe-bridged transfers through a host, and gradient smuggling between pods
- plus an offline detector that flags periodic inter-pod traffic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from . import canon
from .chipmodel import (
    ChipState,
    ConsumeResult,
    MeterResource,
    Registry,
    ZeroizedError,
)

MANIFEST = canon.Doc("pod-manifest.v1", pod_id=canon.TEXT, manifest_epoch=canon.U64,
                     members=canon.mapping(canon.U128, canon.BLOB))
# The exact float the chips enforce is signed, not a rounded copy of it.
CAP_POLICY = canon.Doc("cap-policy.v2", cap=canon.U32, cap_epoch=canon.U64,
                       check_period_ms=canon.F64)
SESSION_AUTH = canon.Doc("session-auth.v1", signer=canon.U128, peer=canon.U128,
                         nonce=canon.BLOB)
# A document's fields, as a chip that adopted it holds them.
PodManifest = MANIFEST.record
CapPolicy = CAP_POLICY.record

DEFAULT_CHECK_PERIOD_MS = 60_000.0
DEFAULT_BRIDGE_MULTIPLIER = 5.0
# Direct interconnect moves 1e8 bytes per simulated ms (100 GB/s class links).
DIRECT_INTERCONNECT_BYTES_PER_MS = 1e8


def issue_manifest(
    regulator: canon.KeyPair,
    pod_id: str,
    members: dict[int, bytes],
    manifest_epoch: int,
) -> bytes:
    """Sign a pod manifest; returns its wire bytes."""
    return MANIFEST.wire(regulator.sign, pod_id=pod_id, manifest_epoch=manifest_epoch,
                         members=members)


def issue_cap_policy(
    regulator: canon.KeyPair,
    cap: int,
    cap_epoch: int,
    check_period_ms: float = DEFAULT_CHECK_PERIOD_MS,
) -> bytes:
    """Sign a cap policy; returns its wire bytes."""
    return CAP_POLICY.wire(regulator.sign, cap=cap, cap_epoch=cap_epoch,
                           check_period_ms=check_period_ms)


@dataclass(eq=False)
class Session:
    """A mutually authenticated link, open while both `ends` hold it. Equal
    only to itself: the ends key their tables by it, so two sessions between
    the same chips are two entries."""

    ends: tuple[ChipState, ChipState]


@dataclass(frozen=True)
class DataEvent:
    time: float
    src_device: int
    dst_device: int
    n_bytes: int
    transit_ms: float


class HandshakeReject(Enum):
    NOT_IN_POD = "not_in_pod"
    FIRMWARE_MISMATCH = "firmware_mismatch"
    CAP_EXCEEDED = "cap_exceeded"
    BAD_AUTH = "bad_auth"


@dataclass(frozen=True)
class HandshakeResult:
    session: Optional[Session]
    reason: Optional[HandshakeReject] = None

    @property
    def accepted(self) -> bool:
        return self.session is not None


def _auth_ok(signer: ChipState, peer_nonce: bytes, peer_id: int, registry: Registry) -> bool:
    """Mutual-auth leg: signer proves control of its claimed device id."""
    message = SESSION_AUTH.signed(signer=signer.device_id, peer=peer_id, nonce=peer_nonce)
    try:
        signature = signer.sign(message)
    except ZeroizedError:
        return False
    registered = registry.get(signer.device_id)
    if registered is None:
        return False
    return canon.verify(registered, message, signature)


def handshake(a: ChipState, b: ChipState, registry: Registry,
              rng: random.Random) -> HandshakeResult:
    """Mutual challenge-response; each endpoint admits under its own regime.

    Check order: a disabled endpoint refuses first. Both nonces are then
    drawn, so the rng stream does not depend on which check rejects. An
    endpoint with a cap policy, or with no pod manifest, next compares its
    open sessions with the cap it has verified and adopted (0 if none:
    default-deny); that is local state, so a full chip refuses before paying
    for signatures it would discard. An endpoint's pod manifest is checked
    only after both sides have authenticated: both must be listed in it, and
    the endpoint's own firmware must match its entry or it self-disables;
    an unauthenticated peer must not be able to trigger that. Every
    accepted session is mutually authenticated, and both ends add it last to
    their tables; a refused handshake adds nothing.
    """
    if a.self_disabled or b.self_disabled:
        return HandshakeResult(None, HandshakeReject.BAD_AUTH)
    nonce_a = rng.randbytes(16)
    nonce_b = rng.randbytes(16)
    for chip in (a, b):
        held_to_cap = chip.cap_policy is not None or chip.pod_manifest is None
        if held_to_cap and len(chip.sessions) >= chip.adopted_cap():
            return HandshakeResult(None, HandshakeReject.CAP_EXCEEDED)
    if not _auth_ok(a, nonce_b, b.device_id, registry):
        return HandshakeResult(None, HandshakeReject.BAD_AUTH)
    if not _auth_ok(b, nonce_a, a.device_id, registry):
        return HandshakeResult(None, HandshakeReject.BAD_AUTH)

    in_pods = [chip for chip in (a, b) if chip.pod_manifest is not None]
    for chip in in_pods:
        if any(end.device_id not in chip.pod_manifest.members for end in (a, b)):
            return HandshakeResult(None, HandshakeReject.NOT_IN_POD)
    for chip in in_pods:
        if chip.pod_manifest.members[chip.device_id] != chip.firmware_hash:
            # Integrity check tripped: the member self-disables and closes its sessions.
            chip.self_disabled = True
            for session in list(chip.sessions):
                teardown(session)
            return HandshakeResult(None, HandshakeReject.FIRMWARE_MISMATCH)

    session = Session((a, b))
    a.sessions[session] = b.sessions[session] = None
    return HandshakeResult(session)


def teardown(session: Session) -> None:
    """Close `session` at both of its ends."""
    for end in session.ends:
        end.sessions.pop(session, None)


def _newer_signed(chip: ChipState, doc: canon.Doc, wire: bytes, epoch: str,
                  adopted: PodManifest | CapPolicy | None,
                  admissible: Callable[[dict], bool] = lambda fields: True) -> Optional[dict]:
    """The fields of `wire` iff it decodes, its `epoch` field exceeds the
    adopted document's, its fields are `admissible`, and an issuer key the
    chip enrolled signed it.

    Bytes that do not decode are refused before anything else. A stale
    epoch or inadmissible fields are refused before the signature is
    checked: the answer is no whether or not the signature holds.
    """
    try:
        fields, signed, signature = doc.decode(wire)
    except canon.EncodingError:
        return None
    if adopted is not None and fields[epoch] <= getattr(adopted, epoch):
        return None
    if not admissible(fields):
        return None
    if not chip.issuer_signed(signed, signature):
        return None
    return fields


def adopt_manifest(chip: ChipState, wire: bytes) -> bool:
    """Adopt a replacement pod manifest iff signed and its epoch increases.

    Membership is otherwise immutable; swapping a broken device in or out of
    a pod is a full manifest re-issue with an epoch bump.
    """
    fields = _newer_signed(chip, MANIFEST, wire, "manifest_epoch", chip.pod_manifest)
    if fields is None:
        return False
    chip.pod_manifest = MANIFEST.record(**fields)
    return True


def apply_cap_update(chip: ChipState, wire: bytes) -> bool:
    """Adopt iff the epoch strictly increases, the check period is finite and
    positive, and the policy is regulator-signed.

    Any other period would stop `run_due_checks` from returning (zero or
    less) or from ever checking (infinity), whoever signed it.
    """
    fields = _newer_signed(chip, CAP_POLICY, wire, "cap_epoch", chip.cap_policy,
                           lambda fields: 0.0 < fields["check_period_ms"] < math.inf)
    if fields is None:
        return False
    chip.cap_policy = CAP_POLICY.record(**fields)
    return True


def _enforce_cap(chip: ChipState) -> list[Session]:
    """Tear down the last-admitted sessions until the chip is within its cap."""
    excess = len(chip.sessions) - chip.adopted_cap()
    if excess <= 0:
        return []
    closed = list(reversed(chip.sessions))[:excess]
    for session in closed:
        teardown(session)
    return closed


def run_due_checks(chip: ChipState, now_ms: float) -> list[Session]:
    """Execute every check instant that has come due, on its exact schedule.

    Keeps the cap-violation window after a lowering bounded by one check
    period regardless of how coarsely the caller advances time.
    """
    if chip.cap_policy is None:
        return []
    closed: list[Session] = []
    period = chip.cap_policy.check_period_ms
    while chip.last_check_ms + period <= now_ms:
        chip.last_check_ms += period
        closed.extend(_enforce_cap(chip))
    return closed


def bridge_transfer(
    now_ms: float,
    a: ChipState,
    b: ChipState,
    n_bytes: int,
    multiplier: float = DEFAULT_BRIDGE_MULTIPLIER,
) -> Optional[DataEvent]:
    """Route data between chips through a host's PCIe link.

    Succeeds (that is the point of the attack) but pays the latency
    multiplier and leaves both endpoints' PCIe meters as evidence. Returns
    None unless both chips' `consume` ran it; `b` is asked once `a` has. The
    cluster section's honest bridge sweep calls it directly; an attack row
    that calls it must list `pcie_bridge`, which `adversary.run_attack`
    demands of the profile.
    """
    if n_bytes < 0:
        raise ValueError("transfer size must be nonnegative")
    for chip in (a, b):
        ran = chip.consume(MeterResource.PCIE_TRANSFER_BYTES, n_bytes)
        if ran is not ConsumeResult.APPLIED:
            return None
    transit = n_bytes / DIRECT_INTERCONNECT_BYTES_PER_MS * multiplier
    return DataEvent(now_ms, a.device_id, b.device_id, n_bytes, transit)


# Windows over the threshold that make a pod pair's traffic periodic.
_MIN_PERIODIC_WINDOWS = 3


@dataclass(frozen=True)
class CouplingFlag:
    pod_pair: tuple[str, str]
    windows_over_threshold: int


def detect_cross_pod_coupling(
    events: Iterable[DataEvent],
    pod_of: dict[int, str],
    window_ms: float,
    threshold_bytes_per_step: int,
) -> list[CouplingFlag]:
    """Flag pod pairs whose windowed inter-pod traffic looks like training sync.

    A pair is flagged when at least `_MIN_PERIODIC_WINDOWS` windows each carry
    `threshold_bytes_per_step` or more between the two pods, the signature of
    per-step gradient exchange. Sporadic sub-threshold chatter is ignored.
    """
    window_totals: dict[tuple[str, str], dict[int, int]] = {}
    for event in events:
        pod_a = pod_of.get(event.src_device)
        pod_b = pod_of.get(event.dst_device)
        if pod_a is None or pod_b is None or pod_a == pod_b:
            continue
        pair = tuple(sorted((pod_a, pod_b)))
        window = int(event.time // window_ms)
        window_totals.setdefault(pair, {})
        window_totals[pair][window] = window_totals[pair].get(window, 0) + event.n_bytes
    flags = []
    for pair, totals in sorted(window_totals.items()):
        over = sum(total >= threshold_bytes_per_step for total in totals.values())
        if over >= _MIN_PERIODIC_WINDOWS:
            flags.append(CouplingFlag(pod_pair=pair, windows_over_threshold=over))
    return flags
