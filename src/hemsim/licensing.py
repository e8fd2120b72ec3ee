"""Offline licensing: issuance, device-side verification, quota throttling.

A license is a signed grant of metered quota to exactly one device. The
device-side install check enforces the three countermeasures that make the
scheme hold up offline: issuer signature over every field, a per-device
license id that must strictly increase (anti-replay, backed by a monotonic
counter), and an unmodifiable device id binding (anti-sharing). Expiry
against the on-chip clock prevents stockpiling.

`install` runs the checks in a fixed order: device id, license id, expiry,
then the signature. The first three read only the chip's own state and the
license's claimed fields, so a license that fails one of them is refused
without an ed25519 verify. A check on a field not yet verified may only
reject, never accept; a license is accepted only if all four pass, and the
reported reason is the first check that fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import canon
from .chipmodel import ChipState, ConsumeResult, MeterResource, ThrottleLevel

LICENSE_TAG = "license.v1"


@dataclass(frozen=True)
class License:
    license_id: int
    device_id: int
    quotas: tuple[tuple[MeterResource, int], ...]  # sorted by resource ordinal
    not_after: Optional[int]
    issuer_signature: bytes

    def quota_for(self, resource: MeterResource) -> Optional[int]:
        for res, amount in self.quotas:
            if res is resource:
                return amount
        return None


def _sorted_quotas(quotas: dict[MeterResource, int]) -> tuple[tuple[MeterResource, int], ...]:
    for amount in quotas.values():
        if amount < 0:
            raise ValueError("quotas must be nonnegative")
    return tuple(sorted(quotas.items(), key=lambda kv: kv[0].ordinal))


def license_signed_bytes(
    license_id: int,
    device_id: int,
    quotas: tuple[tuple[MeterResource, int], ...],
    not_after: Optional[int],
) -> bytes:
    parts = [canon.u64(license_id), canon.u128(device_id), canon.u32(len(quotas))]
    for resource, amount in quotas:
        parts.append(canon.u8(resource.ordinal))
        parts.append(canon.u64(amount))
    parts.append(canon.opt_u64(not_after))
    return canon.tagged(LICENSE_TAG, *parts)


def license_wire_bytes(lic: License) -> bytes:
    """Wire format: the signed fields followed by the length-prefixed signature."""
    signed = license_signed_bytes(lic.license_id, lic.device_id, lic.quotas, lic.not_after)
    return signed + canon.blob(lic.issuer_signature)


def decode_license(wire: bytes) -> License:
    dec = canon.Decoder(wire)
    tag = dec.blob()
    if tag != LICENSE_TAG.encode("ascii"):
        raise canon.EncodingError(f"unexpected payload tag: {tag!r}")
    license_id = dec.u64()
    device_id = dec.u128()
    count = dec.u32()
    resources = list(MeterResource)
    quotas = []
    for _ in range(count):
        ordinal = dec.u8()
        if ordinal >= len(resources):
            raise canon.EncodingError(f"unknown resource ordinal: {ordinal}")
        quotas.append((resources[ordinal], dec.u64()))
    not_after = dec.opt_u64()
    signature = dec.blob()
    dec.expect_end()
    return License(
        license_id=license_id,
        device_id=device_id,
        quotas=tuple(quotas),
        not_after=not_after,
        issuer_signature=signature,
    )


class RejectReason(Enum):
    BAD_SIGNATURE = "bad_signature"
    WRONG_DEVICE = "wrong_device"
    STALE_ID = "stale_id"
    EXPIRED = "expired"


@dataclass(frozen=True)
class InstallResult:
    accepted: bool
    reason: Optional[RejectReason] = None


@dataclass
class IssuerState:
    """A license provider: one signing key, per-device id sequencing."""

    keypair: canon.KeyPair
    next_license_id: dict[int, int] = field(default_factory=dict)

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_bytes

    def issue(
        self,
        device_id: int,
        quotas: dict[MeterResource, int],
        not_after: Optional[int] = None,
    ) -> License:
        license_id = self.next_license_id.get(device_id, 0)
        self.next_license_id[device_id] = license_id + 1
        sorted_quotas = _sorted_quotas(quotas)
        signature = self.keypair.sign(
            license_signed_bytes(license_id, device_id, sorted_quotas, not_after)
        )
        return License(
            license_id=license_id,
            device_id=device_id,
            quotas=sorted_quotas,
            not_after=not_after,
            issuer_signature=signature,
        )


def make_issuer(rng: random.Random) -> IssuerState:
    return IssuerState(keypair=canon.generate_keypair(rng.randbytes(32)))


def install(chip: ChipState, lic: License) -> InstallResult:
    """Device-side license verification; hostile inputs expected.

    Acceptance requires all of: matching device id, strictly increasing
    license id, (when present) a not_after the chip's own RTC has not
    passed, and a valid signature under an enrolled issuer key. The checks
    run in that order and the reason is the first one that fails. The first
    three read unverified fields, which may only reject: the signature is
    checked last, and only for a license that passed them. A rejection
    changes no chip state. The host passes no time: it can advance the
    chip's clock (`advance_to`) but never turn it back.
    """
    if lic.device_id != chip.identity.device_id:
        return InstallResult(False, RejectReason.WRONG_DEVICE)
    if lic.license_id <= chip.last_license_id:
        return InstallResult(False, RejectReason.STALE_ID)
    if lic.not_after is not None and chip.rtc_read() > lic.not_after:
        return InstallResult(False, RejectReason.EXPIRED)
    signed = license_signed_bytes(lic.license_id, lic.device_id, lic.quotas, lic.not_after)
    if not any(
        canon.verify(key, signed, lic.issuer_signature) for key in chip.identity.issuer_keys
    ):
        return InstallResult(False, RejectReason.BAD_SIGNATURE)
    chip.last_license_id = lic.license_id
    chip.active_license = lic
    # Quota accounting restarts here: unused quota does not carry over.
    chip.license_baseline = dict(chip.meters.volatile)
    chip.throttle = ThrottleLevel.FULL
    return InstallResult(True)


def enforce(chip: ChipState) -> ThrottleLevel:
    """Recompute the throttle from license state; call after consume/install.

    With no valid quota left the chip is disabled.
    """
    lic: Optional[License] = chip.active_license  # type: ignore[assignment]
    if chip.zeroized or lic is None:
        chip.throttle = ThrottleLevel.DISABLED
        return chip.throttle
    for resource, quota in lic.quotas:
        if chip.consumed_since_install(resource) >= quota:
            chip.throttle = ThrottleLevel.DISABLED
            return chip.throttle
    chip.throttle = ThrottleLevel.FULL
    return chip.throttle


@dataclass(frozen=True)
class ConsumeOutcome:
    applied: bool
    reason: Optional[str]
    throttle_after: ThrottleLevel


def metered_consume(
    chip: ChipState,
    resource: MeterResource,
    amount: int,
) -> ConsumeOutcome:
    """Consume under license enforcement.

    A request that would cross the remaining quota is rejected whole: the
    meter does not move and the caller sees the reason. Requests landing
    exactly on the boundary apply, after which enforcement throttles.
    """
    if chip.throttle is ThrottleLevel.DISABLED:
        return ConsumeOutcome(False, "throttled", chip.throttle)
    lic: Optional[License] = chip.active_license  # type: ignore[assignment]
    if lic is not None:
        quota = lic.quota_for(resource)
        if quota is not None and chip.consumed_since_install(resource) + amount > quota:
            throttle = enforce(chip)
            return ConsumeOutcome(False, "quota_exceeded", throttle)
    result = chip.consume(resource, amount)
    if result is ConsumeResult.THROTTLED:
        return ConsumeOutcome(False, "throttled", chip.throttle)
    throttle = enforce(chip)
    return ConsumeOutcome(True, None, throttle)
