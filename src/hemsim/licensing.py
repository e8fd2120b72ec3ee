"""Offline licensing: issuance and device-side verification.

A license is a signed grant of metered quota to exactly one device. The
device-side install check enforces the three countermeasures that make the
scheme hold up offline: issuer signature over every field, a per-device
license id that must strictly increase (anti-replay, backed by a monotonic
counter), and an unmodifiable device id binding (anti-sharing). Expiry
against the on-chip clock prevents stockpiling. Once installed, the quotas
bind on the chip itself: `ChipState.consume` refuses whole every request
that would cross one, and disables the chip once any is reached.

A license reaches the chip as wire bytes from an untrusted host, and each
license has exactly one encoding. `install` runs the checks in a fixed
order: decode, device id, license id, expiry, then the signature. Bytes
that do not decode are refused as `MALFORMED`. The next three checks read
only the chip's own state and the license's claimed fields, so a license
that fails one of them is refused without an ed25519 verify. A check on a
field not yet verified may only reject, never accept; a license is
accepted only if all five pass, and the reported reason is the first check
that fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import canon
from .chipmodel import RESOURCE, ChipState, MeterResource, ThrottleLevel

LICENSE = canon.Doc("license.v1", license_id=canon.U64, device_id=canon.U128,
                    quotas=canon.mapping(RESOURCE, canon.U64), not_after=canon.OPT_U64)
License = LICENSE.record  # a license's fields, as a chip that installed it holds them


class RejectReason(Enum):
    MALFORMED = "malformed"
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
    ) -> bytes:
        """Sign the device's next license; returns its wire bytes."""
        license_id = self.next_license_id.get(device_id, 0)
        wire = LICENSE.wire(self.keypair.sign, license_id=license_id, device_id=device_id,
                            quotas=quotas, not_after=not_after)
        self.next_license_id[device_id] = license_id + 1  # a refused request burns no id
        return wire


def make_issuer(rng: random.Random) -> IssuerState:
    return IssuerState(keypair=canon.generate_keypair(rng.randbytes(32)))


def install(chip: ChipState, wire: bytes) -> InstallResult:
    """Device-side license verification of wire bytes; hostile inputs expected.

    Acceptance requires all of: bytes that decode as the one canonical
    encoding of a license, matching device id, strictly increasing license
    id, (when present) a not_after the chip's own RTC has not passed, and a
    valid signature under an enrolled issuer key. The checks run in that
    order and the reason is the first one that fails. The device id,
    license id and expiry checks read unverified fields, which may only
    reject: the signature is checked last, and only for a license that
    passed them. A rejection changes no chip state. The host passes no
    time: it can advance the chip's clock (`advance_to`) but never turn it
    back.
    """
    try:
        fields, signed, signature = LICENSE.decode(wire)
    except canon.EncodingError:
        return InstallResult(False, RejectReason.MALFORMED)
    lic = License(**fields)
    if lic.device_id != chip.identity.device_id:
        return InstallResult(False, RejectReason.WRONG_DEVICE)
    if lic.license_id <= chip.last_license_id:
        return InstallResult(False, RejectReason.STALE_ID)
    if lic.not_after is not None and chip.rtc_read() > lic.not_after:
        return InstallResult(False, RejectReason.EXPIRED)
    if not chip.issuer_signed(signed, signature):
        return InstallResult(False, RejectReason.BAD_SIGNATURE)
    chip.last_license_id = lic.license_id
    chip.active_license = lic
    # Quota accounting restarts here: unused quota does not carry over.
    chip.license_baseline = dict(chip.meters.volatile)
    chip.throttle = ThrottleLevel.DISABLED if chip.quota_reached() else ThrottleLevel.FULL
    return InstallResult(True)


FUZZ_KINDS = ("bitflip", "truncate", "append", "relabel", "other_chip", "rogue")
_LICENSE_ID_AT = len(LICENSE.head)  # wire offset of the u64 license id


def fuzz_licenses(issuer: IssuerState, chips: list[ChipState], trials: int,
                  rng: random.Random) -> tuple[int, dict[str, int]]:
    """Hostile wire campaign; returns (acceptances, refusals per reject reason).

    Per chip it signs one fresh license, the chip's next id from `issuer`,
    and one rogue license with the same id under a key no chip enrolls,
    each the first time a trial needs it. Each trial picks a chip and a
    kind and offers the chip these bytes, which the named check refuses:
    - `bitflip`: the fresh wire with one bit flipped anywhere, tag and
      length prefixes included (whichever check the flip reaches);
    - `truncate`: a strict prefix of the fresh wire (`MALFORMED`);
    - `append`: the fresh wire with 1 to 8 bytes appended (`MALFORMED`);
    - `relabel`: the fresh wire with its id set at or below the chip's
      installed id (`STALE_ID`, no verify); drawn only for a chip that has
      installed a license;
    - `other_chip`: another chip's fresh wire (`WRONG_DEVICE`, no verify);
      drawn only in a fleet of two or more;
    - `rogue`: the rogue wire (`BAD_SIGNATURE`).

    Every trial must be refused.
    """
    rogue = IssuerState(canon.generate_keypair(rng.randbytes(32)), dict(issuer.next_license_id))
    fresh: dict[int, bytes] = {}
    forged: dict[int, bytes] = {}

    def signed(licenses: dict[int, bytes], signer: IssuerState, i: int, amount: int) -> bytes:
        if i not in licenses:
            licenses[i] = signer.issue(chips[i].identity.device_id,
                                       {MeterResource.CLOCK_CYCLES: amount})
        return licenses[i]

    kinds = FUZZ_KINDS if len(chips) > 1 else tuple(k for k in FUZZ_KINDS if k != "other_chip")
    unlicensed_kinds = tuple(k for k in kinds if k != "relabel")
    acceptances = 0
    refusals = {reason.value: 0 for reason in RejectReason}
    for _ in range(trials):
        i = rng.randrange(len(chips))
        chip, wire = chips[i], signed(fresh, issuer, i, 1000)
        kind = rng.choice(kinds if chip.last_license_id >= 0 else unlicensed_kinds)
        if kind == "bitflip":
            bit = 1 << rng.randrange(len(wire) * 8)
            wire = (int.from_bytes(wire, "little") ^ bit).to_bytes(len(wire), "little")
        elif kind == "truncate":
            wire = wire[:rng.randrange(len(wire))]
        elif kind == "append":
            wire += rng.randbytes(rng.randint(1, 8))
        elif kind == "relabel":
            stale = canon.u64(max(0, chip.last_license_id - rng.randrange(3)))
            wire = wire[:_LICENSE_ID_AT] + stale + wire[_LICENSE_ID_AT + 8:]
        elif kind == "other_chip":
            j = rng.randrange(len(chips) - 1)  # one draw; skip the chip's own index
            wire = signed(fresh, issuer, j + (j >= i), 1000)
        else:  # rogue
            wire = signed(forged, rogue, i, 10**9)
        result = install(chip, wire)
        if result.accepted:
            acceptances += 1
        else:
            refusals[result.reason.value] += 1
    return acceptances, refusals
