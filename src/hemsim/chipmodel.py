"""Virtual AI accelerator: signing oracle, secure meters, counters, clock.

The chip is modeled behaviorally: a tamper-scoped identity that signs
canonical payloads, cumulative activity meters with three power-loss
persistence designs, write-through counters of the last license id and the
next snapshot number, a real-time clock with optional drift, throttle state,
and a zeroization response. A `ChipState` also holds what it has verified
and adopted itself: its installed license, its pod manifest and cap policy
with that policy's check clock, and its open sessions (see `cluster`).
`ChipState.consume`, the one path by which work runs, enforces the throttle,
refuses whole any request that would cross an installed license quota, and
refuses everything once the chip has disabled itself over its own firmware.
`ChipState.issuer_signed` is the chip's one trust decision for the
issuer-signed documents it adopts, and `mint_fleet` builds the issuer key,
registry and enrolled chips that sections and attack rows start from.
Electrical details (flash wear, capacitors, counter circuits) are out of
scope; what is modeled is exactly the externally observable contract of
each component.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from . import canon


class MeterResource(Enum):
    """The seven metered quantities, in canonical ordinal order."""

    FLOAT_OPS = "float_ops"
    INT_OPS = "int_ops"
    MEMORY_TRANSFER_BYTES = "memory_transfer_bytes"
    INTERCONNECT_TRANSFER_BYTES = "interconnect_transfer_bytes"
    PCIE_TRANSFER_BYTES = "pcie_transfer_bytes"
    JOULES = "joules"
    CLOCK_CYCLES = "clock_cycles"

    # Members are singletons that compare by identity, so they hash by it
    # too: meter dicts are read on every consume, snapshot and decode.
    __hash__ = object.__hash__


# The one wire encoding of a resource in every signed document: its ordinal.
RESOURCE = canon.ordinal(tuple(MeterResource))


class ZeroizedError(RuntimeError):
    """The chip's keys were deleted; it signs nothing and executes nothing."""


class PolicyKind(Enum):
    CAPACITOR_FLUSH = "capacitor_flush"
    PERIODIC_FLUSH = "periodic_flush"
    BOOT_ROUNDUP = "boot_roundup"


@dataclass(frozen=True)
class PersistencePolicy:
    """How volatile meter values reach flash across power loss.

    capacitor_flush: a residual-charge flush copies SRAM to flash at the
        instant of loss, so the recovered value equals the value at loss.
    periodic_flush: flash is written every `flush_interval_ms`; a loss
        forfeits at most one interval of consumption.
    boot_roundup: flash is written every interval, and each boot recovers
        last-flushed plus `roundup_increment`, overcounting rather than
        undercounting as long as the increment bounds per-interval use.
    """

    kind: PolicyKind
    flush_interval_ms: float = 3_600_000.0  # one simulated hour
    roundup_increment: int = 0

    def __post_init__(self):
        if self.flush_interval_ms <= 0.0:
            raise ValueError("flush interval must be positive")
        if self.kind is PolicyKind.BOOT_ROUNDUP and self.roundup_increment <= 0:
            raise ValueError("boot_roundup requires a positive increment")


class MeterBank:
    """Per-resource cumulative secure meters with persisted shadows.

    Volatile values are lifetime-cumulative and outside user control; they
    never decrease except through a covert-tamper event (which downstream
    attestation is designed to catch). Persisted values are monotone flash
    counters: a flush never writes a value lower than what is stored.
    """

    def __init__(self, policy: PersistencePolicy):
        self.policy = policy
        self.volatile: dict[MeterResource, int] = {r: 0 for r in MeterResource}
        self.persisted: dict[MeterResource, int] = {r: 0 for r in MeterResource}
        self._next_flush_ms = policy.flush_interval_ms

    def increment(self, resource: MeterResource, amount: int) -> None:
        if amount < 0:
            raise ValueError("meter increments must be nonnegative")
        self.volatile[resource] += amount

    def tick(self, now_ms: float) -> None:
        """Run any periodic flushes that have come due."""
        while now_ms >= self._next_flush_ms:
            self.flush()
            self._next_flush_ms += self.policy.flush_interval_ms

    def flush(self) -> None:
        for resource in MeterResource:
            if self.volatile[resource] > self.persisted[resource]:
                self.persisted[resource] = self.volatile[resource]

    def on_power_loss(self, at_ms: float) -> None:
        self.tick(at_ms)
        if self.policy.kind is PolicyKind.CAPACITOR_FLUSH:
            self.flush()

    def on_power_on(self, at_ms: float) -> None:
        """Restore volatile values from flash."""
        for resource in MeterResource:
            recovered = self.persisted[resource]
            if self.policy.kind is PolicyKind.BOOT_ROUNDUP:
                recovered += self.policy.roundup_increment
                self.persisted[resource] = recovered
            self.volatile[resource] = recovered
        self._next_flush_ms = at_ms + self.policy.flush_interval_ms


@dataclass
class RtcClock:
    """Real-time clock: monotone reading with a configurable drift rate."""

    epoch_ms: float = 0.0
    drift_ppm: float = 0.0
    _last_read: float = field(default=0.0, repr=False)

    def read(self, sim_ms: float) -> float:
        value = self.epoch_ms + sim_ms * (1.0 + self.drift_ppm / 1e6)
        self._last_read = max(self._last_read, value)
        return self._last_read


class ThrottleLevel(Enum):
    FULL = "full"
    DISABLED = "disabled"


class ConsumeResult(Enum):
    APPLIED = "applied"
    THROTTLED = "throttled"
    QUOTA_EXCEEDED = "quota_exceeded"


@dataclass(frozen=True)
class DeviceIdentity:
    """Unmodifiable device id, on-device keypair, enrolled issuer keys."""

    device_id: int
    keypair: canon.KeyPair
    issuer_keys: frozenset[bytes]


GENUINE_FIRMWARE = hashlib.sha256(b"accelerator-firmware/1.0").digest()


class ChipState:
    """One accelerator's full governed state, owned by a single simulation."""

    def __init__(
        self,
        identity: DeviceIdentity,
        policy: PersistencePolicy | None = None,
        rtc: RtcClock | None = None,
    ):
        self.identity = identity
        self.meters = MeterBank(policy or PersistencePolicy(PolicyKind.CAPACITOR_FLUSH))
        self.rtc = rtc or RtcClock()
        # Stored in write-through monotonic counters: exact across power loss.
        self.last_license_id: int = -1
        self.next_sequence_no: int = 0  # numbers the chip's own meter snapshots
        self.active_license = None  # the installed `licensing.License`, once there is one
        self.license_baseline: dict[MeterResource, int] = {r: 0 for r in MeterResource}
        self.throttle = ThrottleLevel.DISABLED  # default-deny until licensed
        # Set when the chip's own firmware check fails; no license clears it.
        self.self_disabled: bool = False
        self.zeroized: bool = False
        self.firmware_hash: bytes = GENUINE_FIRMWARE
        self.powered: bool = True
        self.clock_ms: float = 0.0
        # The cluster regime this chip adopted (see `cluster`), and its open sessions.
        self.pod_manifest = None  # the adopted `cluster.PodManifest`, once there is one
        self.cap_policy = None  # the adopted `cluster.CapPolicy`, once there is one
        self.last_check_ms: float = 0.0  # the cap policy's check clock
        self.sessions: dict = {}  # the open `cluster.Session`s, in admission order

    @property
    def device_id(self) -> int:
        return self.identity.device_id

    def adopted_cap(self) -> int:
        # Default-deny: a chip that has adopted no policy interconnects with no one.
        return self.cap_policy.cap if self.cap_policy is not None else 0

    # -- time ---------------------------------------------------------------

    def advance_to(self, now_ms: float) -> None:
        """Move the chip's local clock forward, running due meter flushes."""
        if now_ms < self.clock_ms:
            return
        self.clock_ms = now_ms
        if self.powered:
            self.meters.tick(now_ms)

    def rtc_read(self) -> float:
        return self.rtc.read(self.clock_ms)

    # -- signing oracle -----------------------------------------------------

    def sign(self, message: bytes) -> bytes:
        if self.zeroized:
            raise ZeroizedError("chip is zeroized; signing refused")
        return self.identity.keypair.sign(message)

    @property
    def public_key(self) -> bytes:
        return self.identity.keypair.public_bytes

    def issuer_signed(self, message: bytes, signature: bytes) -> bool:
        """Whether an issuer key this chip enrolled signed `message`.

        The one trust decision behind every issuer-signed document the chip
        adopts: licenses, cap policies and pod manifests.
        """
        return any(canon.verify(key, message, signature) for key in self.identity.issuer_keys)

    # -- metering -----------------------------------------------------------

    def consume(self, resource: MeterResource, amount: int) -> ConsumeResult:
        """Meter `amount` units of `resource` if the throttle and license permit.

        A self-disabled chip refuses every request, whatever its throttle. A
        licensed chip refuses whole a request that would take its use since
        install past that resource's quota, and after every attempt the
        throttle lets through it disables itself once `quota_reached`.
        """
        if amount < 0:
            raise ValueError("consume amount must be nonnegative")
        if not self.powered:
            raise RuntimeError("chip is powered off")
        if self.zeroized:
            raise ZeroizedError("chip is zeroized; execution refused")
        if self.self_disabled or self.throttle is ThrottleLevel.DISABLED:
            return ConsumeResult.THROTTLED
        quotas = self.active_license.quotas if self.active_license is not None else {}
        if self.consumed_since_install(resource) + amount > quotas.get(resource, math.inf):
            result = ConsumeResult.QUOTA_EXCEEDED
        else:
            self.meters.increment(resource, amount)  # `advance_to` already ran due flushes
            result = ConsumeResult.APPLIED
        if self.quota_reached():
            self.throttle = ThrottleLevel.DISABLED
        return result

    def quota_reached(self) -> bool:
        """Whether the installed license has any quota used up since install;
        a licensed chip is disabled from then on."""
        quotas = self.active_license.quotas if self.active_license is not None else {}
        return any(self.consumed_since_install(r) >= q for r, q in quotas.items())

    def meter_value(self, resource: MeterResource) -> int:
        """Read-only host access to the cumulative meter."""
        return self.meters.volatile[resource]

    def consumed_since_install(self, resource: MeterResource) -> int:
        return max(0, self.meters.volatile[resource] - self.license_baseline[resource])

    # -- power schedule -----------------------------------------------------

    def power_loss(self, at_ms: float) -> None:
        self.advance_to(at_ms)
        self.meters.on_power_loss(at_ms)
        self.powered = False

    def power_on(self, at_ms: float) -> None:
        if at_ms < self.clock_ms:
            raise ValueError("power_on cannot precede the loss instant")
        self.clock_ms = at_ms
        self.powered = True
        self.meters.on_power_on(at_ms)

    # -- tamper response ------------------------------------------------------

    def tamper_event(self, kind: str, covert: bool = False, **details) -> None:
        """Apply a tamper attempt.

        Detected tampering (the default) triggers the zeroization response.
        Covert tampering requires the adversary's covert_tamper capability
        and mutates state without tripping the response, which is exactly
        what downstream verifiers must be able to catch.
        """
        if not covert:
            self.zeroize()
        elif kind == "meter_rollback":
            resource = details["resource"]
            amount = details["amount"]
            self.meters.volatile[resource] = max(0, self.meters.volatile[resource] - amount)
        elif kind == "firmware_mod":
            self.firmware_hash = hashlib.sha256(b"patched-" + self.firmware_hash).digest()

    def zeroize(self) -> None:
        self.zeroized = True
        self.throttle = ThrottleLevel.DISABLED


def provision_chip(
    rng: random.Random,
    issuer_keys: frozenset[bytes],
    policy: PersistencePolicy | None = None,
    rtc: RtcClock | None = None,
) -> ChipState:
    """Mint a chip: fresh device id and an on-device generated keypair."""
    device_id = rng.getrandbits(128)
    keypair = canon.generate_keypair(rng.randbytes(32))
    identity = DeviceIdentity(device_id=device_id, keypair=keypair, issuer_keys=issuer_keys)
    return ChipState(identity, policy=policy, rtc=rtc)


def extract_signing_oracle(chip: ChipState) -> Callable[[bytes], bytes]:
    """Clone the chip's signing ability, as a successful key extraction would.

    An attack row reaches it only past `adversary.run_attack`, the one
    capability gate, which demands `key_extraction` of the profile; the honest
    model never exposes the private key through any readable field, log, or
    report.
    """
    keypair = chip.identity.keypair
    return lambda message: keypair.sign(message)


# Verifier-side record of provisioned devices: device id -> public key.
Registry = dict[int, bytes]


def mint_fleet(rng: random.Random, n: int) -> tuple[canon.KeyPair, Registry, list[ChipState]]:
    """An issuer key, a registry, and `n` chips enrolled there at full throttle.

    Draws the issuer key first, then each chip's id and key in turn. Every
    chip enrolls only the issuer key.
    """
    issuer = canon.generate_keypair(rng.randbytes(32))
    registry: Registry = {}
    chips = []
    for _ in range(n):
        chip = provision_chip(rng, frozenset({issuer.public_bytes}))
        chip.throttle = ThrottleLevel.FULL
        registry[chip.device_id] = chip.public_key
        chips.append(chip)
    return issuer, registry, chips
