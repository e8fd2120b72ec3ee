"""Chip component tests: signing oracle, meters, counters, clock, tamper."""

import random

import pytest

from hemsim import canon
from hemsim.chipmodel import (
    ChipState,
    ConsumeResult,
    MeterResource,
    PersistencePolicy,
    PolicyKind,
    RtcClock,
    ThrottleLevel,
    ZeroizedError,
    extract_signing_oracle,
    mint_fleet,
    provision_chip,
)


@pytest.fixture
def rng():
    return random.Random(2024)


@pytest.fixture
def issuer_key(rng):
    return canon.generate_keypair(rng.randbytes(32))


def make_chip(rng, issuer_key, policy=None) -> ChipState:
    chip = provision_chip(rng, frozenset({issuer_key.public_bytes}), policy=policy)
    chip.throttle = ThrottleLevel.FULL  # most component tests bypass licensing
    return chip


def test_meter_resources_are_the_seven_metering_targets():
    assert [r.value for r in MeterResource] == [
        "float_ops",
        "int_ops",
        "memory_transfer_bytes",
        "interconnect_transfer_bytes",
        "pcie_transfer_bytes",
        "joules",
        "clock_cycles",
    ]


def test_consume_while_powered_off_refused(rng, issuer_key):
    chip = make_chip(rng, issuer_key)
    chip.power_loss(at_ms=10.0)
    with pytest.raises(RuntimeError):
        chip.consume(MeterResource.FLOAT_OPS, 1)


class TestSigningOracle:
    def test_sign_verify_round_trip(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        message = b"meter report 12345"
        sig = chip.sign(message)
        assert canon.verify(chip.public_key, message, sig)

    def test_single_bit_flip_rejected(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        message = bytearray(b"meter report 12345")
        sig = bytearray(chip.sign(bytes(message)))
        flip_rng = random.Random(7)
        for _ in range(64):
            target = flip_rng.choice(("message", "signature"))
            buf = message if target == "message" else sig
            bit = flip_rng.randrange(len(buf) * 8)
            buf[bit // 8] ^= 1 << (bit % 8)
            assert not canon.verify(chip.public_key, bytes(message), bytes(sig))
            buf[bit // 8] ^= 1 << (bit % 8)

    def test_zeroized_chip_refuses_to_sign(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.tamper_event("enclosure_breach")
        assert chip.zeroized
        with pytest.raises(ZeroizedError):
            chip.sign(b"anything")

    def test_extracted_oracle_signs_as_the_chip(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        oracle = extract_signing_oracle(chip)
        assert canon.verify(chip.public_key, b"m", oracle(b"m"))


class TestConsume:
    def test_consume_zero_is_noop(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        assert chip.consume(MeterResource.FLOAT_OPS, 0) is ConsumeResult.APPLIED
        assert chip.meter_value(MeterResource.FLOAT_OPS) == 0

    def test_consume_is_additive(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.consume(MeterResource.CLOCK_CYCLES, 100)
        chip.consume(MeterResource.CLOCK_CYCLES, 100)
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 200

    def test_disabled_throttle_reports_throttled(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.throttle = ThrottleLevel.DISABLED
        assert chip.consume(MeterResource.CLOCK_CYCLES, 50) is ConsumeResult.THROTTLED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 0

    def test_self_disabled_chip_refuses_whatever_its_throttle(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.self_disabled = True
        assert chip.throttle is ThrottleLevel.FULL
        assert chip.consume(MeterResource.CLOCK_CYCLES, 50) is ConsumeResult.THROTTLED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 0

    def test_negative_amount_rejected(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        with pytest.raises(ValueError):
            chip.consume(MeterResource.JOULES, -1)


class TestPersistencePolicies:
    def test_capacitor_flush_recovers_exact_value(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key, PersistencePolicy(PolicyKind.CAPACITOR_FLUSH))
        chip.consume(MeterResource.FLOAT_OPS, 500)
        chip.power_loss(at_ms=1000.0)
        chip.power_on(at_ms=2000.0)
        assert chip.meter_value(MeterResource.FLOAT_OPS) == 500

    def test_no_consumption_recovers_zero(self, rng, issuer_key):
        for policy in (
            PersistencePolicy(PolicyKind.CAPACITOR_FLUSH),
            PersistencePolicy(PolicyKind.PERIODIC_FLUSH, flush_interval_ms=100.0),
        ):
            chip = make_chip(rng, issuer_key, policy)
            chip.power_loss(at_ms=50.0)
            chip.power_on(at_ms=60.0)
            assert all(chip.meter_value(r) == 0 for r in MeterResource)

    def test_boot_roundup_adds_increment_per_boot(self, rng, issuer_key):
        policy = PersistencePolicy(PolicyKind.BOOT_ROUNDUP, flush_interval_ms=100.0,
                                   roundup_increment=40)
        chip = make_chip(rng, issuer_key, policy)
        chip.power_loss(at_ms=10.0)
        chip.power_on(at_ms=20.0)
        chip.power_loss(at_ms=30.0)
        chip.power_on(at_ms=40.0)
        assert chip.meter_value(MeterResource.FLOAT_OPS) == 80  # two boots, no consumption

    def test_periodic_flush_loses_at_most_one_window(self, rng, issuer_key):
        policy = PersistencePolicy(PolicyKind.PERIODIC_FLUSH, flush_interval_ms=100.0)
        chip = make_chip(rng, issuer_key, policy)
        chip.advance_to(0.0)
        chip.consume(MeterResource.INT_OPS, 10)   # before first flush at t=100
        chip.advance_to(150.0)                    # flush at t=100 persists 10
        chip.consume(MeterResource.INT_OPS, 7)    # lost by the cut below
        chip.power_loss(at_ms=160.0)
        chip.power_on(at_ms=170.0)
        assert chip.meter_value(MeterResource.INT_OPS) == 10

    def test_randomized_schedules_monotone_and_conservative(self, rng, issuer_key):
        # Small-scale version of the acceptance campaign: persisted values
        # never decrease across reboots; roundup never undercounts truth.
        for trial in range(60):
            schedule_rng = random.Random(5000 + trial)
            policy = PersistencePolicy(
                PolicyKind.BOOT_ROUNDUP, flush_interval_ms=100.0, roundup_increment=50
            )
            chip = make_chip(schedule_rng, issuer_key, policy)
            true_consumed = 0
            window_consumed = 0
            now = 0.0
            last_recovered = 0
            for _ in range(40):
                now += schedule_rng.uniform(1.0, 60.0)
                chip.advance_to(now)
                if now >= chip.meters._next_flush_ms - 1e-9:
                    window_consumed = 0
                if schedule_rng.random() < 0.3:
                    chip.power_loss(at_ms=now)
                    now += schedule_rng.uniform(1.0, 10.0)
                    chip.power_on(at_ms=now)
                    recovered = chip.meter_value(MeterResource.FLOAT_OPS)
                    assert recovered >= true_consumed
                    assert recovered >= last_recovered
                    last_recovered = recovered
                    window_consumed = 0
                else:
                    amount = schedule_rng.randrange(0, 50 - window_consumed + 1)
                    chip.consume(MeterResource.FLOAT_OPS, amount)
                    true_consumed += amount
                    window_consumed += amount


class TestRtcAndUnaryCounter:
    def test_rtc_reads_nondecreasing(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.advance_to(100.0)
        first = chip.rtc_read()
        chip.advance_to(200.0)
        assert chip.rtc_read() >= first

    def test_rtc_drift_applied_deterministically(self):
        rtc = RtcClock(epoch_ms=0.0, drift_ppm=50.0)
        assert rtc.read(1_000_000.0) == pytest.approx(1_000_050.0)


class TestTamper:
    def test_detected_breach_zeroizes(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.tamper_event("enclosure_breach")
        assert chip.zeroized
        assert chip.throttle is ThrottleLevel.DISABLED
        with pytest.raises(ZeroizedError):
            chip.sign(b"post-breach")

    def test_covert_rollback_mutates_without_zeroization(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        chip.consume(MeterResource.FLOAT_OPS, 1000)
        chip.tamper_event(
            "meter_rollback", covert=True, resource=MeterResource.FLOAT_OPS, amount=400
        )
        assert not chip.zeroized
        assert chip.meter_value(MeterResource.FLOAT_OPS) == 600

    def test_no_tamper_leaves_state_unchanged(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        assert not chip.zeroized


class TestRegistry:
    def test_enroll_then_lookup(self):
        _, registry, chips = mint_fleet(random.Random(2024), 3)
        for chip in chips:
            assert registry.get(chip.identity.device_id) is not None
            assert registry.get(chip.identity.device_id) == chip.public_key
        unknown = max(c.identity.device_id for c in chips) + 1
        assert registry.get(unknown) is None


class TestIssuerTrust:
    def test_enrolled_issuer_signature_is_trusted(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        assert chip.issuer_signed(b"cap policy", issuer_key.sign(b"cap policy"))

    def test_rogue_key_signature_is_not_trusted(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        rogue = canon.generate_keypair(rng.randbytes(32))
        assert not chip.issuer_signed(b"cap policy", rogue.sign(b"cap policy"))

    def test_flipped_bit_is_not_trusted(self, rng, issuer_key):
        chip = make_chip(rng, issuer_key)
        signature = issuer_key.sign(b"cap policy")
        assert not chip.issuer_signed(b"cap pomicy", signature)
        flipped = bytes([signature[0] ^ 1]) + signature[1:]
        assert not chip.issuer_signed(b"cap policy", flipped)


class TestMintFleet:
    @pytest.mark.parametrize("seed", [1, 23, 4242])
    def test_draws_match_the_inline_sequence(self, seed):
        # The sequence every section and attack row wrote out before the helper.
        rng = random.Random(seed)
        issuer = canon.generate_keypair(rng.randbytes(32))
        inline = [provision_chip(rng, frozenset({issuer.public_bytes})) for _ in range(5)]
        after_inline = rng.random()

        rng = random.Random(seed)
        minted_issuer, registry, chips = mint_fleet(rng, 5)
        assert minted_issuer.public_bytes == issuer.public_bytes
        assert [c.identity.device_id for c in chips] == [c.identity.device_id for c in inline]
        assert [c.public_key for c in chips] == [c.public_key for c in inline]
        assert rng.random() == after_inline

    def test_chips_are_enrolled_at_full_throttle(self):
        issuer, registry, chips = mint_fleet(random.Random(5), 3)
        for chip in chips:
            assert chip.throttle is ThrottleLevel.FULL
            assert chip.identity.issuer_keys == frozenset({issuer.public_bytes})
            assert registry[chip.identity.device_id] == chip.public_key
