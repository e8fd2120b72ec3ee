"""Licensing protocol tests: issuance, install checks, quota enforcement."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hemsim import canon
from hemsim.chipmodel import MeterResource, ThrottleLevel, provision_chip
from hemsim.licensing import (
    InstallResult,
    License,
    RejectReason,
    decode_license,
    enforce,
    install,
    license_wire_bytes,
    make_issuer,
    metered_consume,
)


@pytest.fixture
def world():
    rng = random.Random(11)
    issuer = make_issuer(rng)
    chip = provision_chip(rng, frozenset({issuer.public_key}))
    return rng, issuer, chip


QUOTA = {MeterResource.CLOCK_CYCLES: 1000}


class TestIssue:
    def test_first_license_id_is_zero(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        assert lic.license_id == 0

    def test_ids_increment_per_device(self, world):
        _, issuer, chip = world
        ids = [issuer.issue(chip.identity.device_id, QUOTA).license_id for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_sequencing_is_per_device(self, world):
        rng, issuer, chip = world
        other = provision_chip(rng, frozenset({issuer.public_key}))
        issuer.issue(chip.identity.device_id, QUOTA)
        lic_other = issuer.issue(other.identity.device_id, QUOTA)
        assert lic_other.license_id == 0

    def test_issued_license_verifies_under_issuer_key(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        from hemsim.licensing import license_signed_bytes

        signed = license_signed_bytes(lic.license_id, lic.device_id, lic.quotas, lic.not_after)
        assert canon.verify(issuer.public_key, signed, lic.issuer_signature)

    def test_negative_quota_rejected(self, world):
        _, issuer, chip = world
        with pytest.raises(ValueError):
            issuer.issue(chip.identity.device_id, {MeterResource.JOULES: -5})


class TestInstall:
    def test_valid_fresh_license_accepted(self, world):
        _, issuer, chip = world
        result = install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=0.0)
        assert result == InstallResult(True)
        assert chip.throttle.level is ThrottleLevel.FULL

    def test_replay_rejected_stale_id(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        assert install(chip, lic, now_ms=0.0).accepted
        result = install(chip, lic, now_ms=1.0)
        assert result.reason is RejectReason.STALE_ID

    def test_out_of_order_older_license_rejected(self, world):
        _, issuer, chip = world
        first = issuer.issue(chip.identity.device_id, QUOTA)
        second = issuer.issue(chip.identity.device_id, QUOTA)
        assert install(chip, second, now_ms=0.0).accepted
        assert install(chip, first, now_ms=0.0).reason is RejectReason.STALE_ID

    def test_cross_device_rejected(self, world):
        rng, issuer, chip = world
        other = provision_chip(rng, frozenset({issuer.public_key}))
        lic_for_other = issuer.issue(other.identity.device_id, QUOTA)
        assert install(chip, lic_for_other, now_ms=0.0).reason is RejectReason.WRONG_DEVICE

    def test_expired_license_rejected(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA, not_after=500)
        assert install(chip, lic, now_ms=501.0).reason is RejectReason.EXPIRED
        fresh = issuer.issue(chip.identity.device_id, QUOTA, not_after=500)
        assert install(chip, fresh, now_ms=500.0).accepted

    def test_non_enrolled_issuer_rejected(self, world):
        rng, issuer, chip = world
        rogue = make_issuer(rng)
        lic = rogue.issue(chip.identity.device_id, QUOTA)
        assert install(chip, lic, now_ms=0.0).reason is RejectReason.BAD_SIGNATURE

    def test_field_mutation_invalidates_signature(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        bumped = License(
            license_id=lic.license_id,
            device_id=lic.device_id,
            quotas=((MeterResource.CLOCK_CYCLES, 10**9),),
            not_after=lic.not_after,
            issuer_signature=lic.issuer_signature,
        )
        assert install(chip, bumped, now_ms=0.0).reason is RejectReason.BAD_SIGNATURE


class TestEnforce:
    def test_no_license_means_disabled_from_boot(self, world):
        _, _, chip = world
        assert chip.throttle.level is ThrottleLevel.DISABLED
        assert enforce(chip).level is ThrottleLevel.DISABLED

    def test_quota_boundary(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=0.0)
        assert metered_consume(chip, MeterResource.CLOCK_CYCLES, 999).applied
        assert chip.throttle.level is ThrottleLevel.FULL
        outcome = metered_consume(chip, MeterResource.CLOCK_CYCLES, 1)
        assert outcome.applied
        assert outcome.throttle_after.level is ThrottleLevel.DISABLED

    def test_crossing_consume_rejected_whole(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=0.0)
        metered_consume(chip, MeterResource.CLOCK_CYCLES, 999)
        outcome = metered_consume(chip, MeterResource.CLOCK_CYCLES, 5)
        assert not outcome.applied and outcome.reason == "quota_exceeded"
        assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) == 999

    def test_renewal_after_exhaustion_restores_full(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=0.0)
        metered_consume(chip, MeterResource.CLOCK_CYCLES, 1000)
        assert chip.throttle.level is ThrottleLevel.DISABLED
        install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=10.0)
        assert chip.throttle.level is ThrottleLevel.FULL
        assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) == 0

    def test_unquoted_resource_not_limited(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA), now_ms=0.0)
        outcome = metered_consume(chip, MeterResource.JOULES, 10**9)
        assert outcome.applied
        assert chip.throttle.level is ThrottleLevel.FULL


class TestQuotaBound:
    def test_random_consume_sequences_never_exceed_quota(self, world):
        _, issuer, chip = world
        seq_rng = random.Random(88)
        for trial in range(50):
            quota = seq_rng.randrange(100, 2000)
            lic = issuer.issue(chip.identity.device_id, {MeterResource.CLOCK_CYCLES: quota})
            assert install(chip, lic, now_ms=float(trial)).accepted
            while chip.throttle.level is ThrottleLevel.FULL:
                metered_consume(chip, MeterResource.CLOCK_CYCLES,
                                seq_rng.randrange(1, 300))
                assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) <= quota


class TestRollbackResistance:
    def test_power_cycling_never_reenables_consumed_license(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        install(chip, lic, now_ms=0.0)
        metered_consume(chip, MeterResource.CLOCK_CYCLES, 1000)
        cut_rng = random.Random(3)
        for i in range(50):
            at = chip.clock_ms + cut_rng.uniform(0.1, 5.0)
            chip.power_loss(at_ms=at)
            chip.power_on(at_ms=at + cut_rng.uniform(0.1, 5.0))
            assert install(chip, lic, now_ms=chip.clock_ms).reason is RejectReason.STALE_ID


class TestRtcExpiryEdge:
    def test_fast_clock_expires_licenses_earlier(self):
        from hemsim.chipmodel import RtcClock

        rng = random.Random(55)
        issuer = make_issuer(rng)
        fast = provision_chip(rng, frozenset({issuer.public_key}),
                              rtc=RtcClock(drift_ppm=50.0))
        exact = provision_chip(rng, frozenset({issuer.public_key}),
                               rtc=RtcClock(drift_ppm=0.0))
        sim_ms = 1_000_000_000.0  # ~11.6 simulated days: +50 ppm is +50 s
        for chip in (fast, exact):
            chip.advance_to(sim_ms)
        not_after = int(sim_ms) + 25_000  # between the two clock readings
        lic_fast = issuer.issue(fast.identity.device_id,
                                {MeterResource.CLOCK_CYCLES: 10}, not_after=not_after)
        lic_exact = issuer.issue(exact.identity.device_id,
                                 {MeterResource.CLOCK_CYCLES: 10}, not_after=not_after)
        assert install(fast, lic_fast, now_ms=fast.rtc_read()).reason \
            is RejectReason.EXPIRED
        assert install(exact, lic_exact, now_ms=exact.rtc_read()).accepted


class TestWireFormat:
    def test_round_trip(self, world):
        _, issuer, chip = world
        lic = issuer.issue(
            chip.identity.device_id,
            {MeterResource.CLOCK_CYCLES: 1000, MeterResource.FLOAT_OPS: 5},
            not_after=123456,
        )
        assert decode_license(license_wire_bytes(lic)) == lic

    def test_quota_entries_sorted_by_resource_ordinal(self, world):
        _, issuer, chip = world
        lic = issuer.issue(
            chip.identity.device_id,
            {MeterResource.JOULES: 1, MeterResource.FLOAT_OPS: 2},
        )
        ordinals = [res.ordinal for res, _ in lic.quotas]
        assert ordinals == sorted(ordinals)

    def test_license_record_structure(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA, not_after=99)
        from hemsim.licensing import license_record

        record = license_record(lic)
        assert list(record) == ["license_id", "device_id", "quota_count", "quotas",
                                "not_after", "signature"]
        assert record["quotas"] == [{"resource": "clock_cycles", "amount": 1000}]
        assert record["not_after"] == 99

    def test_golden_wire_vector(self):
        # Frozen vector: fixed issuer seed, fixed device id. Guards the wire
        # layout (field order, widths, endianness) against regressions.
        issuer = make_issuer(random.Random(1234))
        lic = issuer.issue(0x00112233445566778899AABBCCDDEEFF,
                           {MeterResource.CLOCK_CYCLES: 1000}, not_after=7777)
        wire = license_wire_bytes(lic)
        prefix = (
            "0a0000006c6963656e73652e7631"  # tag "license.v1"
            "0000000000000000"              # license_id 0
            "ffeeddccbbaa99887766554433221100"  # device_id little-endian
            "01000000"                      # one quota entry
            "06"                            # clock_cycles ordinal
            "e803000000000000"              # 1000
            "01611e000000000000"            # not_after present, 7777
        )
        assert wire.hex().startswith(prefix)
        assert decode_license(wire) == lic

    @given(
        license_id=st.integers(min_value=0, max_value=2**64 - 1),
        device_id=st.integers(min_value=0, max_value=2**128 - 1),
        amounts=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=0,
                         max_size=len(MeterResource), unique=True),
        not_after=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
        signature=st.binary(min_size=64, max_size=64),
    )
    def test_wire_round_trip_property(self, license_id, device_id, amounts, not_after,
                                      signature):
        resources = list(MeterResource)[: len(amounts)]
        lic = License(
            license_id=license_id,
            device_id=device_id,
            quotas=tuple(zip(resources, amounts)),
            not_after=not_after,
            issuer_signature=signature,
        )
        assert decode_license(license_wire_bytes(lic)) == lic

    def test_mini_fuzz_zero_acceptances(self, world):
        rng, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        install(chip, lic, now_ms=0.0)
        rogue = make_issuer(rng)
        fuzz_rng = random.Random(999)
        accepted = 0
        for _ in range(500):
            kind = fuzz_rng.randrange(4)
            if kind == 0:  # bit flip in a signed field
                mutated = License(
                    license_id=lic.license_id ^ (1 << fuzz_rng.randrange(20)),
                    device_id=lic.device_id,
                    quotas=lic.quotas,
                    not_after=lic.not_after,
                    issuer_signature=lic.issuer_signature,
                )
            elif kind == 1:  # signature bit flip
                sig = bytearray(lic.issuer_signature)
                bit = fuzz_rng.randrange(len(sig) * 8)
                sig[bit // 8] ^= 1 << (bit % 8)
                mutated = License(lic.license_id, lic.device_id, lic.quotas,
                                  lic.not_after, bytes(sig))
            elif kind == 2:  # forged by a non-enrolled issuer
                mutated = rogue.issue(chip.identity.device_id, QUOTA)
            else:  # replay of the consumed id
                mutated = lic
            if install(chip, mutated, now_ms=1.0).accepted:
                accepted += 1
        assert accepted == 0
