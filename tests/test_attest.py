"""Compute accounting and workload classification tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemsim import canon
from hemsim.attest import (
    SNAPSHOT,
    DeviceStatus,
    WorkloadLabel,
    WorkloadTrace,
    classification_flip_point,
    classify,
    covert_rollback_chain,
    emit_snapshot,
    fragment,
    fragmentation_demo,
    metered_ops,
    generate_trace,
    inject_noise,
    verify_chain,
)
from hemsim.chipmodel import (
    MeterResource,
    ThrottleLevel,
    ZeroizedError,
    provision_chip,
)


@pytest.fixture
def fleet():
    rng = random.Random(404)
    issuer = canon.generate_keypair(rng.randbytes(32))
    registry = {}
    chips = []
    for _ in range(4):
        chip = provision_chip(rng, frozenset({issuer.public_bytes}))
        chip.throttle = ThrottleLevel.FULL
        registry[chip.identity.device_id] = chip.public_key
        chips.append(chip)
    return rng, registry, chips


class TestSnapshots:
    def test_snapshot_after_zero_consumption_all_zero(self, fleet):
        _, registry, chips = fleet
        fields, _, _ = SNAPSHOT.decode(emit_snapshot(chips[0]))
        assert fields["meters"] == {r: 0 for r in MeterResource}

    def test_delta_matches_consumption(self, fleet):
        _, registry, chips = fleet
        chip = chips[0]
        first, _, _ = SNAPSHOT.decode(emit_snapshot(chip))
        chip.consume(MeterResource.FLOAT_OPS, 10**6)
        second, _, _ = SNAPSHOT.decode(emit_snapshot(chip))
        delta = second["meters"][MeterResource.FLOAT_OPS] - first["meters"][MeterResource.FLOAT_OPS]
        assert delta == 10**6

    def test_tampered_snapshot_rejected(self, fleet):
        _, registry, chips = fleet
        chip = chips[0]
        chip.consume(MeterResource.FLOAT_OPS, 500)
        fields, _, signature = SNAPSHOT.decode(emit_snapshot(chip))
        meters = {**fields["meters"], MeterResource.FLOAT_OPS: 0}
        doctored = SNAPSHOT.signed(**{**fields, "meters": meters}) + canon.blob(signature)
        report = verify_chain({chip.identity.device_id: [doctored]}, registry)
        assert report.device_results[0].status is DeviceStatus.BAD_SIGNATURE

    def test_zeroized_chip_refuses_snapshot(self, fleet):
        _, _, chips = fleet
        chips[0].tamper_event("enclosure_breach")
        with pytest.raises(ZeroizedError):
            emit_snapshot(chips[0])

    @settings(max_examples=40, deadline=None)
    @given(actions=st.lists(st.sampled_from(
        ["snapshot", "other_chip", "consume", "advance", "power_cycle", "rollback"]),
        max_size=24))
    def test_chip_numbers_its_snapshots_whatever_the_caller_does(self, actions):
        rng = random.Random(7)
        chip, other = (provision_chip(rng, frozenset()) for _ in range(2))
        chip.throttle = ThrottleLevel.FULL
        numbers = []
        for action in actions:
            if action == "snapshot":
                numbers.append(SNAPSHOT.decode(emit_snapshot(chip))[0]["sequence_no"])
            elif action == "other_chip":
                emit_snapshot(other)
            elif action == "consume":
                chip.consume(MeterResource.FLOAT_OPS, 1000)
            elif action == "advance":
                chip.advance_to(chip.clock_ms + 500.0)
            elif action == "power_cycle":  # the counter is write-through
                chip.power_loss(chip.clock_ms + 1.0)
                chip.power_on(chip.clock_ms + 1.0)
            else:
                chip.tamper_event("meter_rollback", covert=True,
                                  resource=MeterResource.FLOAT_OPS, amount=500)
        assert numbers == list(range(len(numbers)))

    def test_refused_snapshot_uses_up_no_number(self, fleet):
        _, _, chips = fleet
        emit_snapshot(chips[0])
        chips[0].tamper_event("enclosure_breach")
        for _ in range(3):
            with pytest.raises(ZeroizedError):
                emit_snapshot(chips[0])
        assert chips[0].next_sequence_no == 1


class TestVerifyChain:
    def _run_honest(self, chips, per_chip_ops, snapshots=5):
        table = {}
        for chip, ops in zip(chips, per_chip_ops):
            seq = [emit_snapshot(chip)]
            for _ in range(1, snapshots):
                chip.consume(MeterResource.FLOAT_OPS, ops // (snapshots - 1))
                seq.append(emit_snapshot(chip))
            table[chip.identity.device_id] = seq
        return table

    def test_honest_totals_exact_and_threshold(self, fleet):
        _, registry, chips = fleet
        per_chip = [5 * 10**8] * 4  # 2e9 total against a 1e9 threshold
        table = self._run_honest(chips, per_chip)
        report = verify_chain(table, registry, threshold=10**9)
        assert report.totals[MeterResource.FLOAT_OPS] == sum(per_chip)
        assert report.exceeds_threshold
        assert not report.incomplete
        under = verify_chain(table, registry, threshold=3 * 10**9)
        assert not under.exceeds_threshold

    def test_covert_rollback_detected_with_offending_pair(self, fleet):
        _, registry, chips = fleet
        chip = chips[0]
        snaps = []
        for _ in range(6):
            chip.consume(MeterResource.FLOAT_OPS, 1000)
            snaps.append(emit_snapshot(chip))
        chip.tamper_event("meter_rollback", covert=True,
                          resource=MeterResource.FLOAT_OPS, amount=2500)
        snaps.append(emit_snapshot(chip))
        report = verify_chain({chip.identity.device_id: snaps}, registry)
        result = report.device_results[0]
        assert result.status is DeviceStatus.METER_ROLLBACK
        assert result.offending_pair == (5, 6)

    def test_empty_snapshot_set_flags_no_data(self, fleet):
        _, registry, chips = fleet
        report = verify_chain({chips[0].identity.device_id: []}, registry)
        assert report.device_results[0].status is DeviceStatus.NO_DATA
        assert report.totals[MeterResource.FLOAT_OPS] == 0

    def test_unknown_device_unverifiable_and_excluded(self, fleet):
        rng, registry, chips = fleet
        stranger = provision_chip(rng, frozenset())
        stranger.throttle = ThrottleLevel.FULL
        stranger.consume(MeterResource.FLOAT_OPS, 999)
        snaps = [emit_snapshot(stranger), emit_snapshot(stranger)]
        report = verify_chain({stranger.identity.device_id: snaps}, registry)
        assert report.device_results[0].status is DeviceStatus.UNVERIFIABLE
        assert report.incomplete
        assert report.totals[MeterResource.FLOAT_OPS] == 0

    def test_sequence_gap_detected(self, fleet):
        _, registry, chips = fleet
        chip = chips[0]
        snaps = [emit_snapshot(chip)]
        chip.consume(MeterResource.FLOAT_OPS, 10)
        emit_snapshot(chip)  # sequence 1, held back
        snaps.append(emit_snapshot(chip))
        report = verify_chain({chip.identity.device_id: snaps}, registry)
        assert report.device_results[0].status is DeviceStatus.SEQUENCE_GAP
        assert report.device_results[0].offending_pair == (0, 2)

    def test_report_is_stable(self, fleet):
        _, registry, chips = fleet
        table = self._run_honest(chips, [100] * 4, snapshots=2)
        assert verify_chain(table, registry) == verify_chain(table, registry)


class TestCovertRollbackChain:
    def test_rollback_names_the_pair_and_totals_nothing(self):
        report, true_total = covert_rollback_chain(random.Random(404))
        (result,) = report.device_results
        assert result.status is DeviceStatus.METER_ROLLBACK
        assert result.offending_pair == (3, 4)
        assert true_total == 4 * 10**6
        assert report.totals[MeterResource.FLOAT_OPS] == 0 and report.incomplete


class TestTraceValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace(np.zeros((2, 10)), np.zeros((2, 9)), np.zeros((2, 10)))

    def test_out_of_range_utilization_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace(np.full((2, 10), 1.5), np.zeros((2, 10)), np.zeros((2, 10)))


class TestClassifier:
    def test_frontier_template_classified(self):
        rng = np.random.default_rng(1)
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, rng)
        # Frontier training needs all three features, fleet size and periodic sync among them.
        assert classify(trace) is WorkloadLabel.FRONTIER_TRAINING

    def test_single_device_bursty_trace_not_frontier(self):
        rng = np.random.default_rng(2)
        trace = generate_trace(WorkloadLabel.INFERENCE, rng, devices=1)
        assert classify(trace) is not WorkloadLabel.FRONTIER_TRAINING

    def test_short_trace_indeterminate(self):
        rng = np.random.default_rng(3)
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, rng, steps=8)
        assert classify(trace) is WorkloadLabel.INDETERMINATE

    def test_accuracy_on_generated_corpus(self):
        rng = np.random.default_rng(42)
        correct = 0
        total = 90
        labels = [WorkloadLabel.FRONTIER_TRAINING, WorkloadLabel.INFERENCE,
                  WorkloadLabel.NON_AI]
        for i in range(total):
            label = labels[i % 3]
            trace = generate_trace(label, rng)
            if classify(trace) is label:
                correct += 1
        assert correct / total >= 0.9


class TestEvasion:
    def test_zero_magnitude_noise_changes_nothing(self):
        rng = np.random.default_rng(7)
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, rng)
        perturbed = inject_noise(trace, 0.0, np.random.default_rng(8))
        assert np.array_equal(perturbed.utilization, trace.utilization)
        assert classify(perturbed) is classify(trace)

    def test_noise_sweep_reports_flip_point(self):
        rng = np.random.default_rng(9)
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, rng)
        flip = classification_flip_point(trace, [0.0, 0.05, 0.1, 0.2, 0.4, 0.8], rng_seed=10)
        assert flip is not None and flip > 0.0
        noisy = inject_noise(trace, flip, np.random.default_rng(10))
        assert noisy.device_count == trace.device_count
        assert classify(noisy) is not classify(trace)

    def test_fragmentation_defeats_classifier_not_accounting(self):
        rng = np.random.default_rng(11)
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, rng, devices=240)
        assert classify(trace) is WorkloadLabel.FRONTIER_TRAINING
        fragments = fragment(trace, 4)
        assert all(f.device_count == 60 for f in fragments)
        for frag in fragments:
            assert classify(frag) is not WorkloadLabel.FRONTIER_TRAINING
        stacked = np.vstack([f.utilization for f in fragments])
        assert stacked.shape == trace.utilization.shape
        assert stacked.sum() == pytest.approx(trace.utilization.sum())

    def test_fragmentation_demo_reports_evasion_and_metered_union(self):
        trace = generate_trace(WorkloadLabel.FRONTIER_TRAINING, np.random.default_rng(11),
                               devices=240)
        demo = fragmentation_demo(trace, 4)
        assert demo.whole_label is WorkloadLabel.FRONTIER_TRAINING
        assert len(demo.fragment_labels) == len(demo.fragment_ops) == 4
        assert demo.evaded
        assert abs(sum(demo.fragment_ops) - metered_ops(trace)) <= 4

    def test_non_ai_run_is_not_counted_as_evaded(self):
        # No fragment reads as frontier training, but neither did the whole run.
        trace = generate_trace(WorkloadLabel.NON_AI, np.random.default_rng(12), devices=32)
        demo = fragmentation_demo(trace, 4)
        assert demo.whole_label is WorkloadLabel.NON_AI
        assert all(label is not WorkloadLabel.FRONTIER_TRAINING
                   for label in demo.fragment_labels)
        assert not demo.evaded
