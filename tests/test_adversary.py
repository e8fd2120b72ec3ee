"""Attack matrix tests: coverage, tier structure, and both-direction claims."""

import pytest

import hemsim.adversary
from hemsim.adversary import (
    ATTACK_INVENTORY,
    ATTACKS,
    Capability,
    ScenarioConfigError,
    TIER_CAPABILITIES,
    Tier,
    attack,
    matrix_report,
    profile_for_tier,
    run_attack,
    run_matrix,
    unexercised_rows,
)

OPEN = profile_for_tier(Tier.OPEN, latency_factor=0.5, counterfeit_trials=2000)


class TestTierStructure:
    def test_tiers_strictly_nested(self):
        minimal = TIER_CAPABILITIES[Tier.MINIMAL]
        covert = TIER_CAPABILITIES[Tier.COVERT]
        open_ = TIER_CAPABILITIES[Tier.OPEN]
        assert minimal < covert < open_

    def test_key_extraction_only_in_open_tier(self):
        assert Capability.KEY_EXTRACTION not in TIER_CAPABILITIES[Tier.MINIMAL]
        assert Capability.KEY_EXTRACTION not in TIER_CAPABILITIES[Tier.COVERT]
        assert Capability.KEY_EXTRACTION in TIER_CAPABILITIES[Tier.OPEN]

    def test_missing_capability_is_config_error(self):
        minimal = profile_for_tier(Tier.MINIMAL, latency_factor=0.5, counterfeit_trials=2000)
        with pytest.raises(ScenarioConfigError):
            run_attack("geoloc_key_extraction_relay", minimal, seed=1)

    def test_rows_reaching_a_gated_helper_require_its_capability(self, monkeypatch):
        # The helpers trust their caller, so `required` is all that gates them.
        gated = {"bridge_transfer": Capability.PCIE_BRIDGE,
                 "extract_signing_oracle": Capability.KEY_EXTRACTION}
        reached, seen, ungated = set(), set(), []
        for helper in gated:
            def spy(*args, _helper=helper, _original=getattr(hemsim.adversary, helper),
                    **kwargs):
                reached.add(_helper)
                return _original(*args, **kwargs)
            monkeypatch.setattr(hemsim.adversary, helper, spy)
        for name, spec in sorted(ATTACKS.items()):
            reached.clear()
            run_attack(name, OPEN, seed=7)
            seen |= reached
            ungated += [(name, h) for h in sorted(reached) if gated[h] not in spec.required]
        assert seen == set(gated)
        assert not ungated, ungated


class TestMatrixCompleteness:
    def test_every_inventory_row_has_a_scenario(self):
        assert unexercised_rows() == []

    def test_registry_matches_inventory_exactly(self):
        inventory_names = {name for names in ATTACK_INVENTORY.values() for name in names}
        assert inventory_names == set(ATTACKS)

    @pytest.mark.parametrize("name, message", [
        ("licensing_counterfeit", "registered twice"),
        ("licensing_wormhole", "not in ATTACK_INVENTORY"),
    ])
    def test_decorator_rejects_duplicate_and_uninventoried_names(self, name, message):
        before = dict(ATTACKS)
        with pytest.raises(ValueError, match=message):
            attack(name, expect=(False, True))(lambda profile, rng: {})
        assert ATTACKS == before

    def test_matrix_report_has_one_row_per_attack(self):
        outcomes = run_matrix(OPEN, seed=7)
        report = matrix_report(outcomes)
        lines = report.strip().split("\n")
        assert len(lines) == len(ATTACKS) + 1  # header


class TestExpectedOutcomes:
    """Both directions: defenses hold where claimed, fail where conceded."""

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_outcome_matches_expectation(self, name):
        outcome = run_attack(name, OPEN, seed=20_000)
        spec = ATTACKS[name]
        assert outcome.succeeded == spec.expected_succeeded, outcome.evidence
        assert outcome.detected == spec.expected_detected, outcome.evidence

    def test_relay_documents_the_conceded_spoof(self):
        outcome = run_attack("geoloc_key_extraction_relay", OPEN, seed=5)
        assert outcome.succeeded and not outcome.detected
        assert outcome.evidence["relay_site_in_region"]
        assert not outcome.evidence["truth_in_region"]

    def test_slowdown_grows_uncertainty_without_success(self):
        outcome = run_attack("geoloc_delay_slowdown", OPEN, seed=6)
        assert not outcome.succeeded
        assert outcome.evidence["uncertainty_grew"]

    def test_fragmentation_union_total_still_exceeds_threshold(self):
        outcome = run_attack("accounting_fragmentation", OPEN, seed=8)
        assert outcome.succeeded
        assert outcome.evidence["union_exceeds_threshold"]

    def test_meter_rollback_asymmetry(self):
        # Local license enforcement is fooled; chain verification catches it.
        outcome = run_attack("licensing_meter_rollback", OPEN, seed=9)
        assert outcome.succeeded and outcome.detected
        assert outcome.evidence["overdraft"] > 0
        assert outcome.evidence["verifier_status"] == "meter_rollback"
