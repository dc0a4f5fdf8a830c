"""Campaign runner: configuration, determinism, report shape, checks."""

import dataclasses
import hashlib

import pytest

from kphall import (
    CampaignConfig,
    build_hypergraph,
    parse_instance,
    run_campaign,
    serialize_instance,
)
from kphall.campaign import MODES, PROPERTY_NAMES, _trial_instance, campaign_jsonable
from kphall.generate import derive_seed, randbelow, unit_float
from kphall.matching import MATCHING_EXISTS, NO_MATCHING


class TestConfig:
    def test_defaults_valid(self):
        CampaignConfig().validate()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0).validate()

    def test_rejects_unknown_property(self):
        with pytest.raises(ValueError):
            CampaignConfig(properties=("nope",)).validate()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            CampaignConfig(k_values=(1,)).validate()


class TestRun:
    def test_all_properties_pass(self):
        report = run_campaign(CampaignConfig(trials=40, seed=42))
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.failed == 0
            assert outcome.passed == outcome.trials == 40

    def test_single_property_smoke(self):
        report = run_campaign(
            CampaignConfig(trials=1, seed=0, properties=("konig",))
        )
        assert report.ok
        assert report.outcomes[0].passed == 1

    def test_mode_filter_skips(self):
        report = run_campaign(
            CampaignConfig(trials=2, seed=0, modes=("random",))
        )
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["unique-hall"].skipped
        assert not by_name["konig"].skipped
        assert report.ok

    def test_deterministic_jsonable(self):
        a = campaign_jsonable(run_campaign(CampaignConfig(trials=10, seed=7)))
        b = campaign_jsonable(run_campaign(CampaignConfig(trials=10, seed=7)))
        assert a == b

    def test_report_counts_sum(self):
        report = run_campaign(CampaignConfig(trials=15, seed=3))
        for o in report.outcomes:
            if not o.skipped:
                assert o.passed + o.failed == o.trials

    def test_failure_embeds_replayable_instance(self, monkeypatch):
        import kphall.campaign as campaign_module

        def broken_check(h):
            return "synthetic failure"

        monkeypatch.setitem(
            campaign_module._PROPERTIES, "konig", ("random", broken_check)
        )
        report = run_campaign(
            CampaignConfig(trials=3, seed=1, properties=("konig",))
        )
        assert not report.ok
        failure = report.outcomes[0].first_failure
        assert failure["trial"] == 0
        assert failure["message"] == "synthetic failure"
        replayed = parse_instance(failure["instance"], strict=False)
        assert replayed.k >= 2


@pytest.mark.parametrize(
    "edges, flipped, expected",
    [
        # Hall fails: a and b both see only c.
        ([["a", "c"], ["b", "c"]], MATCHING_EXISTS, 1),
        # The perfect matching a-c, b-d exists.
        ([["a", "c"], ["b", "d"]], NO_MATCHING, 2),
    ],
)
def test_k2_reduction_catches_a_wrong_verdict(monkeypatch, edges, flipped, expected):
    import kphall.campaign as campaign_module

    check = campaign_module._check_k2_reduction
    h = build_hypergraph([["a", "b"], ["c", "d"]], edges, strict=False)
    assert check(h) is None
    verdict = campaign_module.prefix_hall_verdict

    def flipped_verdict(h, **kwargs):
        return dataclasses.replace(verdict(h, **kwargs), conclusion=flipped)

    monkeypatch.setattr(campaign_module, "prefix_hall_verdict", flipped_verdict)
    assert check(h) == f"verdict says {flipped!r} but alpha'={expected} with t=2"


def test_property_and_mode_names_are_stable():
    assert set(MODES) == {"unique-planted", "random"}
    assert set(PROPERTY_NAMES) == {
        "unique-hall",
        "defect-extension",
        "defect-equivalence",
        "konig",
        "k2-reduction",
    }


# The instances the campaign tests, not just its pass counts: every trial of
# every property for three seeds, serialized and hashed in order.
_TRIAL_DIGEST = "4b6e3ed770f761241c3f1696dcd43df22571cf1edbfb3df659014698feadadec"


def test_trial_instances_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in (0, 42, 2**63 + 5):
        cfg = CampaignConfig(seed=seed)
        for prop in PROPERTY_NAMES:
            for index in range(20):
                text = serialize_instance(_trial_instance(cfg, prop, index))
                digest.update(text.encode("utf-8"))
                count += 1
    assert count == 300
    assert digest.hexdigest() == _TRIAL_DIGEST


def test_scalar_draws_are_pinned():
    assert derive_seed(0) == 1224064390532347950
    assert derive_seed(0, "unique-hall", 0) == 2680696595848977292
    assert derive_seed(42, "konig", 19) == 12706024746775545335
    assert derive_seed(2**64 + 7, "derive", -3) == 17472230899755928792
    assert unit_float(0, "density") == 0.4862295099423558
    assert unit_float(123, "x", 5) == 0.15059789875621224
    assert unit_float(2**64 + 9, "attach", 0, 17) == 0.871482461802671
    assert unit_float(1, "\u00fc", -1, "") == 0.5287112734332672
    assert randbelow(5, 3, "k") == 0
    assert randbelow(99, 1000, "size", 2) == 757
    assert randbelow(7, 48, "t") == 45
    assert randbelow(2**70, 10**9, "size", -(2**63)) == 499384588
