"""Campaign runner: configuration, determinism, report shape, checks."""

import dataclasses

import pytest

from kphall import CampaignConfig, build_hypergraph, parse_instance, run_campaign
from kphall.campaign import MODES, PROPERTY_NAMES, campaign_jsonable
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
