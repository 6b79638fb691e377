"""Tests for the variability analysis module."""

import numpy as np
import pytest

from repro.core.variability import (
    DispersionStats,
    explain_variability,
    format_variability,
    variability_report,
)


class TestDispersionStats:
    def test_from_values(self):
        v = np.array([100.0, 110.0, 120.0, 130.0])
        d = DispersionStats.from_values("AD0", v)
        assert d.n == 4
        assert d.mean == pytest.approx(115.0)
        assert d.cov == pytest.approx(d.std / d.mean)
        assert d.tail_spread > d.iqr > 0

    def test_degenerate(self):
        d = DispersionStats.from_values("AD0", np.array([5.0]))
        assert d.n == 1 and d.std == 0.0


@pytest.fixture(scope="module")
def milc_campaign_16(theta_top):
    """MILC at 16 samples per mode, Table II's count at benchmark scale 1:
    an attribution over 5 samples is too noisy to rank the factors."""
    from repro.apps import MILC
    from repro.core.experiment import CampaignConfig, run_campaign

    return run_campaign(theta_top, CampaignConfig(app=MILC(), samples=16, scenario_pool=3))


class TestCampaignVariability:
    def test_report_modes(self, milc_campaign):
        rep = variability_report(milc_campaign)
        assert set(rep) == {"AD0", "AD3"}
        for d in rep.values():
            assert d.cov > 0
            assert d.mean > 0

    def test_ad3_cov_no_worse(self, milc_campaign):
        # the paper's reduced-variability claim, in CoV form
        rep = variability_report(milc_campaign)
        assert rep["AD3"].cov <= rep["AD0"].cov * 1.25

    def test_attribution_structure(self, milc_campaign):
        attr = explain_variability(milc_campaign)
        for mode, parts in attr.items():
            assert set(parts) == {"background_intensity", "groups_spanned", "residual"}
            for v in parts.values():
                assert 0.0 <= v <= 1.0

    def test_intensity_is_the_dominant_factor(self, milc_campaign_16):
        # production variability is driven by how busy the machine is
        attr = explain_variability(milc_campaign_16)
        assert (
            attr["AD0"]["background_intensity"]
            >= attr["AD0"]["groups_spanned"] - 0.05
        )

    def test_format(self, milc_campaign):
        text = format_variability(milc_campaign)
        assert "CoV" in text and "AD3" in text
        assert len(text.splitlines()) == 3


class TestExplainEdgeCases:
    def test_constant_factor_gives_zero(self, milc_campaign):
        # a constant factor cannot explain any variance; copy the shared
        # fixture records rather than mutating them
        import dataclasses

        recs = [
            dataclasses.replace(r, background_intensity=0.5)
            for r in milc_campaign
            if r.mode == "AD0"
        ]
        attr = explain_variability(recs)
        assert attr["AD0"]["background_intensity"] == 0.0
