"""Shared fixtures.

Topology construction and campaign runs are the expensive pieces, so
they are session-scoped; tests must treat them as read-only (anything
mutating — counter banks, pools — builds its own instance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.systems import cori, mini, theta, toy


@pytest.fixture(scope="session")
def theta_top():
    return theta()


@pytest.fixture(scope="session")
def cori_top():
    return cori()


@pytest.fixture(scope="session")
def mini_top():
    return mini()


@pytest.fixture(scope="session")
def toy_top():
    return toy()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def milc_campaign(theta_top):
    """A small paired MILC campaign shared by analysis-layer tests."""
    from repro.apps import MILC
    from repro.core.experiment import CampaignConfig, run_campaign

    cfg = CampaignConfig(app=MILC(), samples=5, scenario_pool=3)
    return run_campaign(theta_top, cfg)
