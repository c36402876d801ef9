"""Shared campaign fixtures for the vet suite.

Campaigns are the expensive part (each runs every probe across perturbed
configs), so the healthy and the forged campaign run once per session
and every module asserts on the same reports.
"""

import pytest

from repro.vet import CampaignConfig, run_campaign

#: The first deterministic event the cpu_flops QRCP selection depends on
#: at seed 2024 — verified by tests/vet/test_priors.py against the live run.
FORGE_TARGET = "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE"


@pytest.fixture(scope="session")
def campaign_config():
    return CampaignConfig(
        seed=2024, n_configs=2, repetitions=3, domains=("cpu_flops",)
    )


@pytest.fixture(scope="session")
def healthy_report(campaign_config):
    return run_campaign("aurora", campaign_config)


@pytest.fixture(scope="session")
def forged_report(campaign_config):
    return run_campaign(
        "aurora",
        campaign_config,
        forge={FORGE_TARGET: ("overcount", 1.5)},
    )
