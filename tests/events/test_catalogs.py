"""Tests for the SPR and MI250X event catalogs."""

import numpy as np
import pytest

from repro.events import EventDomain, RawEvent
from repro.events.catalogs import (
    MI250X_DEVICE_COUNT,
    _builders,
    mi250x_events,
    sapphire_rapids_events,
    zen3_events,
)
from repro.activity import Activity, fp_instr_key, valu_instr_key


@pytest.fixture(scope="module")
def spr():
    return sapphire_rapids_events()


@pytest.fixture(scope="module")
def gpu():
    return mi250x_events()


class TestSapphireRapidsCatalog:
    def test_catalog_size_is_substantial(self, spr):
        assert len(spr) > 200

    def test_deterministic_rebuild(self, spr):
        other = sapphire_rapids_events()
        assert other.full_names == spr.full_names
        for name in spr.full_names:
            assert spr.get(name).noise == other.get(name).noise

    def test_key_fp_events_present(self, spr):
        for width in ("128B", "256B", "512B"):
            for prec in ("SINGLE", "DOUBLE"):
                assert f"FP_ARITH_INST_RETIRED:{width}_PACKED_{prec}" in spr
        assert "FP_ARITH_INST_RETIRED:SCALAR_SINGLE" in spr
        assert "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE" in spr

    def test_fp_events_count_fma_twice(self, spr):
        e = spr.get("FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE")
        act = Activity(
            {
                fp_instr_key("256", "dp", "nonfma"): 10.0,
                fp_instr_key("256", "dp", "fma"): 5.0,
            }
        )
        assert e.true_count(act) == 20.0

    def test_fp_events_are_noise_free(self, spr):
        for name in (
            "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
            "BR_INST_RETIRED:COND",
            "BR_MISP_RETIRED",
            "INST_RETIRED:ANY",
        ):
            assert spr.get(name).noise.is_deterministic, name

    def test_cache_events_are_noisy(self, spr):
        for name in (
            "MEM_LOAD_RETIRED:L1_HIT",
            "L2_RQSTS:DEMAND_DATA_RD_HIT",
            "MEM_LOAD_RETIRED:L3_HIT",
        ):
            assert not spr.get(name).noise.is_deterministic, name

    def test_mem_load_l2_attribution_is_offcore_noisy(self, spr):
        # Modelled flakiness that pushes the pipeline toward L2_RQSTS for
        # the L2DH dimension, as in the paper's selection.
        e = spr.get("MEM_LOAD_RETIRED:L2_HIT")
        assert e.noise.kind == "spiky"

    def test_no_speculative_branch_event(self, spr):
        # SPR dropped BR_INST_EXEC; its absence is what makes the paper's
        # "Conditional Branches Executed" metric uncomposable.
        assert not any(n.startswith("BR_INST_EXEC") for n in spr.full_names)
        for name in spr.full_names:
            assert not spr.get(name).responds_to("branch.cond_executed"), name

    def test_misp_alias_precedes_qualified_family(self, spr):
        names = spr.full_names
        assert names.index("BR_MISP_RETIRED") < names.index(
            "BR_MISP_RETIRED:ALL_BRANCHES"
        )

    def test_aggregate_fp_events_are_linear_combinations(self, spr):
        vec = spr.get("FP_ARITH_INST_RETIRED:VECTOR")
        parts = [
            spr.get(f"FP_ARITH_INST_RETIRED:{w}B_PACKED_{p}")
            for w in (128, 256, 512)
            for p in ("SINGLE", "DOUBLE")
        ]
        act = Activity(
            {
                fp_instr_key(w, p, k): float(i + 1)
                for i, (w, p, k) in enumerate(
                    (w, p, k)
                    for w in ("scalar", "128", "256", "512")
                    for p in ("sp", "dp")
                    for k in ("nonfma", "fma")
                )
            }
        )
        assert vec.true_count(act) == pytest.approx(
            sum(p.true_count(act) for p in parts)
        )

    def test_some_events_are_completely_dead(self, spr):
        dead = [
            n
            for n in spr.full_names
            if not spr.get(n).response and spr.get(n).noise.is_deterministic
        ]
        # AMX/TSX etc: the all-zero columns footnote 1 of the paper discards.
        assert len(dead) >= 5

    def test_every_domain_is_populated(self, spr):
        hist = spr.domains()
        for domain in (
            EventDomain.FLOPS,
            EventDomain.BRANCH,
            EventDomain.CACHE,
            EventDomain.TLB,
            EventDomain.PIPELINE,
            EventDomain.FRONTEND,
        ):
            assert hist.get(domain, 0) >= 5, domain


class TestMI250XCatalog:
    def test_catalog_covers_eight_devices(self, gpu):
        assert len(gpu) > 1000
        devices = {e.device for e in gpu}
        assert devices == set(range(MI250X_DEVICE_COUNT))

    def test_key_valu_events_present_per_device(self, gpu):
        for dev in range(MI250X_DEVICE_COUNT):
            for op in ("ADD", "MUL", "TRANS", "FMA"):
                for prec in ("F16", "F32", "F64"):
                    assert f"rocm:::SQ_INSTS_VALU_{op}_{prec}:device={dev}" in gpu

    def test_add_event_counts_subtractions_too(self, gpu):
        e = gpu.get("rocm:::SQ_INSTS_VALU_ADD_F32:device=0")
        act = Activity(
            {valu_instr_key("add", "f32"): 7.0, valu_instr_key("sub", "f32"): 3.0}
        )
        assert e.true_count(act) == 10.0

    def test_fma_counts_instructions_not_operations(self, gpu):
        # Unlike Intel's FP_ARITH double count: one increment per FMA.
        e = gpu.get("rocm:::SQ_INSTS_VALU_FMA_F64:device=0")
        act = Activity({valu_instr_key("fma", "f64"): 12.0})
        assert e.true_count(act) == 12.0

    def test_inactive_devices_have_no_response(self, gpu):
        for dev in range(1, MI250X_DEVICE_COUNT):
            e = gpu.get(f"rocm:::SQ_INSTS_VALU_ADD_F16:device={dev}")
            assert not e.response

    def test_active_device_aggregate_depends_on_parts(self, gpu):
        agg = gpu.get("rocm:::SQ_INSTS_VALU:device=0")
        act = Activity({valu_instr_key("mul", "f32"): 4.0})
        assert agg.true_count(act) == 4.0

    def test_deterministic_rebuild(self, gpu):
        assert mi250x_events().full_names == gpu.full_names



@pytest.mark.parametrize(
    "build, kwargs",
    [
        (sapphire_rapids_events, {}),
        (zen3_events, {}),
        (mi250x_events, {}),
        (mi250x_events, {"device_count": 2, "active_device": 1}),
    ],
    ids=["spr", "zen3", "mi250x", "mi250x-2dev"],
)
class TestCatalogMemoization:
    """Each catalog's events are built once per process; every call still
    hands out its own registry over them."""

    def test_each_call_returns_a_fresh_registry(self, build, kwargs):
        first = build(**kwargs)
        size, digest = len(first), first.content_digest()
        first.add(RawEvent(name="ADDED_BY_A_CALLER", domain=EventDomain.OTHER))
        assert first.content_digest() != digest
        second = build(**kwargs)
        assert len(second) == size
        assert second.content_digest() == digest
        assert "ADDED_BY_A_CALLER" not in second

    def test_cached_build_matches_uncached(self, build, kwargs, monkeypatch):
        cached = build(**kwargs)
        monkeypatch.setattr(
            _builders, "log_uniform_sigma", _builders.log_uniform_sigma.__wrapped__
        )
        uncached = build.__wrapped__(**kwargs)
        assert uncached.name == cached.name
        assert uncached.content_digest() == cached.content_digest()
