"""Tests for the shared activity record and key schema."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import (
    Activity,
    CPU_ACTIVITY_KEYS,
    GPU_ACTIVITY_KEYS,
    flops_per_instruction,
    fp_instr_key,
    valu_instr_key,
)


class TestKeySchema:
    def test_fp_key_format(self):
        assert fp_instr_key("256", "dp", "fma") == "instr.fp.256.dp.fma"
        assert fp_instr_key("scalar", "sp", "nonfma") == "instr.fp.scalar.sp.nonfma"

    def test_fp_key_validation(self):
        with pytest.raises(ValueError):
            fp_instr_key("1024", "dp", "fma")
        with pytest.raises(ValueError):
            fp_instr_key("256", "hp", "fma")
        with pytest.raises(ValueError):
            fp_instr_key("256", "dp", "maybe")

    def test_valu_key_format(self):
        assert valu_instr_key("trans", "f64") == "gpu.valu.trans.f64"

    def test_valu_key_validation(self):
        with pytest.raises(ValueError):
            valu_instr_key("div", "f64")
        with pytest.raises(ValueError):
            valu_instr_key("add", "f128")

    def test_schemas_are_distinct_and_complete(self):
        assert len(set(CPU_ACTIVITY_KEYS)) == len(CPU_ACTIVITY_KEYS)
        assert len(set(GPU_ACTIVITY_KEYS)) == len(GPU_ACTIVITY_KEYS)
        assert not set(CPU_ACTIVITY_KEYS) & set(GPU_ACTIVITY_KEYS)
        assert "instr.fp.512.dp.fma" in CPU_ACTIVITY_KEYS
        assert "gpu.valu.fma.f64" in GPU_ACTIVITY_KEYS


class TestFlopsPerInstruction:
    @pytest.mark.parametrize(
        "width,prec,fma,expected",
        [
            ("scalar", "sp", False, 1),
            ("scalar", "dp", True, 2),
            ("128", "sp", False, 4),
            ("128", "dp", False, 2),
            ("256", "sp", True, 16),
            ("512", "dp", False, 8),
            ("512", "sp", True, 32),
        ],
    )
    def test_table(self, width, prec, fma, expected):
        assert flops_per_instruction(width, prec, fma) == expected

    def test_fma_always_doubles(self):
        for width in ("scalar", "128", "256", "512"):
            for prec in ("sp", "dp"):
                assert flops_per_instruction(width, prec, True) == 2 * flops_per_instruction(
                    width, prec, False
                )


class TestActivityRecord:
    def test_mapping_protocol(self):
        act = Activity({"a": 1.0, "b": 2.0})
        assert act["a"] == 1.0
        assert len(act) == 2
        assert set(act) == {"a", "b"}
        assert "Activity(2 keys, 2 nonzero)" == repr(act)

    def test_unknown_keys_read_zero(self):
        assert Activity({}).get("whatever") == 0.0

    def test_scaled(self):
        act = Activity({"a": 2.0}).scaled(3.0)
        assert act["a"] == 6.0

    def test_merged(self):
        merged = Activity({"a": 1.0}).merged(Activity({"a": 2.0, "b": 5.0}))
        assert merged["a"] == 3.0
        assert merged["b"] == 5.0

    def test_as_dict_is_a_copy(self):
        act = Activity({"a": 1.0})
        d = act.as_dict()
        d["a"] = 99.0
        assert act["a"] == 1.0

    @settings(max_examples=30)
    @given(st.dictionaries(st.sampled_from("abcde"), st.floats(-1e6, 1e6), max_size=5))
    def test_property_merge_commutes(self, counts):
        a = Activity(counts)
        b = Activity({"x": 1.0, "a": 2.0})
        ab = a.merged(b).as_dict()
        ba = b.merged(a).as_dict()
        assert set(ab) == set(ba)
        for key in ab:
            assert ab[key] == pytest.approx(ba[key])

    @settings(max_examples=30)
    @given(st.floats(0.1, 100.0))
    def test_property_scaling_linear(self, factor):
        act = Activity({"a": 3.0, "b": -1.0})
        scaled = act.scaled(factor)
        assert scaled["a"] == pytest.approx(3.0 * factor)
        assert scaled["b"] == pytest.approx(-1.0 * factor)
