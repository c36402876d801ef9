"""The shared ``key=value`` spec grammar against the two parsers it replaced.

``parse_fault_spec`` and ``parse_chaos_spec`` used to be two copies of
one grammar, each with its own ``describe``, ``enabled`` and rate check.
Test-local copies of those originals live here; every spec below must
parse to an equal config, render a byte-equal ``describe()``, agree on
``enabled`` and fail with the same error on malformed input.
"""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.faults import ChaosConfig, FaultConfig, parse_chaos_spec, parse_fault_spec
from repro.faults.chaos import _SPEC_ALIASES as CHAOS_ALIASES
from repro.faults.model import _SPEC_ALIASES as FAULT_ALIASES

CI_FILE = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

# -- the original parsers, describes, enabled and rate lists -------------

_FAULT_BOOL_FIELDS = ("transient",)
_FAULT_INT_FIELDS = ("seed", "overflow_bits")
_CHAOS_INT_FIELDS = ("seed",)
_FAULT_RATES = (
    "dropout_rate",
    "overflow_rate",
    "spike_rate",
    "run_failure_rate",
    "crash_rate",
    "hang_rate",
    "cache_corruption_rate",
)
_CHAOS_RATES = (
    "worker_kill_rate",
    "worker_hang_rate",
    "torn_publication_rate",
    "unlogged_publication_rate",
    "socket_drop_rate",
    "latency_rate",
)


def reference_parse_fault_spec(spec):
    valid = {f.name for f in fields(FaultConfig)}
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec term {part!r}: expected key=value"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        field_name = FAULT_ALIASES.get(key, key)
        if field_name not in valid:
            raise ValueError(
                f"unknown fault spec key {key!r}; known keys: "
                f"{sorted(valid | set(FAULT_ALIASES))}"
            )
        raw = raw.strip()
        if field_name in _FAULT_BOOL_FIELDS:
            kwargs[field_name] = raw.lower() in ("1", "true", "yes", "on")
        elif field_name in _FAULT_INT_FIELDS:
            kwargs[field_name] = int(raw)
        else:
            kwargs[field_name] = float(raw)
    return FaultConfig(**kwargs)


def reference_parse_chaos_spec(spec):
    valid = {f.name for f in fields(ChaosConfig)}
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad chaos spec term {part!r}: expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        field_name = CHAOS_ALIASES.get(key, key)
        if field_name not in valid:
            raise ValueError(
                f"unknown chaos spec key {key!r}; known keys: "
                f"{sorted(valid | set(CHAOS_ALIASES))}"
            )
        raw = raw.strip()
        if field_name in _CHAOS_INT_FIELDS:
            kwargs[field_name] = int(raw)
        else:
            kwargs[field_name] = float(raw)
    return ChaosConfig(**kwargs)


def reference_fault_describe(config):
    parts = [f"seed={config.seed}"]
    for f in fields(config):
        if f.name == "seed":
            continue
        value = getattr(config, f.name)
        if value != f.default and not (
            isinstance(value, float)
            and isinstance(f.default, float)
            and value != value  # NaN default
            and f.default != f.default
        ):
            parts.append(f"{f.name}={value}")
    return ",".join(parts)


def reference_chaos_describe(config):
    parts = [f"seed={config.seed}"]
    for f in fields(config):
        if f.name == "seed":
            continue
        value = getattr(config, f.name)
        if value != f.default:
            parts.append(f"{f.name}={value}")
    return ",".join(parts)


def reference_fault_enabled(config):
    return (
        config.dropout_rate > 0
        or config.spike_rate > 0
        or (config.overflow_rate > 0 and config.overflow_bits > 0)
        or config.run_failure_rate > 0
        or config.crash_rate > 0
        or config.hang_rate > 0
        or config.cache_corruption_rate > 0
    )


def reference_chaos_enabled(config):
    return any(getattr(config, name) > 0 for name in _CHAOS_RATES)


# -- the specs ------------------------------------------------------------


def _ci_specs(flags):
    """Every quoted ``--<flag> "..."`` spec in the CI workflow."""
    text = CI_FILE.read_text()
    return sorted(
        set(re.findall(rf'--(?:{"|".join(flags)}) "([^"]+)"', text))
    )


def _field_specs(config_cls, aliases):
    """One spec per alias and per field name, in every value form."""
    specs = []
    for f in fields(config_cls):
        if isinstance(f.default, bool):
            values = "true false 1 0 yes no on off TRUE Yes"
        elif isinstance(f.default, int):
            values = "0 7 32 48 -3"
        else:
            values = "0 0.5 1 .25 5e-1 1e-3 1.0"
        specs.extend(f"{f.name}= {v} " for v in values.split())
    for alias in aliases:
        specs.extend(f"{alias}={v}" for v in ("0", "0.2", "1e-2", "1"))
    return specs


FAULT_SPECS = _field_specs(FaultConfig, FAULT_ALIASES) + [
    "", " , ,", "seed=7", "dropout_value=nan", "dropout_value=NaN,dropout=0.1",
    "dropout_value=0,dropout=0.1", "dropout_value=-1.5", "overflow=0.05",
    "overflow=0.05,overflow_bits=32", " seed = 3 , dropout = 0.25 ",
    "dropout=0.1,dropout=0.2",
    "seed=7,dropout=0.02,spike=0.01,overflow=0.005,runfail=0.5",
    "seed=9,dropout=0.1,spike=0.05,overflow=0.01,runfail=0.2,crash=0.3,"
    "hang=0.4,cache=0.5,hang_seconds=2,spike_scale=10,transient=0",
] + _ci_specs(("spec", "faults"))

CHAOS_SPECS = _field_specs(ChaosConfig, CHAOS_ALIASES) + [
    "", "seed=7,hang_seconds=9", " kill = 0.5 , ",
    "seed=7,kill=0.2,hang=0.1,torn=0.3,unlogged=0.05,drop=0.1,latency=0.5,"
    "latency_seconds=0.01",
] + _ci_specs(("chaos",))

MALFORMED = [
    "dropout", "dropout=x", "=", "=0.1", "nonsense=1", "seed=1.5", "seed=",
    "overflow_bits=x", "latency_seconds=abc", "transient", "kill=2",
    "dropout=-0.1", "hang_seconds=-1", "latency_seconds=-1", "spike_scale=0",
    "overflow_bits=-1", "seed=7,,bogus",
]


def _values(config):
    """Field values with their types; NaN compares equal to NaN."""
    return [
        (f.name, type(v), "nan" if isinstance(v, float) and math.isnan(v) else v)
        for f in fields(config)
        for v in [getattr(config, f.name)]
    ]


def _outcome(parse, spec):
    try:
        return parse(spec), None
    except Exception as exc:  # noqa: BLE001 - compared against the reference
        return None, (type(exc), str(exc))


def test_ci_specs_are_covered():
    assert len(_ci_specs(("spec", "faults"))) >= 2
    assert len(_ci_specs(("chaos",))) >= 1


@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_fault_spec_matches_reference(spec):
    got, got_err = _outcome(parse_fault_spec, spec)
    want, want_err = _outcome(reference_parse_fault_spec, spec)
    assert got_err == want_err
    if want is not None:
        assert _values(got) == _values(want)
        assert got.describe() == reference_fault_describe(want)
        assert got.enabled == reference_fault_enabled(want)


@pytest.mark.parametrize("spec", CHAOS_SPECS)
def test_chaos_spec_matches_reference(spec):
    got, got_err = _outcome(parse_chaos_spec, spec)
    want, want_err = _outcome(reference_parse_chaos_spec, spec)
    assert got_err == want_err
    if want is not None:
        assert got == want
        assert got.describe() == reference_chaos_describe(want)
        assert got.enabled == reference_chaos_enabled(want)


@pytest.mark.parametrize("spec", MALFORMED)
def test_malformed_specs_fail_alike(spec):
    for parse, reference in (
        (parse_fault_spec, reference_parse_fault_spec),
        (parse_chaos_spec, reference_parse_chaos_spec),
    ):
        got = _outcome(parse, spec)[1]
        assert got is not None, spec
        assert got == _outcome(reference, spec)[1]


@pytest.mark.parametrize(
    "config_cls, rates",
    [(FaultConfig, _FAULT_RATES), (ChaosConfig, _CHAOS_RATES)],
)
def test_rate_check_covers_the_same_fields(config_cls, rates):
    names = tuple(f.name for f in fields(config_cls) if f.name.endswith("_rate"))
    assert names == rates
    for name in rates:
        for bad in (-0.1, 1.5):
            message = rf"^{name} must be in \[0, 1\]; got {bad}$"
            with pytest.raises(ValueError, match=message):
                config_cls(**{name: bad})
        assert config_cls(**{name: 1.0}).enabled == (name != "overflow_rate")
