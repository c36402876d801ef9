"""Persistence, measurement caching, digests and tabular export.

Re-exports resolve lazily: low-level modules (``repro.obs``,
``repro.serve``) import :mod:`repro.io.digest` for the shared hashing
helpers, and an eager ``from repro.io.cache import ...`` here would pull
``repro.obs`` back in mid-initialization (cache instrumentation) and
deadlock the import graph.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — type-checker-only eager imports
    from repro.io.cache import (
        CacheStats,
        MeasurementCache,
        default_measurement_cache,
        event_set_digest,
        measurement_cache_key,
    )
    from repro.io.digest import (
        canonical_json,
        file_digest,
        json_digest,
        sha256_hex,
    )
    from repro.io.durability import (
        durable_append,
        durable_replace,
        durable_write,
        fsync_dir,
    )
    from repro.io.store import (
        load_measurements,
        load_presets,
        save_measurements,
        save_presets,
    )
    from repro.io.tables import render_markdown_table, write_csv, write_markdown

_EXPORTS = {
    "CacheStats": "repro.io.cache",
    "MeasurementCache": "repro.io.cache",
    "default_measurement_cache": "repro.io.cache",
    "event_set_digest": "repro.io.cache",
    "measurement_cache_key": "repro.io.cache",
    "canonical_json": "repro.io.digest",
    "durable_append": "repro.io.durability",
    "durable_replace": "repro.io.durability",
    "durable_write": "repro.io.durability",
    "fsync_dir": "repro.io.durability",
    "file_digest": "repro.io.digest",
    "json_digest": "repro.io.digest",
    "sha256_hex": "repro.io.digest",
    "load_measurements": "repro.io.store",
    "load_presets": "repro.io.store",
    "save_measurements": "repro.io.store",
    "save_presets": "repro.io.store",
    "render_markdown_table": "repro.io.tables",
    "write_csv": "repro.io.tables",
    "write_markdown": "repro.io.tables",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.io' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return __all__
