"""Persistence for measurement sets and pipeline artifacts.

Measurements are expensive to (re)collect on real machines, so CAT-style
workflows snapshot them: the dense reading array goes into ``.npz`` and the
labels into a JSON sidecar, making the artifact both compact and greppable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.cat.measurement import MeasurementSet
from repro.guard.validate import require_finite, require_nonempty
from repro.papi.presets import PresetMetric, PresetTable

__all__ = [
    "load_measurements",
    "load_presets",
    "save_measurements",
    "save_presets",
]


def save_measurements(measurement: MeasurementSet, path: Union[str, Path]) -> Path:
    """Write a measurement set to ``<path>.npz`` + ``<path>.json``.

    Returns the npz path.  Any existing files are overwritten (snapshots
    are immutable by convention: name them by benchmark + seed).
    """
    path = Path(path)
    if path.suffix == ".npz":
        path = path.with_suffix("")
    npz_path = path.with_suffix(".npz")
    json_path = path.with_suffix(".json")
    np.savez_compressed(npz_path, data=measurement.data)
    meta = {
        "benchmark": measurement.benchmark,
        "row_labels": measurement.row_labels,
        "event_names": measurement.event_names,
        "shape": list(measurement.data.shape),
        "pmu_runs": measurement.pmu_runs,
    }
    json_path.write_text(json.dumps(meta, indent=2))
    return npz_path


def load_measurements(path: Union[str, Path]) -> MeasurementSet:
    """Load a measurement set saved by :func:`save_measurements`."""
    path = Path(path)
    if path.suffix == ".npz":
        path = path.with_suffix("")
    npz_path = path.with_suffix(".npz")
    json_path = path.with_suffix(".json")
    if not npz_path.exists() or not json_path.exists():
        raise FileNotFoundError(
            f"measurement snapshot {path} requires both {npz_path.name} and "
            f"{json_path.name}"
        )
    meta = json.loads(json_path.read_text())
    with np.load(npz_path) as archive:
        data = archive["data"]
    if list(data.shape) != meta["shape"]:
        raise ValueError(
            f"snapshot corrupt: data shape {data.shape} vs metadata {meta['shape']}"
        )
    # Deserialization boundary: a truncated npz or a hand-edited sidecar
    # must fail here with the reason, not deep inside a least-squares
    # solve three stages later.
    context = f"measurement snapshot {npz_path.name}"
    require_nonempty(meta["event_names"], "event_names", context)
    require_nonempty(meta["row_labels"], "row_labels", context)
    require_finite(data, "data", context)
    return MeasurementSet(
        benchmark=meta["benchmark"],
        row_labels=meta["row_labels"],
        event_names=meta["event_names"],
        data=data,
        # Sidecars written before pmu_runs was persisted load as None.
        pmu_runs=meta.get("pmu_runs"),
    )


def save_presets(table: PresetTable, path: Union[str, Path]) -> Path:
    """Write a preset table as JSON (the shape of a PAPI preset file)."""
    path = Path(path)
    payload = {
        "architecture": table.architecture,
        "presets": [
            {
                "name": p.name,
                "terms": dict(p.terms),
                "fitness": p.fitness,
                "description": p.description,
            }
            for p in table
        ],
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_presets(path: Union[str, Path]) -> PresetTable:
    """Load a preset table saved by :func:`save_presets`."""
    payload = json.loads(Path(path).read_text())
    table = PresetTable(architecture=payload["architecture"])
    context = f"preset file {Path(path).name}"
    for entry in payload["presets"]:
        terms = dict(entry["terms"])
        if terms:
            require_finite(
                np.array(list(terms.values())),
                f"terms of preset {entry['name']!r}",
                context,
            )
        fitness = entry["fitness"]
        if not np.isfinite(fitness) or fitness < 0:
            raise ValueError(
                f"{context}: preset {entry['name']!r} has invalid fitness "
                f"{fitness!r} (must be finite and >= 0)"
            )
        table.define(
            PresetMetric(
                name=entry["name"],
                terms=terms,
                fitness=fitness,
                description=entry.get("description", ""),
            )
        )
    return table
