"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analyze-dcache --seed 2024 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
(without it the run exits 1 and prints no result).  The set-up is timed
several times (``setup_s`` is the median), then one phase runs whole
cycles of operations for about ``--seconds``.  With ``--trace 1`` the
time is split between an untraced phase and a traced one with the layer
probes of :mod:`bench.layers` installed; the traced phase replays the
untraced one's operations where the workload allows, and their outputs
must be bit-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it starts with ``bench-detail`` and
carries the output digest and sample counts ``python -m bench`` records.
Scratch files live under ``.bench_tmp/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _teardown_check(workload, state, label: str):
    problems = workload.teardown(state)
    return (f"teardown {label}", "; ".join(problems) or None)


def measure(workload, args, tmp: Path):
    """Set up, run the phase(s) and check; returns the raw results."""
    from bench.layers import LayerProbe

    keep = workload.replay_states if args.trace else 1
    # A traced run reports no set-up time, and splits its time between
    # the untraced and the traced phase.
    setups = keep if args.trace or args.quick else SETUPS
    seconds = args.seconds / 2 if args.trace else args.seconds
    cycles = 1 if args.quick else None
    setup_seconds, states, checks = [], [], []
    traced = probe = None
    try:
        for i in range(setups):
            began = time.perf_counter()
            states.append(workload.setup(tmp / f"setup{i}"))
            setup_seconds.append(time.perf_counter() - began)
            if len(states) > keep:
                checks.append(_teardown_check(workload, states.pop(0), f"set-up {i}"))
        checks += workload.prepare(states[0])
        phase = workload.drive(states[0], seconds, cycles=cycles)
        if args.trace:
            checks += workload.golden_checks()
            probe = LayerProbe().install()
            try:
                traced = workload.drive(
                    states[-1],
                    seconds,
                    cycles=phase.cycles if workload.replays else cycles,
                    probe=probe,
                )
            finally:
                probe.uninstall()
            if workload.replays:
                same = [s.digest for s in phase.samples] == [
                    s.digest for s in traced.samples
                ]
                checks.append(("traced == untraced", None if same else "digests differ"))
        checks += workload.final_checks(states[0])
    finally:
        while states:
            checks.append(_teardown_check(workload, states.pop(), "final"))
    return setup_seconds, phase, traced, probe, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one set-up and one cycle (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")

    from bench.stats import percentile
    from bench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    workload = WORKLOADS[args.workload](ROOT, args.seed, env)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        setup_seconds, phase, traced, probe, checks = measure(workload, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    samples = phase.samples + (traced.samples if traced is not None else [])
    bad_samples = [s for s in samples if s.error is not None]
    bad_checks = [(name, error) for name, error in checks if error is not None]
    if args.trace:
        values = dict(probe.metrics())
        values.update(workload.layer_metrics(traced))
        values["obs.overhead_ratio"] = (
            workload.estimates(phase)[0] / workload.estimates(traced)[0] - 1.0
        )
        declared = spec["per_layer"]
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        }
    else:
        ops_per_s, latencies = workload.estimates(phase)
        values = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": ops_per_s,
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "output_digest": workload.output_digest(phase),
        "cycles": phase.cycles,
        "samples": dict(Counter(s.kind for s in phase.samples)),
        "setup_seconds": setup_seconds,
        "checks": len(checks),
        "golden": sum(1 for name, _ in checks if name.startswith("golden ")),
        "failures": [f"{s.key}: {s.error}" for s in bad_samples[:5]]
        + [f"{name}: {error}" for name, error in bad_checks[:5]],
    }
    print("bench-detail " + json.dumps(detail, sort_keys=True))
    failed = len(bad_samples) + len(bad_checks)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples) + len(checks),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
