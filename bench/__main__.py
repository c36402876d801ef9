"""Record benchmark runs and compare two records.

    PYTHONPATH=src python -m bench run [--workload W ...] [--seed N] [--repeats K]
                                       [--trace] [--label L]
    PYTHONPATH=src python -m bench compare PARENT.json CHANGE.json

``run`` starts ``bench/run.py`` once per workload and repeat, each in a
fresh process, repeat ``i`` with seed ``N + i``, the workloads
interleaved so slow drift of the host spreads over all of them.  It
writes ``bench/results/BENCH_<label>.json`` (or, with ``--trace``,
``layers_<label>.json`` and the per-layer table ``layers_<label>.md``):
every run's metrics and output digest, the median and quartiles of each
metric, the host's facts and the git commit.

``compare`` prints the verdict table of :mod:`bench.compare` and exits 1
when any verdict is ``worse`` or a correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.compare import compare, render
from bench.stats import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts() -> Dict[str, Optional[str]]:
    import numpy

    blas = None
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``bench/run.py`` process; its result, digest and detail."""
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} (seed {seed}) exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    detail = json.loads(
        next(line for line in reversed(lines) if line.startswith("bench-detail "))
        .split(" ", 1)[1]
    )
    return {
        "seed": seed,
        **json.loads(lines[-1]),
        "output_digest": detail["output_digest"],
        "detail": detail,
    }


def layers_table(doc: dict, spec: dict) -> str:
    names = list(doc["workloads"])
    lines = [
        f"# Per-layer metrics ({doc['label']}, traced, median of "
        f"{doc['repeats']} run(s) of {doc['seconds']:g} s per workload)",
        "",
        f"Commit `{doc['git_sha']}`; host: {doc['host']['nproc']} cores, "
        f"Python {doc['host']['python']}, numpy {doc['host']['numpy']}, "
        f"BLAS {doc['host']['blas']}.  Per-op values are means over the traced "
        "phase's operations; `obs.overhead_ratio` is the traced phase's time "
        "per op over the untraced phase's, minus one.",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for metric in spec["per_layer"]:
        cells = [
            f"{doc['workloads'][n]['summary'][metric['name']]['median']:.4g}"
            for n in names
        ]
        lines.append(f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def record(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for i in range(args.repeats):
        for name in names:
            began = time.perf_counter()
            run = run_once(name, args.seed + i, seconds, args.trace)
            runs[name].append(run)
            print(
                f"{name} seed {run['seed']}: {'ok' if run['correct'] else 'FAILED'} "
                f"({run['failed']}/{run['attempted']} failed, "
                f"{time.perf_counter() - began:.1f} s)",
                file=sys.stderr,
            )
    doc = {
        "label": args.label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "host": host_facts(),
        "seconds": seconds,
        "repeats": args.repeats,
        "trace": bool(args.trace),
        "workloads": {
            name: {
                "runs": runs[name],
                "summary": {
                    m["name"]: {
                        "unit": m["unit"],
                        **summarize([r["metrics"][m["name"]]["value"] for r in runs[name]]),
                    }
                    for m in declared
                },
            }
            for name in names
        },
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"layers_{args.label}" if args.trace else f"BENCH_{args.label}"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    if args.trace:
        table = RESULTS / f"{stem}.md"
        table.write_text(layers_table(doc, spec))
        print(table)
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record runs into bench/results/")
    run.add_argument("--workload", action="append", help="repeatable; default: all")
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--trace", action="store_true", help="record per-layer metrics")
    run.add_argument("--label", default="local")
    cmp_ = sub.add_parser("compare", help="verdicts of CHANGE against PARENT")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "run":
        return record(args)
    rows = compare(
        json.loads(Path(args.parent).read_text()),
        json.loads(Path(args.change).read_text()),
        load_spec(),
    )
    print(render(rows))
    return 1 if any(r.verdict == "worse" or r.verdict.startswith("correctness") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
