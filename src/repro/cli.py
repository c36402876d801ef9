"""Command-line driver: run the analysis for a domain and print the paper-
style artifacts.

Usage::

    repro-cat run  --domain branch                  # pipeline + metric table
    repro-cat noise --domain dcache                 # Fig 2-style variability plot
    repro-cat list-events --system aurora --prefix BR_
    repro-cat run --domain cpu_flops --save-presets presets.json
    repro-cat sweep --systems aurora,frontier-cpu --domains cpu_flops,branch
    repro-cat serve --catalog ./catalog --cache-dir ./cache
    repro-cat catalog list --root ./catalog
    repro-cat vet run --system aurora --output vet.json
    repro-cat run --domain branch --priors vet.json
    repro-cat vet drift --root ./catalog

Exit codes follow one convention across every verb: 0 success, 1 the
analysis itself failed (failed sweep task, strict-mode guard violation,
unaccounted faults), 2 usage or validation error (bad flags, unknown
names, malformed inputs).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.pipeline import AnalysisPipeline, DOMAIN_CONFIGS, PipelineConfig
from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
from repro.guard import GuardViolation
from repro.hardware.systems import aurora_node, frontier_node
from repro.io.store import save_presets
from repro.viz.ascii import log_scatter
from repro.viz.series import fig2_series

__all__ = ["main"]

_DOMAIN_SYSTEM = {
    "cpu_flops": "aurora",
    "branch": "aurora",
    "dcache": "aurora",
    "dtlb": "aurora",
    "gpu_flops": "frontier",
}


def _usage_exit(message: str) -> SystemExit:
    """Usage/validation failure: message on stderr, exit status 2 (the
    same status argparse itself uses for bad flags)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _node(system: str, seed: int):
    if system == "aurora":
        return aurora_node(seed=seed)
    if system == "frontier":
        return frontier_node(seed=seed)
    raise _usage_exit(
        f"unknown system {system!r}; expected aurora or frontier"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cat",
        description="Automated definition of performance metrics from raw "
        "hardware events (IPDPSW'24 reproduction).",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full analysis for a domain")
    run.add_argument("--domain", required=True, choices=sorted(DOMAIN_CONFIGS))
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument("--tau", type=float, default=None, help="noise threshold")
    run.add_argument("--alpha", type=float, default=None, help="QRCP tolerance")
    run.add_argument("--repetitions", type=int, default=None)
    run.add_argument("--rounded", action="store_true", help="show rounded coefficients")
    run.add_argument("--save-presets", metavar="PATH", default=None)
    run.add_argument(
        "--rcond",
        type=float,
        default=None,
        help="least-squares rank-truncation threshold "
        "(default: LAPACK convention max(m,n)*eps)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) instead of printing metrics whose certification "
        "is 'reject' or whose selection needed guarded intervention",
    )
    run.add_argument(
        "--no-guard",
        action="store_true",
        help="disable the numerical-robustness layer "
        "(sentinels, fallback ladders, certification)",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record an observability trace of the run and write it as "
        "JSONL (render it with: repro-cat trace PATH)",
    )
    run.add_argument(
        "--priors",
        metavar="PATH",
        default=None,
        help="validation report (from: repro-cat vet run --output) whose "
        "verdicts gate the analysis: refuted events are excluded before "
        "QRCP selection and every metric carries the vet evidence",
    )

    noise = sub.add_parser("noise", help="Fig 2-style variability plot")
    noise.add_argument("--domain", required=True, choices=sorted(DOMAIN_CONFIGS))
    noise.add_argument("--seed", type=int, default=2024)

    report = sub.add_parser(
        "report", help="full paper-style markdown report for a domain"
    )
    report.add_argument("--domain", required=True, choices=sorted(DOMAIN_CONFIGS))
    report.add_argument("--seed", type=int, default=2024)
    report.add_argument("--output", metavar="PATH", default=None)
    report.add_argument(
        "--auto-thresholds",
        action="store_true",
        help="derive tau and alpha from the data (Section-VII extension) "
        "instead of the paper's constants",
    )

    presets = sub.add_parser(
        "presets", help="derive the full preset table for a system"
    )
    presets.add_argument("--system", required=True, choices=("aurora", "frontier"))
    presets.add_argument("--seed", type=int, default=2024)
    presets.add_argument("--output", metavar="PATH", default=None)

    listing = sub.add_parser("list-events", help="enumerate catalog events")
    listing.add_argument("--system", required=True, choices=("aurora", "frontier"))
    listing.add_argument("--prefix", default=None)
    listing.add_argument("--seed", type=int, default=2024)

    sweep = sub.add_parser(
        "sweep",
        help="fan (system x domain) pipelines across a worker pool; "
        "results print in deterministic task order",
    )
    sweep.add_argument(
        "--systems",
        default="aurora,frontier",
        help="comma-separated: aurora, frontier, frontier-cpu",
    )
    sweep.add_argument(
        "--domains",
        default="cpu_flops,gpu_flops,branch,dcache",
        help="comma-separated domains; incompatible (system, domain) pairs "
        "are skipped",
    )
    sweep.add_argument("--seed", type=int, default=2024)
    sweep.add_argument("--workers", type=int, default=None, help="pool size")
    sweep.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default="process",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed measurement cache shared across workers "
        "and re-runs (re-runs skip measurement entirely)",
    )
    sweep.add_argument(
        "--summary", action="store_true", help="print each pipeline's summary"
    )
    sweep.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults, e.g. "
        "'seed=7,dropout=0.02,spike=0.01,crash=0.3' "
        "(see repro.faults.parse_fault_spec)",
    )
    sweep.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="checkpoint directory: completed tasks are persisted there "
        "and loaded instead of re-run on the next invocation",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon a task attempt running longer than this "
        "(pool executors only)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-submissions of a failed/timed-out task (default 1)",
    )
    sweep.add_argument(
        "--digest",
        action="store_true",
        help="print a deterministic content digest per task (CI compares "
        "these across kill/resume runs)",
    )
    sweep.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record one observability trace covering the whole sweep "
        "and write it as JSONL (serial tasks only: pool workers trace "
        "in their own processes and are not collected)",
    )

    trace = sub.add_parser(
        "trace",
        help="render a JSONL observability trace (from run/sweep --trace)",
    )
    trace.add_argument("path", metavar="PATH", help="trace JSONL file")
    trace.add_argument(
        "--json",
        action="store_true",
        help="machine-readable digest (counters, stage timings) instead "
        "of the summary tree",
    )
    trace.add_argument(
        "--no-counters",
        action="store_true",
        help="omit the counter/gauge tables from the summary tree",
    )

    faults = sub.add_parser("faults", help="fault-injection utilities")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    demo = faults_sub.add_parser(
        "demo",
        help="run one faulted pipeline and print the robustness audit table",
    )
    demo.add_argument("--domain", default="branch", choices=sorted(DOMAIN_CONFIGS))
    demo.add_argument("--seed", type=int, default=2024)
    demo.add_argument(
        "--spec",
        default="seed=7,dropout=0.02,spike=0.01,overflow=0.005,runfail=0.5",
        help="fault specification (same grammar as sweep --faults)",
    )
    demo.add_argument(
        "--summary", action="store_true", help="also print the pipeline summary"
    )

    guard = sub.add_parser("guard", help="numerical-robustness utilities")
    guard_sub = guard.add_subparsers(dest="guard_command", required=True)
    smoke = guard_sub.add_parser(
        "smoke",
        help="run a deliberately ill-conditioned catalog and verify the "
        "guards degrade it to caution (never certified, never a crash)",
    )
    smoke.add_argument("--seed", type=int, default=2024)
    smoke.add_argument(
        "--strict",
        action="store_true",
        help="expect strict mode to raise, naming the forged columns",
    )
    smoke.add_argument(
        "--summary", action="store_true", help="also print the pipeline summary"
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP metric service (coalescing, batching, "
        "versioned catalog); Ctrl-C stops it cleanly",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8752, help="0 = ephemeral")
    serve.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="versioned metric-catalog root; omitted = serve fresh "
        "pipeline runs only, store nothing",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared measurement cache for the pipeline runs",
    )
    serve.add_argument("--workers", type=int, default=2, help="worker pool size")
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="dispatch-queue bound; a full queue rejects with HTTP 429",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=4,
        help="max distinct analyses drained into one dispatch",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-runs of a crashed/faulted analysis (default 1)",
    )
    serve.add_argument(
        "--supervise",
        type=int,
        default=0,
        metavar="N",
        help="run N supervised worker processes behind one front "
        "(heartbeat crash/hang detection, backoff restarts, in-flight "
        "re-dispatch); 0 = single in-process service (default)",
    )
    serve.add_argument(
        "--stale-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="degraded mode: when saturated (or, supervised, when every "
        "worker is down) serve the newest catalog entry no older than "
        "this, stamped stale=true, instead of rejecting (default: off)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="partition the catalog root across N consistent-hash shard "
        "directories (requires --catalog; a root that already carries "
        "shards.json opens with its recorded topology); 0 = unsharded "
        "(default)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="closed-loop serving drill: drive a serving tier with a "
        "deterministic workload, optionally under a chaos fault plan, "
        "and check the invariant (every response bit-identical to the "
        "single-process answer, a typed 429/503/504, or explicitly "
        "stale)",
    )
    loadtest.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="catalog root the drill publishes into (disposable; "
        "required for --target sharded)",
    )
    loadtest.add_argument("--cache-dir", default=None, metavar="DIR")
    loadtest.add_argument(
        "--target",
        default="sharded",
        choices=("sharded", "single"),
        help="sharded = supervised multi-process pool over shard "
        "directories; single = one in-process HTTP service (the "
        "baseline tier)",
    )
    loadtest.add_argument("--workers", type=int, default=2)
    loadtest.add_argument("--shards", type=int, default=2)
    loadtest.add_argument(
        "--system", default="aurora", choices=sorted(SWEEP_SYSTEMS)
    )
    loadtest.add_argument("--domain", default="branch")
    loadtest.add_argument("--clients", type=int, default=4)
    loadtest.add_argument(
        "--requests", type=int, default=6, help="requests per client"
    )
    loadtest.add_argument("--seed", type=int, default=2024)
    loadtest.add_argument(
        "--seed-pool",
        type=int,
        default=2,
        help="distinct analysis seeds the workload draws from",
    )
    loadtest.add_argument(
        "--hot-fraction",
        type=float,
        default=0.6,
        help="fraction of each stream that re-reads hot catalog keys",
    )
    loadtest.add_argument(
        "--rps",
        type=float,
        nargs="*",
        default=[],
        metavar="RPS",
        help="open-loop saturation steps at these offered rates, run "
        "after the closed-loop step (default: closed loop only)",
    )
    loadtest.add_argument(
        "--json",
        action="store_true",
        help="machine-readable per-step rows instead of the summary",
    )
    loadtest.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="fault plan for the sharded pool, e.g. "
        "'seed=7,kill=0.2,hang=0.1,torn=0.3,drop=0.1,latency=0.2' "
        "(see repro.faults.parse_chaos_spec); use --clients 1 "
        "--hot-fraction 0 for a reproducible fault sequence",
    )

    catalog = sub.add_parser(
        "catalog", help="inspect a versioned metric catalog on disk"
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    cat_list = catalog_sub.add_parser(
        "list", help="summary row per stored (arch, metric, config) key"
    )
    cat_list.add_argument("--root", required=True, metavar="DIR")
    cat_list.add_argument("--arch", default=None, help="filter by architecture")
    cat_list.add_argument(
        "--stale-only",
        action="store_true",
        help="only keys whose recorded event-dependency digests no longer "
        "match the live registry (candidates for revalidation)",
    )
    cat_show = catalog_sub.add_parser(
        "show", help="one stored metric definition, bit-exact"
    )
    cat_show.add_argument("--root", required=True, metavar="DIR")
    cat_show.add_argument("--arch", required=True)
    cat_show.add_argument("metric", help="metric name (as served)")
    cat_show.add_argument(
        "--digest",
        default=None,
        help="config digest (only needed when several are stored)",
    )
    cat_show.add_argument(
        "--metric-version",
        type=int,
        default=None,
        help="stored version (default: latest)",
    )
    cat_diff = catalog_sub.add_parser(
        "diff", help="field-level diff between two stored versions"
    )
    cat_diff.add_argument("--root", required=True, metavar="DIR")
    cat_diff.add_argument("--arch", required=True)
    cat_diff.add_argument("metric", help="metric name (as served)")
    cat_diff.add_argument("version_a", type=int)
    cat_diff.add_argument("version_b", type=int)
    cat_diff.add_argument(
        "--digest",
        default=None,
        help="config digest (only needed when several are stored)",
    )
    cat_diff.add_argument(
        "--json",
        action="store_true",
        help="machine-readable structured diff (the format repro-cat vet "
        "drift consumes) instead of the rendered text",
    )
    cat_fsck = catalog_sub.add_parser(
        "fsck",
        help="crash-recovery check: quarantine torn version files, "
        "remove staged leftovers, re-append unlogged publications, "
        "repair a torn log tail",
    )
    cat_fsck.add_argument("--root", required=True, metavar="DIR")
    cat_fsck.add_argument(
        "--compact",
        action="store_true",
        help="also compact the publication log (drop torn lines, "
        "duplicates, and records whose version file is gone)",
    )
    cat_refresh = catalog_sub.add_parser(
        "refresh",
        help="dependency-tracked refresh: recompute only the entries a "
        "registry edit invalidated (an empty catalog gets a full build)",
    )
    cat_refresh.add_argument("--root", required=True, metavar="DIR")
    cat_refresh.add_argument(
        "--system",
        required=True,
        choices=sorted(SWEEP_SYSTEMS),
        help="system whose entries to refresh",
    )
    cat_refresh.add_argument("--seed", type=int, default=2024)
    cat_refresh.add_argument(
        "--domains",
        nargs="+",
        default=None,
        metavar="DOMAIN",
        help="restrict to these domains (default: every domain the "
        "system measures)",
    )
    cat_refresh.add_argument(
        "--edits",
        default=None,
        metavar="FILE",
        help="JSON registry-edit file (see repro.incr.registry_edit); "
        "the refresh runs against the edited registry",
    )
    cat_refresh.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk measurement cache for per-column reuse",
    )

    vet = sub.add_parser(
        "vet",
        help="counter validation: refute lying events before they define "
        "metrics, and detect drift across catalog versions",
    )
    vet_sub = vet.add_subparsers(dest="vet_command", required=True)
    vet_run = vet_sub.add_parser(
        "run",
        help="validation campaign: run known-activity probes across "
        "perturbed configs and hand down per-event verdicts",
    )
    vet_run.add_argument("--system", required=True, choices=sorted(SWEEP_SYSTEMS))
    vet_run.add_argument("--seed", type=int, default=2024)
    vet_run.add_argument(
        "--configs",
        type=int,
        default=3,
        help="perturbed configurations per probe (seed and repetition "
        "jitter; default 3)",
    )
    vet_run.add_argument(
        "--repetitions", type=int, default=None, help="base repetitions"
    )
    vet_run.add_argument(
        "--domains",
        nargs="+",
        default=None,
        metavar="DOMAIN",
        help="restrict the probe set to these domains (default: every "
        "domain the system measures)",
    )
    vet_run.add_argument(
        "--forge",
        action="append",
        default=None,
        metavar="EVENT=KIND[:FACTOR]",
        help="forge an event before the campaign (kinds: overcount, "
        "undercount, multicount, unreliable) — the self-test substrate; "
        "repeatable",
    )
    vet_run.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the validation report as JSON (feed it back via "
        "run --priors)",
    )
    vet_run.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    vet_report = vet_sub.add_parser(
        "report", help="render a saved validation report"
    )
    vet_report.add_argument("path", metavar="PATH", help="report JSON file")
    vet_report.add_argument(
        "--json", action="store_true", help="re-emit the canonical JSON"
    )
    vet_drift = vet_sub.add_parser(
        "drift",
        help="scan a catalog's version history for drift anomalies "
        "(coefficient drift, trust transitions, verdict flips); exit 1 "
        "when anything is flagged",
    )
    vet_drift.add_argument("--root", required=True, metavar="DIR")
    vet_drift.add_argument("--arch", default=None, help="filter by architecture")
    vet_drift.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    vet_smoke = vet_sub.add_parser(
        "smoke",
        help="seeded end-to-end scenario: a forged overcounting event "
        "must be refuted and excluded while a healthy catalog stays "
        "bit-identical",
    )
    vet_smoke.add_argument("--seed", type=int, default=2024)

    ingest = sub.add_parser(
        "ingest",
        help="ingest real perf/PAPI collector files: parse, assemble, and "
        "run the identical noise-filter -> QRCP -> compose path",
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)
    ing_parse = ingest_sub.add_parser(
        "parse",
        help="parse one collector file and print its canonical form "
        "(malformed input exits 2 naming file:line:column)",
    )
    ing_parse.add_argument("path", metavar="FILE")
    ing_parse.add_argument(
        "--format",
        default="auto",
        choices=("auto", "perf-human", "perf-csv", "perf-interval", "papi-csv"),
        help="wire format (default: sniff)",
    )
    ing_parse.add_argument(
        "--summary",
        action="store_true",
        help="print sample/reading counts instead of the canonical text",
    )
    ing_report = ingest_sub.add_parser(
        "report",
        help="assemble a manifest and print the ingestion report: event "
        "aliasing, per-column quality flags, unmapped events, sources",
    )
    ing_report.add_argument("manifest", metavar="MANIFEST")
    ing_report.add_argument(
        "--json",
        action="store_true",
        help="machine-readable provenance payload instead of the report",
    )
    ing_run = ingest_sub.add_parser(
        "run",
        help="assemble a manifest and run the standard analysis pipeline "
        "on the ingested measurement",
    )
    ing_run.add_argument("manifest", metavar="MANIFEST")
    ing_run.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="publish composed metrics into this catalog with ingestion "
        "provenance on their lineage",
    )
    ing_run.add_argument(
        "--strict",
        action="store_true",
        help="raise on guard violations instead of degrading",
    )
    return parser


def _config_for(args) -> PipelineConfig:
    base = DOMAIN_CONFIGS[args.domain]
    overrides = {}
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "repetitions", None) is not None:
        overrides["repetitions"] = args.repetitions
    if getattr(args, "rcond", None) is not None:
        overrides["lstsq_rcond"] = args.rcond
    if getattr(args, "no_guard", False):
        from repro.guard import GuardConfig

        overrides["guard"] = GuardConfig(enabled=False)
    if getattr(args, "strict", False):
        overrides["strict"] = True
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)


def _validate_args(args) -> None:
    """Boundary validation of CLI numerics: fail with the validator's
    actionable message instead of a traceback from deep in the pipeline."""
    from repro.guard import ValidationError
    from repro.guard import validate as v

    context = f"repro-cat {args.command}"
    try:
        if hasattr(args, "seed"):
            v.require_int(args.seed, "--seed", context, minimum=0)
        if getattr(args, "tau", None) is not None:
            v.require_positive(args.tau, "--tau", context)
        if getattr(args, "alpha", None) is not None:
            v.require_positive(args.alpha, "--alpha", context)
        if getattr(args, "repetitions", None) is not None:
            v.require_int(args.repetitions, "--repetitions", context, minimum=2)
        if getattr(args, "rcond", None) is not None:
            v.require_positive(args.rcond, "--rcond", context)
        if getattr(args, "workers", None) is not None:
            v.require_int(args.workers, "--workers", context, minimum=1)
        if getattr(args, "retries", None) is not None:
            v.require_int(args.retries, "--retries", context, minimum=0)
        if getattr(args, "task_timeout", None) is not None:
            v.require_positive(args.task_timeout, "--task-timeout", context)
        if getattr(args, "queue_limit", None) is not None:
            v.require_int(args.queue_limit, "--queue-limit", context, minimum=1)
        if getattr(args, "batch_size", None) is not None:
            v.require_int(args.batch_size, "--batch-size", context, minimum=1)
        if getattr(args, "port", None) is not None:
            v.require_int(args.port, "--port", context, minimum=0)
        if getattr(args, "configs", None) is not None:
            v.require_int(args.configs, "--configs", context, minimum=1)
        if getattr(args, "shards", None) is not None:
            v.require_int(args.shards, "--shards", context, minimum=0)
    except ValidationError as exc:
        raise _usage_exit(str(exc))
    if args.command == "serve" and args.shards > 0 and args.catalog is None:
        raise _usage_exit(
            "repro-cat serve: --shards needs --catalog (a sharded topology "
            "is a property of the catalog root)"
        )
    if (
        args.command == "loadtest"
        and args.target == "sharded"
        and args.catalog is None
    ):
        raise _usage_exit(
            "repro-cat loadtest: --target sharded needs --catalog"
        )
    if args.command == "loadtest" and args.chaos is not None:
        from repro.faults import parse_chaos_spec

        if args.target != "sharded":
            raise _usage_exit("repro-cat loadtest: --chaos needs --target sharded")
        try:
            parse_chaos_spec(args.chaos)  # fail fast on a bad spec
        except ValueError as exc:
            raise _usage_exit(f"repro-cat loadtest: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _trace_scope(args):
    """The observability scope a ``--trace PATH`` flag asks for: a live
    ``obs.tracing`` context, or a null scope yielding ``None``."""
    if getattr(args, "trace", None) is not None:
        from repro.obs import tracing

        return tracing(seed=args.seed)
    from contextlib import nullcontext

    return nullcontext(None)


def _write_trace(tracer, path: str) -> None:
    from pathlib import Path

    Path(path).write_text(tracer.trace().to_jsonl())
    print(f"trace written to {path}", file=sys.stderr)


def _catalog_digest_for(store, arch: str, metric: str, digest: Optional[str]) -> str:
    """Resolve the config digest for a catalog lookup: the explicit flag,
    or the single stored digest — ambiguity is a usage error."""
    if digest is not None:
        return digest
    digests = sorted(
        {
            row["config_digest"]
            for row in store.list_entries(arch)
            if row["metric"] == metric
        }
    )
    if not digests:
        raise _usage_exit(
            f"repro-cat catalog: no entry for ({arch!r}, {metric!r}) under "
            f"{store.root}"
        )
    if len(digests) > 1:
        raise _usage_exit(
            "repro-cat catalog: several config digests stored for "
            f"({arch!r}, {metric!r}); pick one with --digest: "
            + ", ".join(digests)
        )
    return digests[0]


def _catalog_refresh(store, args) -> int:
    """``repro-cat catalog refresh``: dependency-tracked recompute."""
    from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
    from repro.incr import apply_edits, load_edits, refresh_catalog
    from repro.io.cache import MeasurementCache

    node = SWEEP_SYSTEMS[args.system](seed=args.seed)
    domains = tuple(args.domains) if args.domains else SYSTEM_DOMAINS[args.system]
    for domain in domains:
        if domain not in SYSTEM_DOMAINS[args.system]:
            raise _usage_exit(
                f"repro-cat catalog refresh: domain {domain!r} is not "
                f"measurable on {args.system!r} "
                f"(has: {', '.join(SYSTEM_DOMAINS[args.system])})"
            )

    registry = node.events
    if args.edits is not None:
        try:
            edits = load_edits(args.edits)
        except (OSError, ValueError) as exc:
            raise _usage_exit(f"repro-cat catalog refresh: {args.edits}: {exc}")
        try:
            registry = apply_edits(registry, edits)
        except (KeyError, ValueError) as exc:
            raise _usage_exit(
                f"repro-cat catalog refresh: {exc.args[0] if exc.args else exc}"
            )
        for edit in edits:
            print(f"edit: {edit.describe()}", file=sys.stderr)

    cache = MeasurementCache(root=args.cache_dir) if args.cache_dir else None
    try:
        report = refresh_catalog(
            store, node, domains, registry=registry, cache=cache
        )
    except GuardViolation as exc:
        print(f"repro-cat catalog refresh: guard violation: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0


def _catalog_main(args) -> int:
    from repro.serve import open_catalog

    store = open_catalog(args.root)

    if args.catalog_command == "list":
        if args.stale_only:
            from repro.vet import stale_entry_rows

            registries = {
                factory(seed=0).name: factory(seed=0).events
                for factory in SWEEP_SYSTEMS.values()
            }
            rows = stale_entry_rows(store, registries, arch=args.arch)
            if not rows:
                print("(no stale entries: every key matches the live registry)")
                return 0
        else:
            rows = store.list_entries(args.arch)
        if not rows:
            print("(catalog is empty)")
            return 0
        for row in rows:
            trust = row["trust"] or "-"
            flags = []
            if not row["composable"]:
                flags.append("NOT-COMPOSABLE")
            if row["degraded"]:
                flags.append("DEGRADED")
            suffix = ("  " + " ".join(flags)) if flags else ""
            print(
                f"{row['arch']}  {row['metric']}  "
                f"config={row['config_digest']}  v{row['latest_version']} "
                f"({row['versions']} version(s))  err={row['error']:.2e}  "
                f"trust={trust}{suffix}"
            )
            if "stale_reason" in row:
                print(f"    STALE: {row['stale_reason']}")
        return 0

    if args.catalog_command == "fsck":
        report = store.fsck(repair=True)
        print(report.summary())
        for path in report.quarantined:
            print(f"  quarantined: {path}")
        for path in report.relogged:
            print(f"  re-appended to log: {path}")
        if args.compact:
            compaction = store.compact_log()
            print(
                f"log compacted: {compaction.records_before} -> "
                f"{compaction.records_after} record(s) "
                f"({compaction.dropped} dropped)"
            )
        return 0 if report.clean else 1

    if args.catalog_command == "refresh":
        return _catalog_refresh(store, args)

    digest = _catalog_digest_for(store, args.arch, args.metric, args.digest)

    if args.catalog_command == "show":
        entry = store.get(
            args.arch, args.metric, digest, version=args.metric_version
        )
        if entry is None:
            wanted = (
                f"version {args.metric_version}"
                if args.metric_version is not None
                else "latest version"
            )
            raise _usage_exit(
                f"repro-cat catalog: no {wanted} of ({args.arch!r}, "
                f"{args.metric!r}, {digest}) under {store.root}"
            )
        print(f"architecture : {entry.arch}")
        print(f"domain       : {entry.domain} (seed {entry.seed})")
        print(f"config digest: {entry.config_digest}")
        print(f"events digest: {entry.events_digest}")
        print(f"version      : {entry.version}")
        if entry.trace_digest is not None:
            print(f"trace digest : {entry.trace_digest}")
        if entry.provenance:
            prov = entry.provenance
            print(
                f"provenance   : {prov.get('collector')} ingest, uarch "
                f"{prov.get('uarch')} (family {prov.get('family')})"
            )
            print(
                f"  manifest   : {prov.get('manifest')} "
                f"sha256:{prov.get('manifest_digest')}"
            )
            for source, digest in sorted(prov.get("sources", {}).items()):
                print(f"  source     : {source}  sha256:{digest}")
            for event, offset in sorted(prov.get("baseline", {}).items()):
                print(f"  baseline   : {event}: -{offset!r}")
            for event, flags in sorted(prov.get("quality", {}).items()):
                print(f"  quality    : {event}: {', '.join(flags)}")
            if prov.get("unmapped"):
                print(f"  unmapped   : {', '.join(prov['unmapped'])}")
        if entry.guards_fired:
            print(f"guards fired : {', '.join(entry.guards_fired)}")
        print()
        print(entry.definition().pretty())
        return 0

    # catalog_command == "diff"
    try:
        diff = store.diff(
            args.arch, args.metric, digest, args.version_a, args.version_b
        )
    except KeyError as exc:
        raise _usage_exit(f"repro-cat catalog: {exc.args[0]}")
    if args.json:
        import json

        print(json.dumps(diff.to_payload(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0


def _vet_main(args) -> int:
    """``repro-cat vet``: counter validation and drift detection."""
    import json

    if args.vet_command == "run":
        from repro.vet import CampaignConfig, parse_forge_spec, run_campaign

        forge = None
        if args.forge:
            try:
                forge = parse_forge_spec(args.forge)
            except ValueError as exc:
                raise _usage_exit(f"repro-cat vet run: --forge: {exc}")
        overrides = {"seed": args.seed, "n_configs": args.configs}
        if args.repetitions is not None:
            overrides["repetitions"] = args.repetitions
        if args.domains is not None:
            overrides["domains"] = tuple(args.domains)
        try:
            config = CampaignConfig(**overrides)
            report = run_campaign(args.system, config, forge=forge)
        except (KeyError, ValueError) as exc:
            raise _usage_exit(
                f"repro-cat vet run: {exc.args[0] if exc.args else exc}"
            )
        if args.json:
            print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        else:
            print(report.summary())
        if args.output:
            path = report.save(args.output)
            print(f"validation report written to {path}", file=sys.stderr)
        return 0

    if args.vet_command == "report":
        from pathlib import Path

        from repro.vet import ValidationReport

        path = Path(args.path)
        if not path.exists():
            raise _usage_exit(f"repro-cat vet report: no such file: {path}")
        try:
            report = ValidationReport.load(path)
        except (ValueError, KeyError) as exc:
            raise _usage_exit(f"repro-cat vet report: {path}: {exc}")
        if args.json:
            print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        else:
            print(report.summary())
        return 0

    if args.vet_command == "drift":
        from repro.serve import open_catalog
        from repro.vet import detect_drift

        store = open_catalog(args.root)
        report = detect_drift(store, arch=args.arch)
        if args.json:
            print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        else:
            print(report.summary())
        return 1 if report.flagged else 0

    # vet_command == "smoke"
    from repro.vet import run_vet_smoke

    outcome = run_vet_smoke(seed=args.seed)
    print(outcome.describe())
    return 0 if outcome.passed else 1


def _ingest_main(args) -> int:
    """``repro-cat ingest``: real-measurement ingestion.

    Exit-code discipline: malformed or inconsistent input (parse errors
    with file:line:column, bad manifests, alias conflicts) exits 2 like
    any usage error; an ingested analysis that *runs* but fails (strict-
    mode guard violation) exits 1.
    """
    from pathlib import Path

    from repro.ingest import (
        IngestError,
        assemble,
        load_manifest,
        parse_papi_csv,
        parse_perf,
        run_ingest,
        serialize_papi_csv,
        serialize_samples,
    )

    if args.ingest_command == "parse":
        path = Path(args.path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise _usage_exit(f"repro-cat ingest parse: {path}: {exc}")
        try:
            if args.format == "papi-csv" or (
                args.format == "auto"
                and text.lstrip().startswith("row,repetition,")
            ):
                matrix = parse_papi_csv(text, source=str(path))
                if args.summary:
                    print(
                        f"papi-csv: {len(matrix.records)} record(s), "
                        f"{len(matrix.row_labels)} row(s), "
                        f"{len(matrix.event_names)} event(s)"
                    )
                else:
                    print(serialize_papi_csv(matrix), end="")
                return 0
            fmt, samples = parse_perf(text, source=str(path), format=args.format)
            if args.summary:
                readings = sum(len(s.readings) for s in samples)
                print(
                    f"{fmt}: {len(samples)} sample(s), {readings} reading(s)"
                )
            else:
                print(serialize_samples(fmt, samples), end="")
        except IngestError as exc:
            raise _usage_exit(f"repro-cat ingest parse: {exc}")
        return 0

    try:
        bundle = assemble(load_manifest(args.manifest))
    except IngestError as exc:
        raise _usage_exit(f"repro-cat ingest: {exc}")

    if args.ingest_command == "report":
        if args.json:
            import json

            print(json.dumps(bundle.provenance(), indent=2, sort_keys=True))
        else:
            print(bundle.report())
        return 0

    # ingest_command == "run"
    config = None
    if args.strict:
        from dataclasses import replace

        config = replace(DOMAIN_CONFIGS[bundle.manifest.domain], strict=True)
    store = None
    if args.catalog is not None:
        from repro.serve import open_catalog

        store = open_catalog(args.catalog)
    try:
        outcome = run_ingest(bundle, config=config, store=store)
    except GuardViolation as exc:
        print(f"repro-cat ingest run: {exc}", file=sys.stderr)
        return 1
    print(outcome.summary())
    return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _validate_args(args)

    if args.command == "ingest":
        return _ingest_main(args)

    if args.command == "trace":
        from pathlib import Path

        from repro.obs import Trace, render_trace, trace_json_digest

        path = Path(args.path)
        if not path.exists():
            raise _usage_exit(f"repro-cat trace: no such file: {path}")
        try:
            trace = Trace.from_jsonl(path.read_text())
        except ValueError as exc:
            raise _usage_exit(f"repro-cat trace: {path}: {exc}")
        if args.json:
            print(trace_json_digest(trace))
        else:
            print(render_trace(trace, show_counters=not args.no_counters))
        return 0

    if args.command == "guard":
        # guard smoke: the ill-conditioned catalog must degrade, not crash.
        from repro.guard.smoke import run_smoke

        outcome = run_smoke(seed=args.seed, strict=args.strict)
        print(outcome.describe())
        if args.summary and outcome.result is not None:
            print()
            print(outcome.result.summary())
        return 0 if outcome.passed else 1

    if args.command == "serve":
        import asyncio

        def announce(port: int) -> None:
            if args.port == 0:
                # Ephemeral bind: the chosen port is the one piece of
                # output a harness must parse, so it goes on stdout —
                # alone on the first line, before the human-facing
                # announce on stderr.
                print(port, flush=True)
            print(
                f"repro-cat serve: listening on http://{args.host}:{port} "
                f"(catalog: {args.catalog or 'none'})",
                file=sys.stderr,
                flush=True,
            )

        if args.supervise > 0:
            from repro.serve import (
                ServiceSupervisor,
                SupervisorConfig,
                SupervisorServer,
            )

            supervisor = ServiceSupervisor(
                args.catalog,
                cache_dir=args.cache_dir,
                config=SupervisorConfig(
                    workers=args.supervise,
                    service_workers=args.workers,
                    service_queue_limit=args.queue_limit,
                    service_batch_size=args.batch_size,
                    service_retries=args.retries,
                    stale_max_age=args.stale_max_age,
                    shards=args.shards,
                ),
            )
            front = SupervisorServer(supervisor, host=args.host, port=args.port)

            async def serve_supervised() -> None:
                bound = await front.start()
                announce(bound)
                try:
                    await asyncio.Event().wait()
                finally:
                    await front.stop()

            try:
                asyncio.run(serve_supervised())
            except KeyboardInterrupt:
                print("repro-cat serve: stopped", file=sys.stderr)
            return 0

        from repro.serve import MetricService, open_catalog, run_server

        store = (
            open_catalog(args.catalog, shards=args.shards)
            if args.catalog is not None
            else None
        )
        service = MetricService(
            store,
            workers=args.workers,
            queue_limit=args.queue_limit,
            batch_size=args.batch_size,
            cache_dir=args.cache_dir,
            retries=args.retries,
            stale_max_age=args.stale_max_age,
        )

        try:
            asyncio.run(
                run_server(
                    service,
                    host=args.host,
                    port=args.port,
                    ready_message=announce,
                )
            )
        except KeyboardInterrupt:
            print("repro-cat serve: stopped", file=sys.stderr)
        return 0

    if args.command == "loadtest":
        import dataclasses
        import json

        from repro.serve import LoadStep, Workload, run_load_drill

        steps = [LoadStep("closed")] + [
            LoadStep("open", offered_rps=rate) for rate in args.rps
        ]
        try:
            workload = Workload(
                pairs=((args.system, args.domain),),
                clients=args.clients,
                requests_per_client=args.requests,
                base_seed=args.seed,
                seed_pool=args.seed_pool,
                hot_fraction=args.hot_fraction,
            )
        except ValueError as exc:
            raise _usage_exit(f"repro-cat loadtest: {exc}")
        report = run_load_drill(
            args.catalog,
            target=args.target,
            workers=args.workers,
            shards=args.shards,
            workload=workload,
            steps=steps,
            cache_dir=args.cache_dir,
            chaos_spec=args.chaos,
        )
        if args.json:
            fsck = report.fsck
            print(
                json.dumps(
                    {
                        "target": report.target,
                        "ok": report.ok,
                        "violations": len(report.violations),
                        "coalesced": report.coalesced,
                        "catalog_hits": report.catalog_hits,
                        "recovered": report.recovered,
                        "recovery_seconds": report.recovery_seconds,
                        "fsck": None
                        if fsck is None
                        else {**dataclasses.asdict(fsck), "clean": fsck.clean},
                        "steps": [s.to_row() for s in report.steps],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(report.summary())
        for violation in report.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 0 if report.ok else 1

    if args.command == "catalog":
        return _catalog_main(args)

    if args.command == "vet":
        return _vet_main(args)

    if args.command == "list-events":
        node = _node(args.system, args.seed)
        for name in node.events.select(prefix=args.prefix).full_names:
            print(name)
        return 0

    if args.command == "sweep":
        from repro.core.sweep import SweepEngine, expand_grid, result_digest

        systems = [s.strip() for s in args.systems.split(",") if s.strip()]
        domains = [d.strip() for d in args.domains.split(",") if d.strip()]
        faults = None
        if args.faults:
            from repro.faults import parse_fault_spec

            try:
                faults = parse_fault_spec(args.faults)
            except ValueError as exc:
                raise _usage_exit(f"repro-cat sweep: --faults: {exc}")
        try:
            tasks = expand_grid(
                systems,
                domains,
                seed=args.seed,
                cache_dir=args.cache_dir,
                faults=faults,
            )
        except ValueError as exc:
            raise _usage_exit(f"repro-cat sweep: error: {exc}")
        if not tasks:
            raise _usage_exit(
                f"no measurable (system, domain) combination in "
                f"{systems} x {domains}"
            )
        engine = SweepEngine(
            max_workers=args.workers,
            executor=args.executor,
            task_timeout=args.task_timeout,
            max_retries=args.retries,
        )
        with _trace_scope(args) as tracer:
            outcomes = engine.run(tasks, checkpoint_dir=args.resume)
        if tracer is not None:
            _write_trace(tracer, args.trace)
        for outcome in outcomes:
            if not outcome.ok:
                print(
                    f"[{outcome.task.label}] FAILED after {outcome.attempts} "
                    f"attempt(s): {outcome.error}"
                )
                if outcome.traceback:
                    print(
                        "\n".join(
                            f"    {line}"
                            for line in outcome.traceback.rstrip().splitlines()
                        )
                    )
                continue
            result = outcome.result
            composable = sum(1 for m in result.metrics.values() if m.composable)
            how = "resumed" if outcome.resumed else f"ok in {outcome.seconds:.2f}s"
            if outcome.attempts > 1:
                how += f" ({outcome.attempts} attempts)"
            line = (
                f"[{outcome.task.label}] {how}  "
                f"events={result.noise.n_measured} "
                f"selected={len(result.selected_events)} "
                f"composable={composable}/{len(result.metrics)}"
            )
            if result.degraded:
                line += "  DEGRADED"
            if args.digest:
                line += f"  digest={result_digest(result)}"
            print(line)
        if faults is not None:
            from repro.faults import merge_reports

            merged = merge_reports(
                o.result.robustness for o in outcomes if o.ok and o.result
            )
            if args.cache_dir and merged.unaccounted():
                # A worker can corrupt a shared-cache entry after its
                # owner already read it; no in-run read catches that.
                # Fsck the cache: quarantining the entry recovers the
                # fault (the poison is gone, the next read re-measures).
                from repro.io.cache import MeasurementCache

                fsck = MeasurementCache(root=args.cache_dir)
                merged.cache_quarantined.extend(fsck.verify_all())
                merged.mark_cache_recovered(merged.cache_quarantined)
            print()
            print(merged.table())
        if args.summary:
            for outcome in outcomes:
                if outcome.ok:
                    print(f"\n=== {outcome.task.label} ===")
                    print(outcome.result.summary())
        return 0 if all(o.ok for o in outcomes) else 1

    if args.command == "faults":
        # faults demo: one faulted pipeline, full robustness audit table.
        from repro.faults import parse_fault_spec

        try:
            config = parse_fault_spec(args.spec)
        except ValueError as exc:
            raise _usage_exit(f"repro-cat faults demo: --spec: {exc}")
        node = _node(_DOMAIN_SYSTEM[args.domain], args.seed)
        pipeline = AnalysisPipeline.for_domain(args.domain, node, faults=config)
        result = pipeline.run()
        print(f"fault injection: {config.describe()}")
        print(f"pipeline: {args.domain} on {node.name} (seed {args.seed})")
        print()
        report = result.robustness
        if report is None:
            print("(fault spec enables nothing; pipeline ran unfaulted)")
            return 0
        print(report.table())
        if args.summary:
            print()
            print(result.summary())
        return 0 if not report.unaccounted() else 1

    if args.command == "presets":
        from repro.core.derive import derive_presets

        node = _node(args.system, args.seed)
        report = derive_presets(node)
        print(report.summary())
        if args.output:
            path = save_presets(report.presets, args.output)
            print(f"\npresets written to {path}")
        return 0

    node = _node(_DOMAIN_SYSTEM[args.domain], args.seed)

    if args.command == "noise":
        pipeline = AnalysisPipeline.for_domain(args.domain, node)
        result = pipeline.run()
        series = fig2_series(result.noise)
        print(
            log_scatter(
                series.values,
                threshold=series.tau,
                title=f"Sorted event variabilities — {args.domain} on {node.name}",
            )
        )
        return 0

    if args.command == "report":
        from dataclasses import replace

        from repro.core.report import render_report, write_report
        from repro.core.thresholds import select_alpha, select_tau

        pipeline = AnalysisPipeline.for_domain(args.domain, node)
        result = pipeline.run()
        if args.auto_thresholds:
            tau_sel = select_tau(list(result.noise.variabilities.values()))
            alpha_sel = select_alpha(result.representation.x_matrix)
            auto_config = replace(
                DOMAIN_CONFIGS[args.domain], tau=tau_sel.tau, alpha=alpha_sel.alpha
            )
            print(
                f"auto thresholds: tau={tau_sel.tau:.3e} ({tau_sel.method}), "
                f"alpha={alpha_sel.alpha:.3e} "
                f"(plateau {alpha_sel.plateau_low:.1e}..{alpha_sel.plateau_high:.1e})"
            )
            result = AnalysisPipeline.for_domain(
                args.domain, node, config=auto_config
            ).run(measurement=result.measurement)
        if args.output:
            path = write_report(result, args.output)
            print(f"report written to {path}")
        else:
            print(render_report(result))
        return 0

    # command == "run"
    priors = None
    if args.priors is not None:
        from repro.vet import TrustPriors

        try:
            priors = TrustPriors.load(args.priors)
        except (OSError, ValueError, KeyError) as exc:
            raise _usage_exit(f"repro-cat run: --priors: {args.priors}: {exc}")
        if priors.n_refuted:
            print(
                f"priors: {priors.n_refuted} refuted event(s) will be "
                f"excluded ({priors.source})",
                file=sys.stderr,
            )
    pipeline = AnalysisPipeline.for_domain(
        args.domain, node, config=_config_for(args), priors=priors
    )
    with _trace_scope(args) as tracer:
        try:
            result = pipeline.run()
        except GuardViolation as exc:
            if tracer is not None:
                # The partial trace is exactly what diagnoses a strict
                # failure: write it before reporting the violation.
                _write_trace(tracer, args.trace)
            print(f"repro-cat run: {exc}", file=sys.stderr)
            return 1
    if tracer is not None:
        _write_trace(tracer, args.trace)
    print(result.summary())
    print()
    metrics = result.rounded_metrics if args.rounded else result.metrics
    for metric in metrics.values():
        print(metric.pretty())
        print()
    if args.save_presets:
        path = save_presets(result.presets, args.save_presets)
        print(f"presets written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
