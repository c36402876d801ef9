"""EXP-LOAD: saturation curves for the serving tier, ELAPS-style.

Two experiments, both judged request-by-request against the load
harness's invariant (every response bit-identical to the single-process
baseline answer, a typed 429/503 rejection, or explicitly stale):

1. **Tier comparison** — a read-dominated hot-catalog workload (the
   catalog's write-once-read-many serving profile: one coalesced
   analysis publishes the entries, then every client hammers keyed
   ``GET /v1/metric`` reads) driven closed-loop through (a) one
   in-process asyncio service and (b) the sharded multi-process pool.
   The sharded tier must win on achieved throughput: its dispatcher
   answers fully-fresh keyed reads straight from the shard store's
   read replicas (no worker hop, no per-read disk load-and-verify),
   while the single service re-reads and re-verifies every entry from
   disk per request.  Deliberately *not* a raw compute race — on a
   single-core host no process count can beat one busy process at
   arithmetic; the win measured here is the serving architecture doing
   strictly less work per request.
2. **Saturation sweep** — a hot catalog workload swept open-loop over
   offered request rates; per-step p50/p95/p99 latency and achieved
   throughput trace where the tier saturates.  The crossover data, not
   an anecdote, shows coalescing and backpressure holding.

Results land in ``results/serve_load.md``.  Worker processes spawn per
drill, so this is among the slower benches; rounds are pinned to 1.
"""

import pytest

from repro.io.tables import write_markdown
from repro.serve import LoadStep, Workload, run_load_drill
from repro.serve.chaos import baseline_digests

SEED = 2024

#: Read-dominated population: one rendezvous analysis per client (all
#: coalesce), then hot keyed reads against the published entries.
THROUGHPUT_WORKLOAD = Workload(
    clients=2,
    requests_per_client=100,
    base_seed=SEED,
    seed_pool=1,
    hot_fraction=1.0,
)

#: Hot catalog population for the saturation sweep.
HOT_WORKLOAD = Workload(
    clients=4,
    requests_per_client=6,
    base_seed=SEED,
    seed_pool=2,
    hot_fraction=0.7,
)

SWEEP_RPS = (5.0, 10.0, 20.0, 40.0)

_TIER_ROWS = []
_SWEEP_ROWS = []
_TIER_RPS = {}


@pytest.fixture(scope="module")
def throughput_baseline():
    return baseline_digests(THROUGHPUT_WORKLOAD.universe(), None)


def _tier_row(report):
    step = report.steps[0]
    return [
        report.target,
        step.requests,
        f"{step.duration_seconds:.2f}",
        f"{step.achieved_rps:.1f}",
        f"{step.p50_ms:.0f}",
        f"{step.p95_ms:.0f}",
        f"{step.p99_ms:.0f}",
        len(report.violations),
    ]


def test_single_tier_throughput(benchmark, tmp_path, throughput_baseline):
    report = benchmark.pedantic(
        lambda: run_load_drill(
            str(tmp_path / "catalog"),
            target="single",
            workload=THROUGHPUT_WORKLOAD,
            steps=(LoadStep("closed"),),
            cache_dir=str(tmp_path / "cache"),
            baseline=throughput_baseline,
        ),
        rounds=1,
        iterations=1,
    )
    assert report.ok, report.violations
    _TIER_RPS["single"] = report.steps[0].achieved_rps
    _TIER_ROWS.append(_tier_row(report))


def test_sharded_tier_throughput_beats_single(
    benchmark, tmp_path, throughput_baseline
):
    report = benchmark.pedantic(
        lambda: run_load_drill(
            str(tmp_path / "catalog"),
            target="sharded",
            workers=3,
            shards=3,
            workload=THROUGHPUT_WORKLOAD,
            steps=(LoadStep("closed"),),
            cache_dir=str(tmp_path / "cache"),
            baseline=throughput_baseline,
        ),
        rounds=1,
        iterations=1,
    )
    assert report.ok, report.violations
    _TIER_RPS["sharded"] = report.steps[0].achieved_rps
    _TIER_ROWS.append(_tier_row(report))
    # The acceptance bar: real parallelism must show up as throughput.
    assert _TIER_RPS["sharded"] > _TIER_RPS["single"], (
        f"sharded tier ({_TIER_RPS['sharded']:.1f} rps) did not beat the "
        f"single-process tier ({_TIER_RPS['single']:.1f} rps) on a "
        "pipeline-bound workload"
    )


def test_saturation_sweep(benchmark, tmp_path):
    steps = [LoadStep("closed")] + [
        LoadStep("open", offered_rps=rate) for rate in SWEEP_RPS
    ]
    report = benchmark.pedantic(
        lambda: run_load_drill(
            str(tmp_path / "catalog"),
            target="sharded",
            workers=2,
            shards=2,
            workload=HOT_WORKLOAD,
            steps=steps,
            cache_dir=str(tmp_path / "cache"),
        ),
        rounds=1,
        iterations=1,
    )
    # The invariant must hold at every offered rate, saturated or not.
    assert report.ok, report.violations
    assert report.coalesced >= 1, "rendezvous requests never coalesced"
    for step in report.steps:
        row = step.to_row()
        _SWEEP_ROWS.append(
            [
                row["step"],
                row["offered_rps"] if row["offered_rps"] is not None else "-",
                row["achieved_rps"],
                row["requests"],
                row["identical"],
                row["stale"],
                row["rejected"],
                row["violations"],
                row["p50_ms"],
                row["p95_ms"],
                row["p99_ms"],
            ]
        )


def test_write_serve_load_tables(results_dir):
    assert _TIER_ROWS and _SWEEP_ROWS, "no drill rows collected"
    tier_table = write_markdown(
        results_dir / "serve_load.md",
        [
            "tier",
            "requests",
            "seconds",
            "achieved rps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "violations",
        ],
        _TIER_ROWS,
        title="EXP-LOAD: serving-tier load drills (seed 2024)",
    )
    text = tier_table.read_text()
    text += (
        "\nClosed-loop tier comparison on a read-dominated hot-catalog "
        f"workload ({THROUGHPUT_WORKLOAD.clients} clients x "
        f"{THROUGHPUT_WORKLOAD.requests_per_client} requests, one coalesced "
        "rendezvous analysis then keyed metric reads): the sharded pool "
        "(3 workers, 3 shards, dispatcher answering fresh keyed reads from "
        "its shard-store read replicas) against one in-process service that "
        "loads and verifies every entry from disk per read.\n"
        "\n## Saturation sweep (sharded, 2 workers, 2 shards, hot catalog "
        "workload)\n\n"
    )
    from repro.io.tables import render_markdown_table

    text += render_markdown_table(
        [
            "step",
            "offered rps",
            "achieved rps",
            "requests",
            "identical",
            "stale",
            "rejected",
            "violations",
            "p50 ms",
            "p95 ms",
            "p99 ms",
        ],
        _SWEEP_ROWS,
    )
    text += (
        "\nEvery response at every offered rate was bit-identical to the "
        "single-process baseline answer, a typed 429/503 rejection, or "
        "explicitly stale; `violations` counts anything else (must be 0). "
        "`identical` and `stale` count per-metric verdicts, and a domain "
        "analysis carries every metric of its domain, so they can exceed "
        "`requests`.\n"
    )
    (results_dir / "serve_load.md").write_text(text)
    assert "Saturation sweep" in (results_dir / "serve_load.md").read_text()
