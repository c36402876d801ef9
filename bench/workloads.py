"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs, builds its state in a
timed set-up, and then runs *cycles* of operations.  A cycle is the
smallest run of operations whose mix of costs does not depend on the
seed, so a time-boxed phase that runs whole cycles measures the same mix
on every seed; the seed only changes *which* inputs of each kind run.

============== ====================================================
workload       why it exists
============== ====================================================
analyze-dcache The cache simulation is ~97% of a ``dcache`` analysis
               and certification ~2%: a cache-simulation change shows
               here, a certification change must not.
analyze-fit    Analyses whose time is mostly certification, plus the
               ingest parsers; the cache simulation is a few percent
               (the ``dtlb`` analyses only).  The mirror of
               analyze-dcache.
refresh        Catalog writes beside freshness-proof reads, per-column
               measurement reuse and dependency tracking after registry
               edits.
serve-mixed    The only workload that crosses the serving tier: keyed
               reads, catalog-hit analyses and fresh analyses from two
               closed-loop clients.
============== ====================================================

Every operation is timed from outside and its output checked outside
the timer; a wrong output is a failed operation.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.io.digest import json_digest

__all__ = ["WORKLOADS", "Failure", "Op", "Sample"]


class Failure(Exception):
    """An operation or check produced a wrong or missing output."""


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check`` receives ``run``'s return value and returns the output
    digest, or raises :class:`Failure`.
    """

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Sample:
    kind: str
    key: str
    seconds: float
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class Phase:
    """What one timed phase measured."""

    samples: List[Sample]
    cycles: int
    #: Operations per cycle (single-client workloads).
    per_cycle: int = 0
    #: Wall time of the phase (concurrent workloads).
    wall_seconds: float = 0.0
    #: Serving-tier counter deltas over the phase (traced phase only).
    counters: Dict[str, float] = field(default_factory=dict)


def definitions_digest(metrics: Dict[str, Any]) -> str:
    """Digest of metric definitions: events, coefficient bytes, error
    bits, trust level and the degraded flag of every metric."""
    return json_digest(
        {
            name: {
                "events": list(m.event_names),
                "coefficients": m.coefficients.astype("<f8").tobytes().hex(),
                "error": float(m.error).hex(),
                "trust": m.trust.level if m.trust is not None else None,
                "degraded": bool(m.degraded),
            }
            for name, m in sorted(metrics.items())
        },
        length=16,
    )


def probe_imports(modules: Sequence[str], env: Dict[str, str]) -> None:
    """Import ``modules`` in a fresh interpreter: the start-up cost a
    user pays before the first operation of a new process."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env,
        check=True,
        timeout=120,
    )


def _timed(op: Op, tracer_seed: Optional[int], probe) -> Sample:
    began = time.perf_counter()
    try:
        if probe is None:
            result = op.run()
        else:
            with obs.tracing(seed=tracer_seed) as tracer:
                result = op.run()
    except Exception as exc:  # noqa: BLE001 — a failed op is a measurement
        return Sample(op.kind, op.key, time.perf_counter() - began,
                      error=f"{type(exc).__name__}: {exc}")
    sample = Sample(op.kind, op.key, time.perf_counter() - began)
    if probe is not None:
        probe.absorb(tracer)
    try:
        sample.digest = op.check(result)
    except Failure as exc:
        sample.error = str(exc)
    return sample


class Workload:
    """Base of the single-client workloads: whole cycles, one at a time.

    Subclasses give ``setup`` and ``cycle`` and, optionally,
    ``teardown`` and ``final_checks``.  ``replay_states`` is how many
    set-up states the traced run needs: its traced phase replays the
    untraced phase's operations, on the same state when operations do
    not change it, on a second state when they do.
    """

    name = ""
    replay_states = 1
    replays = True

    def __init__(self, root: Path, seed: int, env: Dict[str, str]):
        self.root = root
        self.seed = seed
        self.env = env

    def setup(self, tmp: Path) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> List[str]:
        return []

    def cycle(self, state: Any, k: int) -> Iterator[Op]:
        raise NotImplementedError

    def prepare(self, state: Any) -> List[Tuple[str, Optional[str]]]:
        """Untimed work between set-up and the first phase."""
        return []

    def final_checks(self, state: Any) -> List[Tuple[str, Optional[str]]]:
        return []

    def golden_checks(self) -> List[Tuple[str, Optional[str]]]:
        return []

    def output_digest(self, phase: Phase) -> str:
        """Digest of the first cycle's outputs: equal across runs of the
        same seed, whatever the number of cycles."""
        return json_digest([s.digest for s in phase.samples[: phase.per_cycle]], length=16)

    def estimates(self, phase: Phase) -> Tuple[float, List[float]]:
        """Throughput (ops/s) and the per-operation latencies of a phase.

        Every cycle runs the same kinds of operation in the same order,
        so each kind's latency is its best over the phase's cycles:
        interference from other tenants of a shared host only ever slows
        an operation down, and arrives in bursts of seconds.  Throughput
        is one cycle's operations over the sum of those latencies.
        """
        per = phase.per_cycle
        best = [min(s.seconds for s in phase.samples[j::per]) for j in range(per)]
        return per / sum(best), best

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        """Per-layer metrics measured from outside the process."""
        return {}

    def drive(
        self,
        state: Any,
        seconds: float,
        cycles: Optional[int] = None,
        probe=None,
    ) -> Phase:
        """Run whole cycles: exactly ``cycles`` of them, or the whole
        number nearest to ``seconds`` (at least one): the next cycle
        starts while at least half of it, judged by the last cycle's
        length, still fits."""
        samples: List[Sample] = []
        began = time.perf_counter()
        k = per_cycle = 0
        while True:
            cycle_began = time.perf_counter()
            for op in self.cycle(state, k):
                samples.append(_timed(op, self.seed, probe))
            k += 1
            per_cycle = per_cycle or len(samples)
            now = time.perf_counter()
            if cycles is not None:
                if k >= cycles:
                    break
            elif now - began + (now - cycle_began) / 2 > seconds:
                break
        return Phase(samples, k, per_cycle, time.perf_counter() - began)


# -- the two analysis workloads ------------------------------------------


def _golden_cases():
    """The golden end-to-end cases and their projection, from the test
    suite (the fixtures they compare against live beside them)."""
    from tests import test_golden_e2e as golden

    return golden


def _system_of(node_factory) -> str:
    from repro.core.sweep import SWEEP_SYSTEMS

    return next(s for s, f in SWEEP_SYSTEMS.items() if f is node_factory)


class AnalyzeWorkload(Workload):
    #: What each set-up imports in a fresh interpreter.
    modules = ("repro", "repro.core.pipeline", "repro.core.sweep", "repro.ingest")
    #: (system, domain) analyses of one cycle, and ingest corpora.
    pairs: Tuple[Tuple[str, str], ...] = ()
    corpora: Tuple[str, ...] = ()
    #: Which golden cases this workload covers (by domain).
    golden_domains: Tuple[str, ...] = ()
    #: Metrics the ingest corpora must mark degraded: each composes a
    #: quality-flagged column.
    ingest_degraded = ("Correctly Predicted Branches.", "Mispredicted Branches.")

    def setup(self, tmp: Path) -> Any:
        from repro import AnalysisPipeline
        from repro.hardware.systems import aurora_node

        probe_imports(self.modules, self.env)
        self._expected = self._expected_composable()
        self._ingest_digests: Dict[str, str] = {}
        # Warm-up on a seed no operation uses: lazy imports and first-call
        # costs land in set-up, not in the first timed operation.
        AnalysisPipeline.for_domain("branch", aurora_node(seed=self.seed + 100_000)).run()
        return None

    def _expected_composable(self) -> Dict[Tuple[str, str], Optional[set]]:
        """Composable metric sets per pair.  Which metrics compose does
        not depend on the seed: pairs with a golden fixture must match
        its set, the others must compose every metric."""
        golden = _golden_cases()
        expected: Dict[Tuple[str, str], Optional[set]] = {p: None for p in self.pairs}
        for name, _, factory, domain in golden.CASES:
            pair = (_system_of(factory), domain)
            if pair in expected:
                fixture = json.loads((golden.GOLDEN_DIR / f"{name}.json").read_text())
                expected[pair] = {
                    m for m, entry in fixture["metrics"].items() if entry["composable"]
                }
        return expected

    def _analysis(self, system: str, domain: str, seed: int) -> Op:
        from repro import AnalysisPipeline
        from repro.core.sweep import SWEEP_SYSTEMS

        def run():
            return AnalysisPipeline.for_domain(
                domain, SWEEP_SYSTEMS[system](seed=seed)
            ).run()

        def check(result) -> str:
            composable = {n for n, m in result.metrics.items() if m.composable}
            want = self._expected[(system, domain)]
            if want is None:
                want = set(result.metrics)
            if composable != want:
                raise Failure(
                    f"{system}/{domain}@{seed}: composable {sorted(composable)} "
                    f"!= expected {sorted(want)}"
                )
            return definitions_digest(result.metrics)

        return Op("analysis", f"{system}/{domain}@{seed}", run, check)

    def _ingest(self, corpus: str) -> Op:
        from repro.ingest import assemble, load_manifest, run_ingest

        manifest = self.root / "tests" / "data" / "ingest" / corpus / "manifest.json"

        def run():
            return run_ingest(assemble(load_manifest(manifest)))

        def check(outcome) -> str:
            if sorted(outcome.degraded_metrics) != sorted(self.ingest_degraded):
                raise Failure(
                    f"ingest {corpus}: degraded {sorted(outcome.degraded_metrics)}"
                )
            digest = definitions_digest(outcome.result.metrics)
            first = self._ingest_digests.setdefault(corpus, digest)
            if digest != first:
                raise Failure(f"ingest {corpus}: output changed between repeats")
            return digest

        return Op("ingest", f"ingest:{corpus}", run, check)

    def cycle(self, state: Any, k: int) -> Iterator[Op]:
        # A new seed every cycle: no analysis input repeats within a
        # phase, so a program-side cache of results cannot flatter it.
        for system, domain in self.pairs:
            yield self._analysis(system, domain, self.seed + k)
        for corpus in self.corpora:
            yield self._ingest(corpus)

    def golden_checks(self) -> List[Tuple[str, Optional[str]]]:
        """Compare the covered seed-2024 golden cases with their
        fixtures (run traced, as the fixtures were made)."""
        golden = _golden_cases()
        checks = []
        for name, catalog, factory, domain in golden.CASES:
            if domain not in self.golden_domains:
                continue
            result = golden.run_case(factory, domain)
            actual = golden.dumps(golden.golden_payload(result, catalog))
            expected = (golden.GOLDEN_DIR / f"{name}.json").read_text()
            checks.append((f"golden {name}", None if actual == expected else "drift"))
        return checks


class AnalyzeDcache(AnalyzeWorkload):
    name = "analyze-dcache"
    pairs = (("aurora", "dcache"), ("frontier-cpu", "dcache"))
    golden_domains = ("dcache",)


class AnalyzeFit(AnalyzeWorkload):
    name = "analyze-fit"
    pairs = (
        ("aurora", "cpu_flops"),
        ("aurora", "branch"),
        ("aurora", "dtlb"),
        ("frontier-cpu", "cpu_flops"),
        ("frontier-cpu", "branch"),
        ("frontier-cpu", "dtlb"),
        ("frontier", "gpu_flops"),
    )
    corpora = ("spr_branch", "zen3_branch")
    golden_domains = ("cpu_flops", "branch", "gpu_flops")


# -- refresh -------------------------------------------------------------


@dataclass
class RefreshState:
    tmp: Path
    nodes: Dict[str, Any]
    registries: Dict[str, Any]
    store: Any
    cache: Any


class Refresh(Workload):
    """Full catalog build in set-up; timed refreshes after registry edits.

    A cycle is eight cumulative one-event ``scale-response`` edits plus a
    no-op refresh after every fourth.  Each edit slot names a system and
    an *event* domain, which fixes the set of analyses the edit makes
    stale (and so the cost of the refresh); the seed picks the event in
    that domain and the factor.  One slot invalidates the SPR ``dcache``
    (and ``cpu_flops``, ``dtlb``) analyses, the others only cheap ones.
    """

    name = "refresh"
    modules = ("repro", "repro.incr", "repro.serve.catalog")
    replay_states = 2
    SLOTS: Tuple[Optional[Tuple[str, str]], ...] = (
        ("aurora", "cache"),
        ("aurora", "flops"),
        ("frontier", "gpu_valu"),
        ("frontier-cpu", "branch"),
        None,
        ("frontier-cpu", "frontend"),
        ("aurora", "branch"),
        ("frontier-cpu", "flops"),
        ("frontier", "gpu_memory"),
        None,
    )
    #: Column-cache capacity: every measured column of the three systems
    #: stays resident, so reuse is limited by the edits, not by eviction.
    COLUMN_CACHE_ENTRIES = 8192

    def setup(self, tmp: Path) -> RefreshState:
        from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
        from repro.incr import refresh_catalog
        from repro.io.cache import MeasurementCache
        from repro.serve.catalog import MetricCatalogStore

        probe_imports(self.modules, self.env)
        nodes = {s: factory(seed=self.seed) for s, factory in SWEEP_SYSTEMS.items()}
        cache = MeasurementCache(max_memory_entries=self.COLUMN_CACHE_ENTRIES)
        store = MetricCatalogStore(tmp / "catalog")
        for system, node in nodes.items():
            report = refresh_catalog(store, node, SYSTEM_DOMAINS[system], cache=cache)
            if report.unchanged or not report.refreshed:
                raise Failure(f"full build of {system} reused entries of an empty store")
        return RefreshState(
            tmp, nodes, {s: n.events for s, n in nodes.items()}, store, cache
        )

    def _stale_domains(self, system: str, event_domain: str) -> set:
        from repro.core.sweep import SYSTEM_DOMAINS
        from repro.incr import measured_event_domains

        return {
            d for d in SYSTEM_DOMAINS[system]
            if event_domain in measured_event_domains(d)
        }

    def _refresh_all(self, state: RefreshState, registries: Dict[str, Any]):
        from repro.core.sweep import SYSTEM_DOMAINS
        from repro.incr import refresh_catalog

        return {
            system: refresh_catalog(
                state.store,
                node,
                SYSTEM_DOMAINS[system],
                registry=registries[system],
                cache=state.cache,
            )
            for system, node in state.nodes.items()
        }

    def cycle(self, state: RefreshState, k: int) -> Iterator[Op]:
        from repro.incr import RegistryEdit, apply_edits

        rng = random.Random(f"refresh:{self.seed}:{k}")
        for slot in self.SLOTS:
            stale: Dict[str, set] = {}
            key = "no-op"
            if slot is not None:
                system, event_domain = slot
                candidates = [
                    e.full_name
                    for e in state.registries[system]
                    if e.domain == event_domain and any(e.response.values())
                ]
                event = rng.choice(candidates)
                factor = round(rng.uniform(1.1, 2.0), 3)
                state.registries[system] = apply_edits(
                    state.registries[system],
                    [RegistryEdit("scale-response", event=event, factor=factor)],
                )
                stale[system] = self._stale_domains(system, event_domain)
                key = f"{system}:{event}x{factor}"
            registries = dict(state.registries)
            yield Op(
                "refresh" if slot else "no-op",
                key,
                lambda r=registries: self._refresh_all(state, r),
                lambda reports, s=stale, key=key: self._check(reports, s, key),
            )

    @staticmethod
    def _check(reports, stale: Dict[str, set], key: str) -> str:
        rows = []
        for system, report in reports.items():
            want = stale.get(system, set())
            if set(report.stale_domains) != want:
                raise Failure(
                    f"{key}: {system} refreshed {report.stale_domains}, "
                    f"expected {sorted(want)}"
                )
            for domain in want:
                delta = report.deltas[domain]
                if delta.measured != 1 or delta.reused != delta.total - 1:
                    raise Failure(
                        f"{key}: {system}/{domain} measured {delta.measured} "
                        f"and reused {delta.reused} of {delta.total} columns"
                    )
            rows.extend(
                [system, d, m, report.entries[(d, m)].content_digest()]
                for d, m in sorted(report.refreshed)
            )
        return json_digest(rows, length=16)

    def final_checks(self, state: RefreshState) -> List[Tuple[str, Optional[str]]]:
        """Incremental == from scratch: every cheap edited analysis in the
        final catalog must equal a build from an empty store and a cold
        cache on the final registry.  (The ``dcache`` analyses are left
        out to bound the run; the golden check covers their numerics.)"""
        from repro.incr import refresh_catalog
        from repro.io.cache import MeasurementCache
        from repro.serve.catalog import MetricCatalogStore

        checks = []
        scratch_store = MetricCatalogStore(state.tmp / "scratch")
        pairs = sorted({
            (slot[0], domain)
            for slot in self.SLOTS
            if slot is not None
            for domain in self._stale_domains(*slot)
            if domain != "dcache"
        })
        for system, domain in pairs:
            node, registry = state.nodes[system], state.registries[system]
            live = refresh_catalog(
                state.store, node, [domain], registry=registry, cache=state.cache
            )
            scratch = refresh_catalog(
                scratch_store, node, [domain], registry=registry,
                cache=MeasurementCache(),
            )

            def defs(report):
                return definitions_digest(
                    {m: e.definition() for (_, m), e in report.entries.items()}
                )

            error = None
            if live.refreshed:
                error = "a finished refresh left stale entries"
            elif defs(live) != defs(scratch):
                error = "incremental != from scratch"
            checks.append((f"scratch {system}/{domain}", error))
        return checks


# -- serve-mixed ---------------------------------------------------------

#: Hot (system, domain) pairs: no ``dcache``, so fresh analyses are not
#: bimodal.
SERVE_PAIRS = (
    ("aurora", "cpu_flops"),
    ("aurora", "branch"),
    ("aurora", "dtlb"),
    ("frontier-cpu", "branch"),
    ("frontier-cpu", "dtlb"),
    ("frontier", "gpu_flops"),
)


@dataclass
class Tier:
    tmp: Path
    process: subprocess.Popen
    port: int
    log: Any
    pids: List[int] = field(default_factory=list)
    metric_names: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    references: Dict[Tuple[str, str, int], Dict[str, str]] = field(default_factory=dict)
    #: Blocks each client has started, and the fresh answers received.
    blocks: List[int] = field(default_factory=lambda: [0, 0])
    fresh: List[Tuple[Tuple[str, str, int], Dict[str, str]]] = field(default_factory=list)


def _get_json(port: int, path: str) -> Dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read().decode())
    finally:
        conn.close()


def _descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (read from ``/proc``)."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [p for p, pp in parents.items() if pp == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _reference_digests(keys, timings: Optional[List[float]] = None):
    """Definition digests of ``keys`` from an in-process MetricService."""
    from repro.serve import MetricService
    from repro.serve.chaos import definition_digest

    async def compute():
        service = MetricService()
        await service.start()
        try:
            out = {}
            for system, domain, seed in keys:
                began = time.perf_counter()
                served = await service.analyze(system, domain, seed=seed)
                if timings is not None:
                    timings.append(time.perf_counter() - began)
                out[(system, domain, seed)] = {
                    name: definition_digest(m.to_payload()) for name, m in served.items()
                }
            return out
        finally:
            await service.stop()

    return asyncio.run(compute())


class ServeMixed(Workload):
    """Two closed-loop clients against a supervised, sharded tier.

    Each client sends blocks of 20 requests: 15 keyed metric reads of hot
    entries, 4 analyses of hot keys (catalog hits) and 1 analysis of a
    seed never requested before, in a seeded order.  Fresh analyses go
    round the pairs, so every run has the same mix.  Closed loop because
    catalog consumers are tools that wait for each reply.  The traced
    phase continues the request streams (a replay would turn fresh
    analyses into catalog hits).
    """

    name = "serve-mixed"
    replays = False
    CLIENTS = 2
    BLOCK = ("read",) * 15 + ("hit",) * 4 + ("fresh",)
    FRESH_CHECKED = 8
    START_TIMEOUT = 120.0

    def __init__(self, root: Path, seed: int, env: Dict[str, str]):
        super().__init__(root, seed, env)
        self.direct_p50_ms = 0.0
        self._warm: Dict[Tuple[str, str, int], Dict[str, str]] = {}

    def hot_keys(self) -> List[Tuple[str, str, int]]:
        return [(s, d, self.seed + i) for s, d in SERVE_PAIRS for i in range(2)]

    def setup(self, tmp: Path) -> Tier:
        tmp.mkdir(parents=True)
        log = open(tmp / "serve.log", "wb")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--supervise", "2", "--shards", "2",
                "--catalog", str(tmp / "catalog"), "--cache-dir", str(tmp / "cache"),
            ],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=log,
        )
        tier = Tier(tmp, process, 0, log)
        try:
            self._start(tier)
        except BaseException:
            self.teardown(tier)
            raise
        return tier

    def _start(self, tier: Tier) -> None:
        """Read the announced port, check the pool, warm the hot keys."""
        from repro.serve import CatalogClient
        from repro.serve.chaos import definition_digest

        ready, _, _ = select.select([tier.process.stdout], [], [], self.START_TIMEOUT)
        line = tier.process.stdout.readline() if ready else b""
        if not line.strip().isdigit():
            raise Failure(f"serve did not announce a port (got {line!r})")
        tier.port = int(line)
        status = _get_json(tier.port, "/supervisor/status")
        if status["live"] != 2:
            raise Failure(f"serve started {status['live']} of 2 workers")
        tier.pids = _descendants(tier.process.pid)
        client = CatalogClient(port=tier.port, timeout=120)
        for system, domain, seed in self.hot_keys():
            served = client.analyze(system, domain, seed=seed)
            tier.metric_names[(system, domain)] = sorted(served)
            self._warm[(system, domain, seed)] = {
                name: definition_digest(payload) for name, payload in served.items()
            }

    def teardown(self, tier: Tier) -> List[str]:
        """SIGINT the tier; it must exit 0 and leave no process behind."""
        problems = []
        tier.process.send_signal(signal.SIGINT)
        try:
            tier.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            tier.process.kill()
            tier.process.communicate()
            problems.append("serve did not stop within 60 s of SIGINT")
        if tier.process.returncode != 0:
            problems.append(f"serve exited {tier.process.returncode} on SIGINT")
        deadline = time.monotonic() + 10
        while any(_alive(p) for p in tier.pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        for pid in tier.pids:
            if _alive(pid):
                problems.append(f"serve left process {pid} running")
                os.kill(pid, signal.SIGKILL)
        tier.log.close()
        return problems

    def prepare(self, tier: Tier) -> List[Tuple[str, Optional[str]]]:
        """References for the hot keys (outside every timer), and the
        warm-up answers checked against them."""
        tier.references = _reference_digests(self.hot_keys())
        return [
            (f"warm {key}", None if self._warm[key] == tier.references[key] else "mismatch")
            for key in self.hot_keys()
        ]

    def estimates(self, phase: Phase) -> Tuple[float, List[float]]:
        """Requests per second of wall time and every request's latency:
        concurrent clients have no per-kind best to take."""
        return len(phase.samples) / phase.wall_seconds, [s.seconds for s in phase.samples]

    def output_digest(self, phase: Phase) -> str:
        """Digest of the tier's warm-up answers (the timed requests'
        mix of keys depends on how many fit in the phase)."""
        return json_digest(sorted(map(list, self._warm.items())), length=16)

    def _client(self, tier: Tier, index: int, seconds: float, cycles, out: List) -> None:
        from repro.serve import CatalogClient
        from repro.serve.chaos import definition_digest

        client = CatalogClient(port=tier.port, timeout=120)
        hot = self.hot_keys()
        began = time.perf_counter()
        done = 0
        while True:
            block_began = time.perf_counter()
            b = tier.blocks[index]
            tier.blocks[index] += 1
            rng = random.Random(f"serve:{self.seed}:{index}:{b}")
            kinds = list(self.BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "fresh":
                    n = self.CLIENTS * b + index
                    key = (*SERVE_PAIRS[n % len(SERVE_PAIRS)], self.seed + 1000 + n)
                else:
                    key = hot[rng.randrange(len(hot))]
                metric = rng.choice(tier.metric_names[key[:2]]) if kind == "read" else None
                began_request = time.perf_counter()
                try:
                    if metric is not None:
                        answer = {metric: client.metric(key[0], key[1], metric, seed=key[2])}
                    else:
                        answer = client.analyze(key[0], key[1], seed=key[2])
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    out.append(Sample(kind, str(key), time.perf_counter() - began_request,
                                      error=f"{type(exc).__name__}: {exc}"))
                    continue
                sample = Sample(kind, str(key), time.perf_counter() - began_request)
                digests = {n: definition_digest(p) for n, p in answer.items()}
                sample.digest = json_digest(sorted(digests.items()), length=16)
                if any(p.get("stale") for p in answer.values()):
                    sample.error = "stale answer"
                elif kind == "fresh":
                    tier.fresh.append((key, digests))
                else:
                    want = tier.references[key]
                    if any(want.get(n) != d for n, d in digests.items()) or (
                        metric is None and set(digests) != set(want)
                    ):
                        sample.error = "answer differs from the in-process reference"
                out.append(sample)
            done += 1
            now = time.perf_counter()
            if cycles is not None:
                if done >= cycles:
                    return
            elif now - began + (now - block_began) / 2 > seconds:
                return

    @staticmethod
    def _counters(tier: Tier) -> Dict[str, float]:
        """Dispatcher counters plus every worker's service stats."""
        status = _get_json(tier.port, "/supervisor/status")
        totals = {k: float(status[k]) for k in ("dispatched", "redispatches", "front_serves")}
        for worker in status["workers"]:
            stats = _get_json(worker["port"], "/healthz")["stats"]
            for k in ("catalog_hits", "pipeline_runs", "coalesced", "rejected"):
                totals[k] = totals.get(k, 0.0) + stats[k]
        return totals

    def drive(self, tier: Tier, seconds: float, cycles=None, probe=None) -> Phase:
        outs: List[List[Sample]] = [[] for _ in range(self.CLIENTS)]
        before = self._counters(tier) if probe is not None else {}
        began = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(tier, i, seconds, cycles, outs[i]))
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase([s for out in outs for s in out], min(tier.blocks),
                      wall_seconds=time.perf_counter() - began)
        if probe is not None:
            after = self._counters(tier)
            phase.counters = {k: after[k] - before[k] for k in after}
        return phase

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        from bench.stats import percentile

        samples = phase.samples

        def p50(kind):
            return percentile([s.seconds for s in samples if s.kind == kind], 50) * 1e3

        n = max(len(samples), 1)
        reads = max(sum(1 for s in samples if s.kind == "read"), 1)
        delta = phase.counters
        read, hit, fresh = p50("read"), p50("hit"), p50("fresh")
        return {
            "serve.read_p50_ms": read,
            "serve.hit_p50_ms": hit,
            "serve.fresh_p50_ms": fresh,
            "serve.p99_ms": percentile([s.seconds for s in samples], 99) * 1e3,
            "serve.hop_overhead_ms": hit - read,
            "serve.fresh_overhead_ms": fresh - self.direct_p50_ms,
            "serve.front_serve_ratio": delta["front_serves"] / reads,
            "serve.dispatched": delta["dispatched"] / n,
            "serve.redispatches": delta["redispatches"] / n,
            "serve.catalog_hits": delta["catalog_hits"] / n,
            "serve.pipeline_runs": delta["pipeline_runs"] / n,
            "serve.coalesced": delta["coalesced"] / n,
            "serve.rejected": delta["rejected"] / n,
        }

    def final_checks(self, tier: Tier) -> List[Tuple[str, Optional[str]]]:
        """Fresh answers against the in-process reference: the first of
        each pair, then the next ones, up to eight.  The reference runs
        are timed: their median is the direct latency the tier's fresh
        latency is compared with."""
        ordered = sorted(tier.fresh, key=lambda f: f[0][2])
        firsts = {}
        for key, digests in ordered:
            firsts.setdefault(key[:2], (key, digests))
        chosen = list(firsts.values())
        chosen += [f for f in ordered if f not in chosen]
        chosen = chosen[: self.FRESH_CHECKED]
        timings: List[float] = []
        references = _reference_digests([key for key, _ in chosen], timings)
        if timings:
            from bench.stats import percentile

            self.direct_p50_ms = percentile(timings, 50) * 1e3
        return [
            (f"fresh {key}", None if references[key] == digests else "mismatch")
            for key, digests in chosen
        ]


WORKLOADS = {w.name: w for w in (AnalyzeDcache, AnalyzeFit, Refresh, ServeMixed)}
