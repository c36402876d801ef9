"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import main


def exit_code(argv):
    """Run the CLI, normalizing SystemExit into its integer status
    (argparse raises; handlers return)."""
    try:
        return main(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        assert exit_code(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestExitCodes:
    """One convention everywhere: 0 ok, 1 analysis failure, 2 usage."""

    def test_ok_is_zero(self, capsys):
        assert exit_code(["list-events", "--system", "aurora", "--prefix", "BR_MISP"]) == 0

    def test_bad_flag_is_two(self, capsys):
        assert exit_code(["run", "--not-a-flag"]) == 2

    def test_validation_error_is_two(self, capsys):
        assert exit_code(["run", "--domain", "branch", "--seed", "-3"]) == 2

    def test_unknown_system_is_two(self, capsys):
        assert exit_code(["list-events", "--system", "cray"]) == 2

    def test_bad_fault_spec_is_two(self, capsys):
        assert (
            exit_code(["sweep", "--systems", "aurora", "--domains", "branch",
                       "--faults", "bogus~"]) == 2
        )
        assert (
            exit_code(["loadtest", "--catalog", "unused", "--chaos", "bogus=1"])
            == 2
        )
        assert exit_code(["loadtest", "--target", "single", "--chaos", "seed=1"]) == 2

    def test_empty_grid_is_two(self, capsys):
        # gpu_flops is not measurable on aurora: nothing to sweep.
        assert (
            exit_code(["sweep", "--systems", "aurora", "--domains", "gpu_flops"]) == 2
        )

    def test_missing_trace_file_is_two(self, capsys):
        assert exit_code(["trace", "/nonexistent/trace.jsonl"]) == 2

    @pytest.mark.parametrize("argv", [["guard", "smoke"], ["vet", "smoke"]])
    def test_scenario_verbs_are_gone(self, capsys, argv):
        # The guard and vet scenarios are tests, not verbs.
        assert exit_code(argv) == 2

    def test_analysis_failure_is_one(self, capsys):
        # A guaranteed worker crash with no retries: the sweep itself
        # fails, which is an analysis failure (1), not a usage error (2).
        assert (
            exit_code(
                [
                    "sweep",
                    "--systems",
                    "aurora",
                    "--domains",
                    "branch",
                    "--executor",
                    "serial",
                    "--retries",
                    "0",
                    "--faults",
                    "crash=1.0",
                ]
            )
            == 1
        )
        assert "FAILED" in capsys.readouterr().out


class TestCatalogVerbs:
    @pytest.fixture()
    def catalog_root(self, tmp_path):
        """A catalog populated by one stored analysis."""
        import asyncio

        from repro.serve import MetricCatalogStore, MetricService

        root = tmp_path / "catalog"

        async def populate():
            service = MetricService(
                MetricCatalogStore(root), cache_dir=str(tmp_path / "cache")
            )
            await service.start()
            try:
                await service.analyze("aurora", "branch", seed=7)
            finally:
                await service.stop()

        asyncio.run(populate())
        return root

    def test_list(self, capsys, catalog_root):
        assert exit_code(["catalog", "list", "--root", str(catalog_root)]) == 0
        out = capsys.readouterr().out
        assert "Mispredicted Branches." in out
        assert "v1" in out

    def test_serve_shards_over_unsharded_catalog_is_two(self, capsys, catalog_root):
        # Writing shards.json over unsharded entries would hide them all.
        for extra in ([], ["--supervise", "2"]):
            argv = ["serve", "--catalog", str(catalog_root), "--shards", "2"]
            assert exit_code(argv + ["--port", "0"] + extra) == 2
        assert "unsharded entries" in capsys.readouterr().err
        assert not (catalog_root / "shards.json").exists()
        assert exit_code(["catalog", "list", "--root", str(catalog_root)]) == 0
        assert "Mispredicted Branches." in capsys.readouterr().out

    def test_serve_shard_count_mismatch_is_two(self, capsys, tmp_path):
        from repro.serve import MetricCatalogStore

        MetricCatalogStore(tmp_path / "catalog", shards=2)
        argv = ["serve", "--catalog", str(tmp_path / "catalog"), "--shards", "3"]
        assert exit_code(argv + ["--port", "0"]) == 2
        assert "re-partition" in capsys.readouterr().err

    def test_foreign_manifest_is_two(self, capsys, tmp_path):
        (tmp_path / "shards.json").write_text('{"format": 99}')
        assert exit_code(["catalog", "list", "--root", str(tmp_path)]) == 2
        assert "manifest format 99" in capsys.readouterr().err

    def test_list_empty(self, capsys, tmp_path):
        assert exit_code(["catalog", "list", "--root", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show(self, capsys, catalog_root):
        assert (
            exit_code(
                [
                    "catalog",
                    "show",
                    "--root",
                    str(catalog_root),
                    "--arch",
                    "aurora-spr",
                    "Mispredicted Branches.",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BR_MISP_RETIRED" in out
        assert "version      : 1" in out

    def test_show_unknown_metric_is_two(self, capsys, catalog_root):
        assert (
            exit_code(
                [
                    "catalog",
                    "show",
                    "--root",
                    str(catalog_root),
                    "--arch",
                    "aurora-spr",
                    "No Such Metric",
                ]
            )
            == 2
        )

    def test_diff_identical_version(self, capsys, catalog_root):
        assert (
            exit_code(
                [
                    "catalog",
                    "diff",
                    "--root",
                    str(catalog_root),
                    "--arch",
                    "aurora-spr",
                    "Mispredicted Branches.",
                    "1",
                    "1",
                ]
            )
            == 0
        )
        assert "identical" in capsys.readouterr().out

    def test_diff_missing_version_is_two(self, capsys, catalog_root):
        assert (
            exit_code(
                [
                    "catalog",
                    "diff",
                    "--root",
                    str(catalog_root),
                    "--arch",
                    "aurora-spr",
                    "Mispredicted Branches.",
                    "1",
                    "9",
                ]
            )
            == 2
        )


class TestCatalogRefresh:
    def test_build_edit_refresh_cycle(self, capsys, tmp_path):
        root = str(tmp_path / "catalog")
        cache = str(tmp_path / "cache")
        base = [
            "catalog",
            "refresh",
            "--root",
            root,
            "--system",
            "aurora",
            "--seed",
            "7",
            "--domains",
            "branch",
            "--cache-dir",
            cache,
        ]
        # Empty catalog: a full build through the refresh path.
        assert exit_code(base) == 0
        out = capsys.readouterr().out
        assert "refreshed" in out and "0 unchanged" in out

        # Same registry again: everything proven fresh.
        assert exit_code(base) == 0
        assert "0 refreshed" in capsys.readouterr().out

        # One edited event: recompute with near-total column reuse.
        from repro.hardware import aurora_node

        target = next(
            e.full_name
            for e in aurora_node(seed=7).events
            if e.domain == "branch"
        )
        edits = tmp_path / "edits.json"
        edits.write_text(
            json.dumps(
                [
                    {
                        "action": "scale-response",
                        "event": target,
                        "factor": 1.25,
                    }
                ]
            )
        )
        assert exit_code(base + ["--edits", str(edits)]) == 0
        out = capsys.readouterr().out
        assert "columns reused" in out

    def test_bad_domain_is_two(self, tmp_path):
        assert (
            exit_code(
                [
                    "catalog",
                    "refresh",
                    "--root",
                    str(tmp_path / "c"),
                    "--system",
                    "frontier",
                    "--domains",
                    "branch",
                ]
            )
            == 2
        )

    def test_bad_edits_file_is_two(self, tmp_path):
        assert (
            exit_code(
                [
                    "catalog",
                    "refresh",
                    "--root",
                    str(tmp_path / "c"),
                    "--system",
                    "aurora",
                    "--domains",
                    "branch",
                    "--edits",
                    str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )

    def test_edit_targeting_unknown_event_is_two(self, tmp_path):
        edits = tmp_path / "edits.json"
        edits.write_text(
            json.dumps([{"action": "remove", "event": "NO_SUCH_EVENT"}])
        )
        assert (
            exit_code(
                [
                    "catalog",
                    "refresh",
                    "--root",
                    str(tmp_path / "c"),
                    "--system",
                    "aurora",
                    "--domains",
                    "branch",
                    "--edits",
                    str(edits),
                ]
            )
            == 2
        )


class TestListEvents:
    def test_lists_with_prefix(self, capsys):
        assert main(["list-events", "--system", "aurora", "--prefix", "BR_MISP"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "BR_MISP_RETIRED" in out
        assert all(line.startswith("BR_MISP") for line in out)

    def test_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["list-events", "--system", "cray"])


class TestRun:
    def test_branch_run_prints_metrics(self, capsys):
        assert main(["run", "--domain", "branch", "--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "BR_MISP_RETIRED" in out
        assert "Mispredicted Branches." in out
        assert "NOT COMPOSABLE" in out  # Conditional Branches Executed

    def test_save_presets(self, capsys, tmp_path):
        path = tmp_path / "presets.json"
        assert (
            main(
                [
                    "run",
                    "--domain",
                    "branch",
                    "--repetitions",
                    "2",
                    "--save-presets",
                    str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        names = {p["name"] for p in payload["presets"]}
        assert "PAPI_BR_MSP" in names

    def test_threshold_overrides(self, capsys):
        # A huge tau keeps noisy events; the run must still complete.
        assert (
            main(
                [
                    "run",
                    "--domain",
                    "branch",
                    "--repetitions",
                    "2",
                    "--tau",
                    "1e-3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "noisy (> tau=0.001)" in out

    def test_rounded_flag(self, capsys):
        assert main(["run", "--domain", "branch", "--repetitions", "2", "--rounded"]) == 0

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--domain", "nope"])


class TestPresets:
    def test_derive_presets_for_frontier(self, capsys, tmp_path):
        path = tmp_path / "frontier.json"
        assert main(["presets", "--system", "frontier", "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert "derived 4 presets" in out
        assert "not composable" in out
        payload = json.loads(path.read_text())
        assert payload["architecture"] == "frontier-mi250x"
        assert len(payload["presets"]) == 4


class TestReport:
    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", "--domain", "branch", "--output", str(path)]) == 0
        text = path.read_text()
        assert "## Selected events (Section V)" in text
        assert "BR_MISP_RETIRED" in text


class TestNoise:
    def test_noise_plot(self, capsys):
        assert main(["noise", "--domain", "branch"]) == 0
        out = capsys.readouterr().out
        assert "tau = 1e-10" in out
        assert "Sorted event variabilities" in out


class TestVet:
    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        from repro.vet import EventVerdict, ValidationReport

        report = ValidationReport(
            arch="aurora-spr",
            system="aurora",
            seed=7,
            n_configs=2,
            domains=("cpu_flops",),
            probes=("cpu_flops",),
            verdicts={
                "GOOD": EventVerdict(event="GOOD", verdict="accurate"),
                "BAD": EventVerdict(
                    event="BAD", verdict="overcounting", ratio_median=1.5
                ),
            },
        )
        return str(report.save(tmp_path_factory.mktemp("vet") / "report.json"))

    def test_report_renders_summary(self, capsys, report_path):
        assert exit_code(["vet", "report", report_path]) == 0
        out = capsys.readouterr().out
        assert "refuted events:" in out
        assert "BAD" in out

    def test_report_json_round_trips(self, capsys, report_path):
        assert exit_code(["vet", "report", report_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "validation-report"
        assert payload["verdicts"]["BAD"]["verdict"] == "overcounting"

    def test_report_missing_file_is_two(self, capsys):
        assert exit_code(["vet", "report", "/nonexistent/report.json"]) == 2

    def test_run_bad_forge_spec_is_two(self, capsys):
        assert (
            exit_code(
                ["vet", "run", "--system", "aurora", "--forge", "E=teleport"]
            )
            == 2
        )

    def test_run_unmeasurable_domain_is_two(self, capsys):
        assert (
            exit_code(
                ["vet", "run", "--system", "aurora", "--domains", "gpu_flops"]
            )
            == 2
        )

    def test_run_zero_configs_is_two(self, capsys):
        assert (
            exit_code(["vet", "run", "--system", "aurora", "--configs", "0"])
            == 2
        )

    def test_drift_on_empty_catalog_is_clean(self, capsys, tmp_path):
        assert (
            exit_code(["vet", "drift", "--root", str(tmp_path / "empty")]) == 0
        )
        assert "0 key(s)" in capsys.readouterr().out

    def test_run_with_priors_reports_exclusions(self, capsys, tmp_path):
        # Refute one event the branch pipeline would otherwise keep; the
        # run must print the exclusion and still produce metrics.
        from repro.vet import EventVerdict, ValidationReport

        report = ValidationReport(
            arch="aurora-spr",
            system="aurora",
            seed=2024,
            n_configs=1,
            domains=("branch",),
            probes=("branch",),
            verdicts={
                "BR_INST_RETIRED:COND_NTAKEN": EventVerdict(
                    event="BR_INST_RETIRED:COND_NTAKEN",
                    verdict="overcounting",
                    ratio_median=1.5,
                )
            },
        )
        path = report.save(tmp_path / "priors.json")
        assert (
            exit_code(
                ["run", "--domain", "branch", "--repetitions", "2",
                 "--priors", str(path)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "excluded by vet prior: 1" in captured.out
        assert "1 refuted event(s)" in captured.err

    def test_run_with_bad_priors_file_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"verdicts": {"E": "bogus"}}')
        assert (
            exit_code(["run", "--domain", "branch", "--priors", str(bad)]) == 2
        )


class TestCatalogVetFlags:
    @pytest.fixture(scope="class")
    def vetcat_root(self, tmp_path_factory):
        from repro.core.pipeline import AnalysisPipeline
        from repro.hardware.systems import aurora_node
        from repro.serve.catalog import MetricCatalogStore, entries_from_result
        from repro.vet import TrustPriors

        node = aurora_node(seed=7)
        clean = AnalysisPipeline.for_domain("branch", node).run()
        vetted = AnalysisPipeline.for_domain(
            "branch",
            aurora_node(seed=7),
            priors=TrustPriors(
                verdicts={"BR_INST_RETIRED:ALL_BRANCHES": "accurate"},
                source="vet-campaign[test]",
            ),
        ).run()
        root = tmp_path_factory.mktemp("vetcat") / "catalog"
        store = MetricCatalogStore(root, durable=False)
        digest = node.events.content_digest()
        for result in (clean, vetted):
            for entry in entries_from_result(
                result, arch=node.name, seed=7, events_digest=digest
            ):
                store.put(entry)
        return str(root)

    def test_diff_json_is_machine_readable(self, capsys, vetcat_root):
        assert (
            exit_code(
                ["catalog", "diff", "--root", vetcat_root, "--arch",
                 "aurora-spr", "Mispredicted Branches.", "1", "2", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "Mispredicted Branches."
        assert payload["identical"] is False
        assert payload["verdict_flips"]

    def test_drift_flags_the_transition(self, capsys, vetcat_root):
        assert exit_code(["vet", "drift", "--root", vetcat_root]) == 1
        assert "verdict-flip" in capsys.readouterr().out

    def test_stale_only_empty_when_registry_matches(self, capsys, vetcat_root):
        assert (
            exit_code(
                ["catalog", "list", "--root", vetcat_root, "--stale-only"]
            )
            == 0
        )
        assert "no stale entries" in capsys.readouterr().out
