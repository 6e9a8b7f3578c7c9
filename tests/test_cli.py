"""The repro-eval command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.ring_nodes == 16
        assert 0.75 in args.loads


class TestCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1")
        assert "high speed" in out
        assert "32.8" in out

    def test_table1_csv(self, capsys):
        out = run(capsys, "--csv", "table1")
        assert out.splitlines()[0].startswith("class,")
        assert "high speed,1,1,4" in out

    def test_fig10_small(self, capsys):
        out = run(capsys, "fig10", "--loads", "0.25", "0.75",
                  "--terminals", "1")
        assert "N=1" in out
        assert "Figure 10" in out

    def test_fig10_shows_rejection(self, capsys):
        out = run(capsys, "fig10", "--loads", "0.99", "--terminals", "16")
        assert "rejected" in out

    def test_fig11_small(self, capsys):
        out = run(capsys, "fig11", "--fractions", "0", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "Figure 11" in out

    def test_fig12_small(self, capsys):
        out = run(capsys, "fig12", "--fractions", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "2 priorities" in out

    def test_fig13_small(self, capsys):
        out = run(capsys, "fig13", "--fractions", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "soft CAC" in out

    def test_vbr(self, capsys):
        out = run(capsys, "vbr", "--mbs", "1", "16")
        assert "VBR feasibility" in out

    def test_failover(self, capsys):
        out = run(capsys, "failover", "--terminals", "1",
                  "--ring-nodes", "8")
        assert "after_wrap" in out

    def test_csv_mode_has_no_table_art(self, capsys):
        out = run(capsys, "--csv", "vbr", "--mbs", "1")
        assert "|" not in out
        assert out.startswith("mbs_per_node,max_load")


class TestJobsFlag:
    def test_help_documents_jobs(self):
        helptext = build_parser().format_help()
        assert "--jobs" in helptext
        assert "0 = os.cpu_count()" in helptext

    def test_default_is_serial(self):
        args = build_parser().parse_args(["table1"])
        assert args.jobs == 1

    def test_zero_means_all_cores(self):
        args = build_parser().parse_args(["--jobs", "0", "table1"])
        assert args.jobs == 0

    def test_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--jobs", "-2", "table1"])

    def test_non_integer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--jobs", "many", "table1"])

    def test_parallel_output_matches_serial(self, capsys):
        argv = ["fig10", "--loads", "0.25", "0.5",
                "--terminals", "1", "4", "--ring-nodes", "8"]
        serial = run(capsys, *argv)
        fanned = run(capsys, "--jobs", "2", *argv)
        assert fanned == serial

    def test_parallel_csv_matches_serial(self, capsys):
        argv = ["--csv", "vbr", "--mbs", "1", "4", "--ring-nodes", "8"]
        serial = run(capsys, *argv)
        fanned = run(capsys, "--jobs", "2", *argv)
        assert fanned == serial


class TestChaosCommand:
    def test_default_run_reports_the_migration(self, capsys):
        out = run(capsys, "chaos")
        assert "ring0->ring1" in out
        assert "migrated" in out
        assert "breaker reclosed" in out
        assert "booking safe" in out

    def test_named_link_and_keep_policy(self, capsys):
        out = run(capsys, "chaos", "--ring-nodes", "4",
                  "--link", "ring2->ring3", "--policy", "migrate-or-keep")
        assert "ring2->ring3" in out
        assert "migrate-or-keep" in out

    def test_obs_flag_dumps_survivability_counters(self, capsys):
        out = run(capsys, "chaos", "--ring-nodes", "4", "--obs")
        assert "cac_migrations_total" in out
        assert "cac_failure_detections_total" in out

    def test_csv_output(self, capsys):
        out = run(capsys, "--csv", "chaos", "--ring-nodes", "4")
        assert "metric,value" in out
        assert "detection latency" in out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--policy", "pray"])

    def test_observability_is_restored_after_the_run(self, capsys):
        from repro import obs
        run(capsys, "chaos", "--ring-nodes", "4", "--obs")
        assert not obs.enabled()


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-eval {__version__}"

    def test_help_documents_version(self):
        assert "--version" in build_parser().format_help()


class TestChurnCommand:
    ARGS = ["churn", "--loads", "1", "3", "--events", "300",
            "--nodes", "6", "--seed", "5"]

    def test_table_output(self, capsys):
        out = run(capsys, *self.ARGS)
        assert "blocking vs offered load" in out
        assert "seed 5" in out
        assert "carried_erlangs" in out

    def test_csv_output(self, capsys):
        out = run(capsys, "--csv", *self.ARGS)
        assert out.startswith("offered_load,arrivals,blocked,blocking")

    def test_json_output_carries_digests(self, capsys):
        import json
        payload = json.loads(run(capsys, *self.ARGS, "--json"))
        assert payload["seed"] == 5
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert len(point["digests"]) == 1
            assert len(point["digests"][0]) == 64

    def test_seeded_runs_reproduce(self, capsys):
        import json
        first = json.loads(run(capsys, *self.ARGS, "--json"))
        second = json.loads(run(capsys, *self.ARGS, "--json"))
        assert first == second

    def test_jobs_fanout_matches_serial(self, capsys):
        serial = run(capsys, *self.ARGS, "--json")
        fanned = run(capsys, "--jobs", "2", *self.ARGS, "--json")
        assert fanned == serial

    def test_policy_choices_are_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--policy", "random-walk"])

    def test_seed_defaults_to_zero(self):
        assert build_parser().parse_args(["churn"]).seed == 0
        assert build_parser().parse_args(["chaos"]).seed == 0

    def test_setup_latency_flags_reach_the_report(self, capsys):
        import json
        payload = json.loads(run(
            capsys, "churn", "--loads", "1", "--events", "300",
            "--nodes", "6", "--seed", "5",
            "--setup-latency", "2", "--reservation-ttl", "40", "--json"))
        assert payload["setup_latency"] == 2.0
        assert payload["reservation_ttl"] == 40.0

    def test_setup_latency_changes_the_trajectory(self, capsys):
        import json
        instant = json.loads(run(capsys, *self.ARGS, "--json"))
        latent = json.loads(run(
            capsys, *self.ARGS, "--setup-latency", "2",
            "--reservation-ttl", "40", "--json"))
        assert instant["setup_latency"] == 0.0
        assert instant["reservation_ttl"] is None
        assert [p["digests"] for p in latent["points"]] != \
               [p["digests"] for p in instant["points"]]


class TestObsCommand:
    def test_table_output(self, capsys):
        out = run(capsys, "obs")
        assert "12 connections established" in out
        assert "cac_checks_total" in out

    def test_prom_output_is_exposition_format(self, capsys):
        out = run(capsys, "obs", "--prom")
        assert "# TYPE cac_checks_total counter" in out
        assert 'cac_checks_total{switch="ring0"} 9' in out
        assert "signaling_hop_rtt_bucket" in out

    def test_json_output_is_jsonl(self, capsys):
        import json
        out = run(capsys, "obs", "--json")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "network_setups_total" for r in records)

    def test_spans_output(self, capsys):
        out = run(capsys, "obs", "--spans")
        assert "admission.setup" in out
        assert "admission.hop" in out

    def test_json_and_prom_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--json", "--prom"])

    def test_observability_is_restored_after_the_run(self, capsys):
        from repro import obs
        run(capsys, "obs")
        assert not obs.enabled()


class TestProfileCommand:
    ARGS = ("profile", "--events", "60", "--nodes", "4", "--top", "8")

    def test_table_output(self, capsys):
        out = run(capsys, *self.ARGS)
        assert "Profile: 60 churn events" in out
        assert "events/s" in out
        assert "cumtime_s" in out

    def test_json_output(self, capsys):
        import json
        doc = json.loads(run(capsys, *self.ARGS, "--json"))
        assert doc["events"] == 60
        assert doc["fast_path"] == "on"
        assert doc["events_per_sec"] > 0
        assert 0 < len(doc["top"]) <= 8
        assert {"function", "file", "line", "ncalls", "tottime_s",
                "cumtime_s"} <= set(doc["top"][0])

    def test_fast_path_off_still_profiles(self, capsys):
        import json
        doc = json.loads(run(capsys, *self.ARGS, "--fast-path", "off",
                             "--json"))
        assert doc["fast_path"] == "off"

    def test_exact_bound_is_off_the_top_of_the_profile(self, capsys):
        """The headline claim: Algorithm 4.1 no longer dominates."""
        import json
        doc = json.loads(run(
            capsys, "profile", "--events", "200", "--json"))
        leaders = [entry["function"] for entry in doc["top"][:8]]
        assert "delay_bound" not in leaders
