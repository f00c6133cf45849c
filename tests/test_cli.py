"""Command-line interface: grammar, outputs, exit codes."""

import hashlib

import pytest

from flowbench import apps
from flowbench.cli import main
from flowbench.collection import write_dataset
from flowbench.sim import execute


class TestUsageErrors:
    def test_unknown_app_exits_one(self, capsys):
        assert main(["run", "nosuchapp", "fbp", "min"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_paradigm_exits_one(self, capsys):
        assert main(["run", "mblogger", "rest", "min"]) == 1

    def test_unknown_stage_exits_one(self, capsys):
        assert main(["diff", "mblogger", "min", "huge", "--paradigm", "fbp"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_negative_seed_exits_one(self, capsys):
        assert main(["run", "playlist_builder", "fbp", "min", "--ticks", "3", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_beyond_64_bits_exits_one(self, capsys):
        argv = ["run", "playlist_builder", "fbp", "min", "--ticks", "3",
                "--seed", "100000000000000000000000"]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err

    def test_negative_ticks_exits_one(self, capsys):
        assert main(["run", "playlist_builder", "fbp", "min", "--ticks", "-5"]) == 1
        assert "ticks" in capsys.readouterr().err

    def test_bad_seed_is_usage_error_for_collect_and_equiv(self, tmp_path):
        assert main(["collect", "insurance_claims", "--seed", "-1",
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert not (tmp_path / "x.jsonl").exists()
        assert main(["equiv", "playlist_builder", "--ticks", "-5"]) == 1

    @pytest.mark.parametrize("app, paradigm", [
        ("insurance_claims", "fbp"), ("ride_allocation", "fbp"), ("ride_allocation", "soa"),
    ])
    def test_too_few_ticks_to_train_exits_one(self, app, paradigm, capsys):
        assert main(["run", app, paradigm, "ml", "--ticks", "0", "--seed", "4"]) == 1
        assert capsys.readouterr().err == (
            f"error: {app} {paradigm} ml: the training run collected no rows"
            " (ticks=0, seed=4); run more ticks to train\n"
        )

    @pytest.mark.parametrize("paradigm", ["fbp", "soa"])
    @pytest.mark.parametrize("app", ["mblogger", "playlist_builder"])
    def test_online_ml_stage_runs_zero_ticks(self, app, paradigm, capsys):
        # These ml stages learn online, so zero ticks is an empty run.
        assert main(["run", app, paradigm, "ml", "--ticks", "0"]) == 0
        assert '"ticks":0' in capsys.readouterr().out


class TestRun:
    def test_prints_report_and_writes_identical_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(
            ["run", "playlist_builder", "fbp", "min", "--ticks", "20", "--seed", "3",
             "--report", str(path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout == path.read_text()
        assert '"paradigm":"fbp"' in stdout

    def test_repeated_runs_emit_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["run", "insurance_claims", "soa", "data", "--ticks", "30", "--seed", "5",
                 "--report", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestGraph:
    def test_emits_dot_to_stdout(self, capsys):
        assert main(["graph", "insurance_claims", "min"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph flow {")
        assert '"claims" [shape=box, style=filled, fillcolor=red];' in out

    def test_dot_bytes_of_all_fbp_versions_are_pinned(self, capsys):
        # A stream's colour is its role, read off the edges: these bytes were
        # recorded while each stream still declared its role, and they match.
        text = ""
        for app in apps.APP_NAMES:
            for stage in apps.APP_STAGES:
                assert main(["graph", app, stage]) == 0
                text += capsys.readouterr().out
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "2cf0f32377148603a5055159d225d2d880a5b2833abd45cc1cd1d5092bc11d42"
        )
        colours = [text.count(f"fillcolor={c}];") for c in ("red", "yellow", "green")]
        assert colours == [30, 14, 25]

    def test_writes_dot_file(self, tmp_path):
        path = tmp_path / "g.dot"
        assert main(["graph", "ride_allocation", "data", "--out", str(path)]) == 0
        assert path.read_text().startswith("digraph flow {")
        assert '"wait_dataset"' in path.read_text()


class TestCollect:
    def test_writes_dataset(self, tmp_path, capsys):
        path = tmp_path / "claims.jsonl"
        assert main(
            ["collect", "insurance_claims", "--ticks", "30", "--seed", "2", "--out", str(path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert path.read_text().count("\n") > 5

    def test_collect_twice_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            main(["collect", "ride_allocation", "--ticks", "40", "--seed", "2", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("app", ["insurance_claims", "ride_allocation"])
    def test_writes_the_rows_of_the_full_run(self, app, tmp_path):
        # collect runs rows-only; its file holds the full run's rows.
        scenario = apps.make_scenario(app, 200, 3)
        full = execute(scenario, apps.app_version(app, "fbp", "data")).dataset_rows
        write_dataset(full, tmp_path / "full.jsonl")
        path = tmp_path / "collected.jsonl"
        assert main(["collect", app, "--ticks", "200", "--seed", "3", "--out", str(path)]) == 0
        assert path.read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    @pytest.mark.parametrize("app", ["mblogger", "playlist_builder"])
    def test_online_only_app_is_usage_error(self, app, tmp_path, capsys, monkeypatch):
        # Refused before any simulation: a run here would fail the test.
        import flowbench.cli as cli_mod

        def refuse(scenario, version):
            raise AssertionError("collect simulated an app it must refuse")

        monkeypatch.setattr(cli_mod, "execute", refuse)
        assert main(["collect", app, "--ticks", "600", "--out", str(tmp_path / "x.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {app} collects data online only and writes no offline dataset\n"
        )


class TestDiff:
    def test_ride_offline_collection_prints_one(self, capsys):
        assert main(["diff", "ride_allocation", "min", "data", "--paradigm", "fbp"]) == 0
        out = capsys.readouterr().out
        assert "affected_count 1" in out
        assert "added    stream/wait_dataset" in out

    def test_table_is_sorted_by_component(self, capsys):
        assert main(["diff", "insurance_claims", "data", "ml", "--paradigm", "fbp"]) == 0
        out = capsys.readouterr().out.splitlines()
        removed = [l.split()[1] for l in out if l.startswith("removed")]
        assert removed == sorted(removed)
        assert out[-1] == "affected_count 6"


class TestEquiv:
    def test_playlist_matches(self, capsys):
        assert main(["equiv", "playlist_builder", "--ticks", "50", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_divergent_digests_exit_three(self, capsys, monkeypatch):
        import flowbench.cli as cli_mod

        reports = iter(
            [
                type("R", (), {"digests": {"playlist": "aaa"}})(),
                type("R", (), {"digests": {"playlist": "bbb"}})(),
            ]
        )
        monkeypatch.setattr(cli_mod, "run_scenario", lambda s, v: next(reports))
        assert main(["equiv", "playlist_builder", "--ticks", "5", "--seed", "1"]) == 3
        assert "MISMATCH" in capsys.readouterr().out


class TestRuntimeFailures:
    def test_internal_error_exits_two(self, capsys, monkeypatch):
        import flowbench.cli as cli_mod

        def explode(scenario, version):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli_mod, "run_scenario", explode)
        assert main(["run", "mblogger", "fbp", "min", "--ticks", "5"]) == 2
        assert "engine fault" in capsys.readouterr().err
