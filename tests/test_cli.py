"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack", "chosen-victim"])
        assert args.attackers == ["B", "C"]
        assert args.alpha == 200.0
        assert not args.stealthy


class TestInfo:
    def test_prints_version_and_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "repro.attacks" in out


class TestTopology:
    def test_fig1_summary(self, capsys):
        assert main(["topology", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "7" in out

    def test_edge_list_output(self, capsys):
        assert main(["topology", "fig1", "--edges"]) == 0
        out = capsys.readouterr().out
        assert "M1 A" in out

    def test_tuple_labels_fall_back_to_json(self, capsys):
        assert main(["topology", "fattree", "--edges"]) == 0
        out = capsys.readouterr().out
        assert "repro-topology" in out

    def test_rgg_with_options(self, capsys):
        assert main(["topology", "rgg", "--nodes", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "connected" in out


class TestCaseStudies:
    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6"])
    def test_figures_render(self, figure, capsys):
        assert main(["case-study", figure]) == 0
        out = capsys.readouterr().out
        assert "damage" in out

    def test_naive(self, capsys):
        assert main(["case-study", "naive"]) == 0
        out = capsys.readouterr().out
        assert "attacker-controlled" in out


class TestAttack:
    def test_chosen_victim_detected(self, capsys):
        assert main(["attack", "chosen-victim", "--victims", "9"]) == 0
        out = capsys.readouterr().out
        assert "victim" in out
        assert "DETECTED" in out

    def test_stealthy_perfect_cut_not_detected(self, capsys):
        assert main(["attack", "chosen-victim", "--victims", "0", "--stealthy"]) == 0
        out = capsys.readouterr().out
        assert "not detected" in out

    def test_infeasible_attack_exit_code(self, capsys):
        # Confined + stealthy on the imperfectly cut link 9 is infeasible.
        code = main(
            ["attack", "chosen-victim", "--victims", "9", "--stealthy", "--confined"]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_unknown_attacker_is_error(self, capsys):
        assert main(["attack", "naive", "--attackers", "ghost"]) == 1
        assert "error" in capsys.readouterr().err

    def test_frame_and_blur(self, capsys):
        assert main(["attack", "frame-and-blur", "--victims", "9"]) == 0
        out = capsys.readouterr().out
        assert "frame-and-blur" in out


class TestExperiments:
    def test_fig7_small(self, capsys):
        assert main(["experiment", "fig7", "--trials", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "presence-ratio" in out

    def test_fig8_small(self, capsys):
        assert main(["experiment", "fig8", "--trials", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max-damage success" in out

    def test_fig9_small(self, capsys):
        assert main(["experiment", "fig9", "--trials", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "detection-ratio" in out


@pytest.fixture()
def scenario_file(tmp_path, fig1_scenario):
    from repro.scenarios.serialization import save_scenario

    path = tmp_path / "fig1.json"
    save_scenario(fig1_scenario, path)
    return path


class TestRun:
    def test_run_scenario_file(self, scenario_file, capsys):
        code = main(
            ["run", str(scenario_file), "--strategy", "max-damage",
             "--attackers", "B", "C"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max-damage" in out
        assert "consistency detector" in out

    def test_run_default_attacker_and_victim(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--strategy", "naive"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_run_with_estimator_choice(self, scenario_file, capsys):
        code = main(
            ["run", str(scenario_file), "--strategy", "max-damage",
             "--attackers", "B", "C", "--estimator", "bayes-map"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bayes-map" in out
        assert "consistency detector" in out

    def test_run_with_unknown_estimator(self, scenario_file, capsys):
        assert main(
            ["run", str(scenario_file), "--estimator", "kalman"]
        ) == 1
        assert "unknown estimator" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_attacker_label(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--attackers", "ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestObs:
    def test_env_var_writes_log_and_manifest(
        self, scenario_file, tmp_path, capsys, monkeypatch
    ):
        log_path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_PATH", str(log_path))
        code = main(
            ["run", str(scenario_file), "--strategy", "max-damage",
             "--attackers", "B", "C"]
        )
        assert code == 0
        assert log_path.exists()
        manifest_path = log_path.with_suffix(".manifest.json")
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "run"
        assert manifest["exit_status"] == 0
        assert "topology" in manifest  # run attaches the scenario summary
        from repro.obs import summarize_run

        summary = summarize_run(log_path)
        assert summary["complete"]
        assert "cli" in summary["spans"]
        assert "cli_run" in summary["spans"]
        assert summary["counters"].get("lp_solve", 0) > 0

    def test_summarize_renders_log(self, tmp_path, capsys):
        from repro.obs import core as obs

        log_path = tmp_path / "run.jsonl"
        with obs.enabled(log_path, run_id="cli-test") as log:
            with log.span("work"):
                log.counter("steps", 2)
        assert main(["obs", "summarize", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "work" in out
        assert "steps" in out

    def test_summarize_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_summarize_corrupt_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["obs", "summarize", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestReproduce:
    def test_writes_all_case_studies(self, tmp_path, capsys):
        out_dir = tmp_path / "repro_out"
        assert main(["reproduce", "--out", str(out_dir)]) == 0
        written = {p.name for p in out_dir.iterdir()}
        assert {
            "fig4_chosen_victim.txt",
            "fig5_max_damage.txt",
            "fig6_obfuscation.txt",
            "naive_baseline.txt",
            "loss_chosen_victim.txt",
        } <= written
        fig4 = (out_dir / "fig4_chosen_victim.txt").read_text()
        assert "victim" in fig4
        assert "damage" in fig4
