"""CLI surface of the sweep engine, happy path and error paths."""

import json

import pytest

from repro import config
from repro.cli import main


def write_spec(path, **overrides):
    doc = {
        "format": "repro-sweep",
        "version": 1,
        "name": "cli-unit",
        "seed": 5,
        "strategies": ["chosen-victim", "naive"],
        "topologies": [{"kind": "fig1"}],
        "attacker_counts": [1, 2],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def spec_file(tmp_path):
    return write_spec(tmp_path / "spec.json")


class TestHappyPath:
    def test_full_run_prints_summary(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "4 ran, 0 skipped, 0 remaining (4 total)" in text
        assert "Sweep summary (4 points)" in text
        assert "chosen-victim" in text and "naive" in text
        assert out.exists()

    def test_budget_then_resume(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(
            ["sweep", str(spec_file), "--out", str(out), "--max-points", "1"]
        ) == 0
        assert "partial grid" in capsys.readouterr().out
        assert main(["sweep", str(spec_file), "--out", str(out), "--resume"]) == 0
        assert "3 ran, 1 skipped, 0 remaining" in capsys.readouterr().out

    def test_resume_with_zero_remaining_points(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 0
        capsys.readouterr()
        before = out.read_bytes()
        assert main(["sweep", str(spec_file), "--out", str(out), "--resume"]) == 0
        assert "0 ran, 4 skipped, 0 remaining" in capsys.readouterr().out
        assert out.read_bytes() == before


class TestErrorPaths:
    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.json")]) == 1
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_malformed_spec_json(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{this is not json")
        assert main(["sweep", str(spec)]) == 1
        assert "invalid sweep spec JSON" in capsys.readouterr().err

    def test_invalid_spec_contents(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "bad.json", strategies=["divide-and-conquer"])
        assert main(["sweep", str(spec)]) == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_existing_results_without_resume_refused(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 0
        capsys.readouterr()
        before = out.read_bytes()
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 1
        assert "already exists" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_corrupt_checkpoint_refused_not_clobbered(
        self, spec_file, tmp_path, capsys
    ):
        out = tmp_path / "results.jsonl"
        assert main(
            ["sweep", str(spec_file), "--out", str(out), "--max-points", "1"]
        ) == 0
        capsys.readouterr()
        out.write_bytes(out.read_bytes() + b'{"kind": "point", "trunca')
        before = out.read_bytes()
        assert main(["sweep", str(spec_file), "--out", str(out), "--resume"]) == 1
        assert "corrupt" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_foreign_checkpoint_refused(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 0
        capsys.readouterr()
        other = write_spec(tmp_path / "other.json", seed=6)
        assert main(["sweep", str(other), "--out", str(out), "--resume"]) == 1
        assert "different sweep spec" in capsys.readouterr().err


class TestCacheReuse:
    @pytest.mark.skipif(
        config.get_str("REPRO_BACKEND").lower() == "sparse",
        reason="REPRO_BACKEND=sparse: no dense factors to persist",
    )
    def test_second_run_warm_starts_from_store_byte_identical(
        self, spec_file, tmp_path, monkeypatch
    ):
        """Two CLI invocations share factorizations via REPRO_CACHE_DIR."""
        from repro.obs import core as obs
        from repro.obs.summary import read_events

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(first)]) == 0
        assert list((tmp_path / "cache").rglob("*.npz"))  # store populated

        log_path = tmp_path / "run.jsonl"
        with obs.enabled(log_path):
            assert main(["sweep", str(spec_file), "--out", str(second)]) == 0
        hits = [
            r
            for r in read_events(log_path)
            if r.get("name") == "sweep_store" and r.get("op") == "load" and r.get("hit")
        ]
        assert hits  # the second run warm-started from the first run's store

        # results are byte-identical with and without the warm start
        assert second.read_bytes() == first.read_bytes()
        monkeypatch.delenv("REPRO_CACHE_DIR")
        cold = tmp_path / "cold.jsonl"
        assert main(["sweep", str(spec_file), "--out", str(cold)]) == 0
        assert cold.read_bytes() == first.read_bytes()
