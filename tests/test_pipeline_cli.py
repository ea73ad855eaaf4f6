import json

import pytest

from technet import pipeline
from technet.cli import main
from technet.nullmodel import BicmFitError
from technet.pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    RunPaths,
    load_run_config,
    resolve_workers,
    run_pipeline,
)
from technet.synth import SynthConfig, generate_events, planted_cycle_pairs, synth_field_codes


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    codes = synth_field_codes(10, 2)
    cfg = SynthConfig(
        n_regions=50, n_fields=10, n_sections=2, year_min=1991, year_max=1996,
        baseline_presence=0.08, catalytic_pairs=planted_cycle_pairs(codes, 10.0),
        families_per_presence=2, master_seed=4,
    )
    res = generate_events(cfg)
    (root / "events.csv").write_text(res.events_text)
    (root / "hierarchy.csv").write_text(res.hierarchy_text)
    (root / "regions.csv").write_text(res.regions_text)
    return root


def run_config(synth_inputs, out_dir, **overrides):
    cfg = RunConfig(
        events_path=str(synth_inputs / "events.csv"),
        hierarchy_path=str(synth_inputs / "hierarchy.csv"),
        regions_path=str(synth_inputs / "regions.csv"),
        out_dir=str(out_dir),
        year_min=1991,
        year_max=1996,
        n_replicates=25,
        master_seed=6,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestValidation:
    def test_empty_year_range_rejected_before_compute(self, synth_inputs, tmp_path):
        cfg = run_config(synth_inputs, tmp_path / "r", year_min=2000, year_max=1999)
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert not (tmp_path / "r").exists()

    def test_range_shorter_than_lag_rejected(self, synth_inputs, tmp_path):
        cfg = run_config(synth_inputs, tmp_path / "r", year_min=1991, year_max=1991)
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_bad_q_and_k(self, synth_inputs, tmp_path):
        with pytest.raises(ConfigError):
            run_pipeline(run_config(synth_inputs, tmp_path / "a", fdr_q=1.5))
        with pytest.raises(ConfigError):
            run_pipeline(run_config(synth_inputs, tmp_path / "b", n_replicates=0))

    def test_config_file_parsing(self, tmp_path):
        text = "\n".join([
            "# comment",
            "year_min = 1995",
            "year_max = 2000",
            "n_replicates = 77",
            "fdr_q = 0.1",
            "include_diagonal = true",
            "significance_basis = addone",
        ])
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        cfg = load_run_config(path)
        assert cfg.year_min == 1995 and cfg.n_replicates == 77
        assert cfg.fdr_q == 0.1 and cfg.include_diagonal
        assert cfg.significance_basis == "addone"

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.delenv("TECHNET_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("TECHNET_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.setenv("TECHNET_WORKERS", "x")
        with pytest.raises(ConfigError):
            resolve_workers(None)


class TestRunPipeline:
    def test_complete_run_and_manifest(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        manifest = run_pipeline(run_config(synth_inputs, out))
        assert manifest["status"] == "complete"
        paths = RunPaths(out)
        for year in range(1991, 1997):
            assert paths.occurrence(year).is_file()
            assert paths.presence(year).is_file()
        for year in range(1991, 1996):
            assert paths.assist(year).is_file()
            assert paths.pvalues(year).is_file()
            assert paths.network(year).is_file()
            assert paths.labels(year).is_file()
        assert paths.acs_summary().is_file()
        for name in ("fitness.csv", "variety.csv", "mixing.csv", "occupancy.csv"):
            assert paths.stats(name).is_file()
        on_disk = json.loads(paths.manifest().read_text())
        assert on_disk["artifacts"] == manifest["artifacts"]
        assert "technet" in on_disk["versions"]

    def test_rerun_same_dir_is_byte_identical(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        run_pipeline(run_config(synth_inputs, out), workers=1)
        first = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        run_pipeline(run_config(synth_inputs, out), workers=3)
        second = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert first == second

    def test_failed_stage_marks_manifest_incomplete(self, synth_inputs, tmp_path):
        # a year with no events yields an all-zero occurrence matrix: the RCA
        # stage fails, the manifest records it, and partial artifacts remain
        out = tmp_path / "bad"
        cfg = run_config(synth_inputs, out, year_min=1989, year_max=1996)
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "rca"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["failed"]["stage"] == "rca"

    def test_null_summaries_flag(self, synth_inputs, tmp_path):
        out = tmp_path / "dump"
        cfg = run_config(synth_inputs, out, dump_null_summaries=True, n_replicates=8)
        run_pipeline(cfg)
        summary = RunPaths(out).null_summary(1991).read_text().splitlines()
        assert summary[0] == "replicate,mean,max"
        assert len(summary) == 9

    def test_null_artifacts_identical_across_worker_counts(self, synth_inputs, tmp_path):
        # K=37 splits unevenly into 4 chunks per worker, and the 5 year pairs
        # overlap on the shared pool
        null_bytes = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cfg = run_config(synth_inputs, out, dump_null_summaries=True, n_replicates=37)
            run_pipeline(cfg, workers=workers)
            files = sorted((out / "pvalues").glob("P_*.csv")) + sorted(
                (out / "nulls").glob("summary_*.csv")
            )
            assert len(files) == 10
            null_bytes.append({p.relative_to(out): p.read_bytes() for p in files})
        assert null_bytes[0] == null_bytes[1] == null_bytes[2]

    def test_error_inside_null_pool_is_pipeline_error(self, synth_inputs, tmp_path, monkeypatch):
        def failing_counts(*args, **kwargs):
            raise BicmFitError("BiCM fit did not converge", 1.0, 7)

        monkeypatch.setattr(pipeline, "exceedance_counts", failing_counts)
        out = tmp_path / "fails"
        with pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out), workers=2)
        assert err.value.stage == "nulls"
        assert isinstance(err.value.cause, BicmFitError)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"]["stage"] == "nulls"

    def test_addone_basis_runs(self, synth_inputs, tmp_path):
        out = tmp_path / "addone"
        cfg = run_config(synth_inputs, out, significance_basis="addone")
        manifest = run_pipeline(cfg)
        assert manifest["config"]["significance_basis"] == "addone"


class TestCli:
    def test_stagewise_chain_matches_pipeline(self, synth_inputs, tmp_path):
        staged = tmp_path / "staged"
        direct = tmp_path / "direct"
        events = str(synth_inputs / "events.csv")
        hierarchy = str(synth_inputs / "hierarchy.csv")
        assert main(["ingest", "--run-dir", str(staged), "--events", events,
                     "--hierarchy", hierarchy, "--year-min", "1991",
                     "--year-max", "1996"]) == 0
        assert main(["rca", "--run-dir", str(staged)]) == 0
        assert main(["assist", "--run-dir", str(staged)]) == 0
        assert main(["nulls", "--run-dir", str(staged), "--replicates", "25",
                     "--seed", "6", "--workers", "2"]) == 0
        assert main(["filter", "--run-dir", str(staged)]) == 0
        assert main(["acs", "--run-dir", str(staged)]) == 0
        assert main(["stats", "--run-dir", str(staged), "--events", events,
                     "--hierarchy", hierarchy]) == 0
        assert main(["dynamics", "--run-dir", str(staged), "--year", "1993",
                     "--t-end", "2", "--window", "1"]) == 0

        run_pipeline(run_config(synth_inputs, direct))
        for rel in ("acs/summary.csv", "stats/mixing.csv", "network/C_1993.csv"):
            assert (staged / rel).read_bytes() == (direct / rel).read_bytes()
        assert (staged / "dynamics" / "trajectory_1993.csv").is_file()
        assert (staged / "dynamics" / "growth_1993.csv").is_file()

    def test_pipeline_subcommand_with_config_file(self, synth_inputs, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"events_path = {synth_inputs / 'events.csv'}\n"
            f"hierarchy_path = {synth_inputs / 'hierarchy.csv'}\n"
            "year_min = 1991\nyear_max = 1994\nn_replicates = 10\n"
        )
        out = tmp_path / "from_config"
        code = main(["pipeline", "--config", str(cfg_file), "--run-dir", str(out),
                     "--seed", "9"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 9
        assert manifest["config"]["n_replicates"] == 10

    def test_exit_code_validation_error(self, synth_inputs, tmp_path):
        code = main(["pipeline", "--run-dir", str(tmp_path / "x"),
                     "--events", "missing.csv",
                     "--hierarchy", str(synth_inputs / "hierarchy.csv")])
        assert code == 1
        code = main(["pipeline", "--run-dir", str(tmp_path / "y"),
                     "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--year-min", "2001", "--year-max", "2000"])
        assert code == 1

    def test_exit_code_compute_error(self, synth_inputs, tmp_path):
        # 1989 has no events: RCA stage fails on the all-zero year
        code = main(["pipeline", "--run-dir", str(tmp_path / "z"),
                     "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--year-min", "1989", "--year-max", "1996"])
        assert code == 2

    def test_bad_flag_is_validation_error(self):
        assert main(["pipeline", "--no-such-flag"]) == 1

    def test_synth_subcommand_round_trips_through_ingest(self, tmp_path):
        out = tmp_path / "synthetic"
        assert main(["synth", "--out", str(out), "--regions", "30", "--fields", "8",
                     "--sections", "2", "--year-min", "1995", "--year-max", "1998",
                     "--p-base", "0.1", "--seed", "3", "--plant-cycle", "8"]) == 0
        for name in ("events.csv", "hierarchy.csv", "regions.csv",
                     "truth_edges.csv", "synth_config.json"):
            assert (out / name).is_file()
        truth = (out / "truth_edges.csv").read_text().splitlines()
        assert truth[0] == "source,target,beta"
        assert len(truth) == 4
        run = tmp_path / "ingested"
        assert main(["ingest", "--run-dir", str(run),
                     "--events", str(out / "events.csv"),
                     "--hierarchy", str(out / "hierarchy.csv"),
                     "--year-min", "1995", "--year-max", "1998"]) == 0
        fields = (run / "index" / "fields.txt").read_text().split()
        assert len(fields) == 8


def test_class_level_network_has_full_field_dimensions(tmp_path):
    # 121 classes in the hierarchy give a 121 x 121 adjacency even when only
    # a few fields ever occur in the events
    pairs = [("S", None)] + [(f"S{i:03d}", "S") for i in range(121)]
    from technet.hierarchy import CodeHierarchy
    from technet.fdr import network_from_text

    hierarchy = CodeHierarchy.from_pairs(pairs)
    fields = hierarchy.codes_at("class")
    assert len(fields) == 121
    net = network_from_text("2000,S000,S001\n", fields, year=2000)
    assert net.adjacency.shape == (121, 121)
