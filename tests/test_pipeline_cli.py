import hashlib
import json

import pytest

from oracles import pvalue_text_by_loop
from technet import nullmodel, pipeline
from technet.assist import assist_from_text
from technet.cli import main
from technet.nullmodel import BicmFitError, fit_bicm
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
            # year,field,count per field featured that year, sorted by field
            rows = [line.split(",") for line in paths.field_counts(year).read_text().splitlines()]
            assert rows and all(int(y) == year and int(n) > 0 for y, _code, n in rows)
            codes = [code for _y, code, _n in rows]
            assert codes == sorted(codes) and set(codes) <= set(paths.read_fields())
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
        # K=37 splits unevenly into 8 chunks per worker, and each chunk walks
        # all 5 year pairs
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

    def test_each_year_is_drawn_once_per_replicate(self, synth_inputs, tmp_path, monkeypatch):
        drawn = []
        sample = nullmodel.sample_null_matrix

        def counted(params, rng):
            drawn.append((params.year, rng))
            return sample(params, rng)

        monkeypatch.setattr(nullmodel, "sample_null_matrix", counted)
        cfg = run_config(synth_inputs, tmp_path / "run", n_replicates=7)
        run_pipeline(cfg, workers=2)
        assert sorted(year for year, _rng in drawn) == sorted(cfg.years * 7)

    def test_replicates_run_in_eight_chunks_per_worker(self, synth_inputs, tmp_path, monkeypatch):
        # many small tasks let a worker that is not slowed take over the rest
        chunks = []
        counts = pipeline.exceedance_counts

        def recorded(pairs, replicates, *args):
            chunks.append(list(replicates))
            return counts(pairs, replicates, *args)

        monkeypatch.setattr(pipeline, "exceedance_counts", recorded)
        run_pipeline(run_config(synth_inputs, tmp_path / "run", n_replicates=37), workers=2)
        assert sorted(map(len, chunks)) == [2] * 11 + [3] * 5
        assert all(chunk == list(range(chunk[0], chunk[0] + len(chunk))) for chunk in chunks)
        assert sorted(k for chunk in chunks for k in chunk) == list(range(37))

    def test_year_in_no_pair_is_neither_fitted_nor_drawn(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        # lag 2 over 1991-1993: the one pair is (1991, 1993), so 1992 is unused
        fitted, drawn = [], []
        fit, sample = pipeline.fit_bicm, nullmodel.sample_null_matrix

        def counted_fit(m, *args, **kwargs):
            fitted.append(m.year)
            return fit(m, *args, **kwargs)

        def counted_sample(params, rng):
            drawn.append(params.year)
            return sample(params, rng)

        monkeypatch.setattr(pipeline, "fit_bicm", counted_fit)
        monkeypatch.setattr(nullmodel, "sample_null_matrix", counted_sample)
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out, year_max=1993, lag=2, n_replicates=6)
        run_pipeline(cfg, workers=2)
        assert sorted(fitted) == [1991, 1993]
        assert sorted(drawn) == [1991] * 6 + [1993] * 6
        paths = RunPaths(out)
        regions, fields = paths.read_regions(), paths.read_fields()
        p_t, p_lag = (
            fit(pipeline._read_presence(paths, year, regions, fields)).link_probability
            for year in (1991, 1993)
        )
        b_emp = assist_from_text(
            paths.assist(1991).read_text(), paths.assist_sidecar(1991).read_text()
        )
        expected = pvalue_text_by_loop(b_emp, p_t, p_lag, 1993, 6, cfg.master_seed)
        assert paths.pvalues(1991).read_text() == expected

    def test_pvalues_equal_the_replicate_loop_oracle(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out)
        run_pipeline(cfg, workers=2)
        paths = RunPaths(out)
        regions, fields = paths.read_regions(), paths.read_fields()
        fits = {
            year: fit_bicm(pipeline._read_presence(paths, year, regions, fields))
            for year in cfg.years
        }
        for year in cfg.base_years:
            b_emp = assist_from_text(
                paths.assist(year).read_text(), paths.assist_sidecar(year).read_text()
            )
            expected = pvalue_text_by_loop(
                b_emp, fits[year].link_probability, fits[year + 1].link_probability,
                year + 1, cfg.n_replicates, cfg.master_seed,
            )
            assert paths.pvalues(year).read_text() == expected

    def test_addone_basis_runs(self, synth_inputs, tmp_path):
        out = tmp_path / "addone"
        cfg = run_config(synth_inputs, out, significance_basis="addone")
        manifest = run_pipeline(cfg)
        assert manifest["config"]["significance_basis"] == "addone"


# sha256 of every acs/ and stats/ artifact of run_config(synth_inputs, ...).
# Derived, not just re-recorded, when each null draw became keyed by its own
# (year, k): the run's pvalues/ equal the replicate-loop oracle (see
# test_pvalues_equal_the_replicate_loop_oracle), and the acs and stats stages
# of the commit before that change give these same bytes on the new networks.
ACS_STATS_SHA256 = {
    "acs/labels_1991.csv": "f956a4b2e15fae8b044df10a01d22f779b813fe2fdb582a9b185f42b1f8a438d",
    "acs/labels_1992.csv": "e2eb6d39d647ef652f6b9af53e6d8f890c9f903e1f31c869c6dd242a9bbcba74",
    "acs/labels_1993.csv": "6d2f8215e2f8704ec61d42e5f60259a7e63f4cdf5356dab5f5939b560526bf2a",
    "acs/labels_1994.csv": "360d65a03946cae23f814bd57077bc03555fcf11e35379b5d831bc18db958435",
    "acs/labels_1995.csv": "7e9cc581ebd5f764789e22f2e12726a114f08175764cb640463e94a634e6b572",
    "acs/summary.csv": "8240cf51b0fb0a9551f0b5c346ef7b7d134d0b758bacce5a31bf28b13536ecd8",
    "stats/adjacency_1991.csv": "f43529cc79a7d9c09a96caa0e47868d628632a3a78f7c8334d6db5695b41627e",
    "stats/adjacency_1991.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1992.csv": "ba7707d5edbd83dfc35a457945224c098d1d0802a5540ad5bba2f7cf59327b96",
    "stats/adjacency_1992.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1993.csv": "703d375d1fd73b5f1187bd76ff26e31ac4c9551bae5fa28e253ef7dc91a26ce6",
    "stats/adjacency_1993.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1994.csv": "53db9a27f13cbed4c00b52a985f441795687499f57548f0c89f458976b19894c",
    "stats/adjacency_1994.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1995.csv": "92d1835265e671aa8c2ae0d3e02bbc7ae8f2a197fa847841bc8b96d0418847a4",
    "stats/adjacency_1995.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/fitness.csv": "339a80d50d1a5ba3fa3c6a1f24d8e5083d802ae3ed9b941e0cb7a286200773eb",
    "stats/mixing.csv": "4a8763c28e7af107f2e55090e0698e8033e731d67101bceeebb1326221fc5b99",
    "stats/occupancy.csv": "b2943b49f0da037b9dc043d9ed9566f62c83c49fb85acfe4715f77cab28dc1cf",
    "stats/variety.csv": "d625223f11c72c79e5feb24407f044b18c63b965aeffe118ecf45ed68d352a17",
}


def _drop_last_label(paths):
    path = paths.labels(1993)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _labels_of_other_year(paths):
    paths.labels(1993).write_text(paths.labels(1992).read_text())


def _drop_field_counts(paths):
    paths.field_counts(1993).unlink()


def _field_counts_of_other_year(paths):
    paths.field_counts(1993).write_text(paths.field_counts(1992).read_text())


class TestStatsInputs:
    def test_events_parsed_once_and_each_network_decomposed_once(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        calls = {"parse_events": 0, "decompose": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        cfg = run_config(synth_inputs, tmp_path / "run")
        run_pipeline(cfg)
        assert calls == {"parse_events": 1, "decompose": len(cfg.base_years)}

    def test_acs_and_stats_artifacts_match_golden(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        run_pipeline(run_config(synth_inputs, out))
        digests = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for sub in ("acs", "stats") for p in sorted((out / sub).iterdir())
        }
        assert digests == ACS_STATS_SHA256

    @pytest.mark.parametrize(
        "tamper, cause",
        [
            (_drop_last_label, ValueError),
            (_labels_of_other_year, ValueError),
            (_drop_field_counts, FileNotFoundError),
            (_field_counts_of_other_year, ValueError),
        ],
    )
    def test_inconsistent_inputs_fail_the_stats_stage(
        self, synth_inputs, tmp_path, monkeypatch, tamper, cause
    ):
        def tampered_stats(cfg, paths):
            tamper(paths)
            pipeline.stage_stats(cfg, paths)

        stages = tuple(
            (name, tampered_stats if name == "stats" else fn) for name, fn in pipeline.STAGES
        )
        monkeypatch.setattr(pipeline, "STAGES", stages)
        out = tmp_path / "run"
        with pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out))
        assert err.value.stage == "stats"
        assert isinstance(err.value.cause, cause)
        assert not RunPaths(out).stats("fitness.csv").exists()


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
        assert main(["stats", "--run-dir", str(staged),
                     "--hierarchy", str(tmp_path / "missing.csv")]) == 1
        assert main(["stats", "--run-dir", str(staged), "--hierarchy", hierarchy]) == 0
        assert main(["dynamics", "--run-dir", str(staged), "--year", "1993",
                     "--t-end", "2", "--window", "1"]) == 0

        run_pipeline(run_config(synth_inputs, direct))
        for rel in ("acs/summary.csv", "stats/mixing.csv", "stats/fitness.csv",
                    "network/C_1993.csv"):
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
