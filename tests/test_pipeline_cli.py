import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Sized
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import pvalue_text_by_loop
from technet import artifacts, nullmodel, pipeline
from technet.assist import assist_from_text
from technet.cli import _config, build_parser, main
from technet.hierarchy import hierarchy_to_text
from technet.nullmodel import BicmFitError, fit_bicm
from technet.pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    RunPaths,
    check_workers,
    load_run_config,
    run_pipeline,
)
from technet.rca import PresenceMatrix
from technet.stats import field_counts_to_text
from technet.synth import (
    SynthConfig,
    generate_events,
    planted_cycle_pairs,
    synth_field_codes,
    synth_hierarchy,
)


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


@pytest.fixture(scope="module")
def complete_run(synth_inputs, tmp_path_factory):
    """A complete run of `run_config`, for tests that copy it and change one artifact."""
    out = tmp_path_factory.mktemp("complete") / "run"
    run_pipeline(run_config(synth_inputs, out))
    return out


def _log_call(path, value):
    """Append one line for one call; forked null-pool workers append to the same file."""
    with open(path, "a") as log:
        log.write(f"{value}\n")


def _logged_calls(path):
    return path.read_text().splitlines() if path.exists() else []


@contextmanager
def _deadline(seconds):
    """Fail, not hang, if the block is still running after `seconds`."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_empty_delimiter_rejected(self, synth_inputs, tmp_path):
        with pytest.raises(ConfigError):
            run_pipeline(run_config(synth_inputs, tmp_path / "r", delimiter=""))
        assert main(["ingest", "--run-dir", str(tmp_path / "s"),
                     "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--delimiter", ""]) == 1

    def test_config_file_parsing(self, tmp_path):
        text = "\n".join([
            "# comment",
            "year_min = 1995",
            "year_max = 2000",
            "n_replicates = 77",
            "fdr_q = 0.1",
            "include_diagonal = true",
            "significance_basis = addone",
            "lag = 2",
            "granularity = subclass",
        ])
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        cfg = load_run_config(path)
        assert cfg.year_min == 1995 and cfg.n_replicates == 77
        assert cfg.fdr_q == 0.1 and cfg.include_diagonal
        assert cfg.significance_basis == "addone"
        assert cfg.lag == 2
        assert cfg.granularity == "subclass"
        path.write_text("lag = x\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_config_file_bools_take_only_yes_or_no_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        for word, expect in [("1", True), ("TRUE", True), ("Yes", True),
                             ("0", False), ("false", False), ("no", False), ("NO", False)]:
            path.write_text(f"include_diagonal = {not expect}\ninclude_diagonal = {word}\n")
            assert load_run_config(path).include_diagonal is expect, word
        for word in ("ture", "on"):
            path.write_text(f"include_diagonal = {word}\n")
            with pytest.raises(ConfigError) as raised:
                load_run_config(path)
            assert str(raised.value) == f"bad value for 'include_diagonal': '{word}'"

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_worker_count_below_one_is_a_config_error(self, synth_inputs, tmp_path):
        check_workers(1)
        check_workers(2)
        # a count below 1 is an error, not one worker
        for workers in (0, -3):
            with pytest.raises(ConfigError):
                check_workers(workers)
        with pytest.raises(ConfigError):
            run_pipeline(run_config(synth_inputs, tmp_path / "r"), workers=0)
        assert not (tmp_path / "r").exists()


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

    def test_null_artifacts_identical_across_worker_counts(self, synth_inputs, tmp_path):
        # K=37 splits unevenly into 8 chunks per worker, and each chunk walks
        # all 5 year pairs
        null_bytes = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            run_pipeline(run_config(synth_inputs, out, n_replicates=37), workers=workers)
            files = sorted((out / "pvalues").glob("P_*.csv"))
            assert len(files) == 5
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_null_chunks_leave_this_process_only_for_two_or_more_workers(
        self, synth_inputs, tmp_path, monkeypatch, workers
    ):
        log = tmp_path / "pids.log"
        counts = pipeline.exceedance_counts

        def recorded(*args, **kwargs):
            _log_call(log, os.getpid())
            return counts(*args, **kwargs)

        monkeypatch.setattr(pipeline, "exceedance_counts", recorded)
        run_pipeline(run_config(synth_inputs, tmp_path / "run", n_replicates=7), workers=workers)
        pids = [int(pid) for pid in _logged_calls(log)]
        assert len(pids) == 7  # K=7 makes 7 one-replicate chunks for either worker count
        if workers == 1:
            assert set(pids) == {os.getpid()}
        else:
            assert os.getpid() not in pids

    def test_no_worker_outlives_a_successful_nulls_stage(self, synth_inputs, tmp_path):
        run_pipeline(run_config(synth_inputs, tmp_path / "run", n_replicates=7), workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_null_chunk_fails_the_stage_and_cancels_the_rest(
        self, synth_inputs, tmp_path, monkeypatch, failure
    ):
        # chunk 0 fails at once, by an exception or by its worker process
        # exiting; each of the other 15 chunks takes at least 0.1 s
        log = tmp_path / "chunks.log"
        counts = pipeline.exceedance_counts

        def failing_counts(fits, b_emps, replicates, **kwargs):
            if replicates[0] == 0:
                if failure == "exit":
                    os._exit(3)
                raise ValueError("chunk 0 fails")
            _log_call(log, replicates[0])
            time.sleep(0.1)
            return counts(fits, b_emps, replicates, **kwargs)

        monkeypatch.setattr(pipeline, "exceedance_counts", failing_counts)
        out = tmp_path / "fails"
        with _deadline(60), pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out, n_replicates=37), workers=2)
        assert err.value.stage == "nulls"
        assert isinstance(err.value.cause, BrokenProcessPool if failure == "exit" else ValueError)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["failed"]["stage"] == "nulls"
        assert len(_logged_calls(log)) < 15  # pending chunks were cancelled, not run
        assert multiprocessing.active_children() == []

    def test_each_year_is_drawn_once_per_replicate(self, synth_inputs, tmp_path, monkeypatch):
        drawn = tmp_path / "drawn.log"
        sample = nullmodel.sample_null_matrix

        def counted(params, rng):
            _log_call(drawn, params.year)
            return sample(params, rng)

        monkeypatch.setattr(nullmodel, "sample_null_matrix", counted)
        cfg = run_config(synth_inputs, tmp_path / "run", n_replicates=7)
        run_pipeline(cfg, workers=2)
        assert sorted(map(int, _logged_calls(drawn))) == sorted(cfg.years * 7)

    def test_nulls_stage_builds_presence_only_for_the_years_it_reads(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        # null draws are hit lists, never presence matrices
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out, n_replicates=7)
        run_pipeline(cfg)
        built = []
        post_init = PresenceMatrix.__post_init__

        def counted(self):
            built.append(self.year)
            post_init(self)

        monkeypatch.setattr(PresenceMatrix, "__post_init__", counted)
        pipeline.stage_nulls(cfg, RunPaths(out), workers=2)
        assert sorted(built) == cfg.years

    def test_replicates_run_in_eight_chunks_per_worker(self, synth_inputs, tmp_path, monkeypatch):
        # many small tasks let a worker that is not slowed take over the rest
        log = tmp_path / "chunks.log"
        counts = pipeline.exceedance_counts

        def recorded(fits, b_emps, replicates, **kwargs):
            _log_call(log, " ".join(map(str, replicates)))
            return counts(fits, b_emps, replicates, **kwargs)

        monkeypatch.setattr(pipeline, "exceedance_counts", recorded)
        run_pipeline(run_config(synth_inputs, tmp_path / "run", n_replicates=37), workers=2)
        chunks = [list(map(int, line.split())) for line in _logged_calls(log)]
        assert sorted(map(len, chunks)) == [2] * 11 + [3] * 5
        assert all(chunk == list(range(chunk[0], chunk[0] + len(chunk))) for chunk in chunks)
        assert sorted(k for chunk in chunks for k in chunk) == list(range(37))

    def test_year_in_no_pair_is_neither_fitted_nor_drawn(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        # lag 2 over 1991-1993: the one pair is (1991, 1993), so 1992 is unused
        fitted, drawn = tmp_path / "fitted.log", tmp_path / "drawn.log"
        fit, sample = pipeline.fit_bicm, nullmodel.sample_null_matrix

        def counted_fit(m, *args, **kwargs):
            _log_call(fitted, m.year)
            return fit(m, *args, **kwargs)

        def counted_sample(params, rng):
            _log_call(drawn, params.year)
            return sample(params, rng)

        monkeypatch.setattr(pipeline, "fit_bicm", counted_fit)
        monkeypatch.setattr(nullmodel, "sample_null_matrix", counted_sample)
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out, year_max=1993, lag=2, n_replicates=6)
        run_pipeline(cfg, workers=2)
        assert sorted(map(int, _logged_calls(fitted))) == [1991, 1993]
        assert sorted(map(int, _logged_calls(drawn))) == [1991] * 6 + [1993] * 6
        paths = RunPaths(out)
        presence = dict(pipeline._pair_presence(cfg, paths))
        p_t, p_lag = (fit(presence[year]).link_probability for year in (1991, 1993))
        b_emp = assist_from_text(
            paths.assist(1991).read_text(), paths.assist_sidecar(1991).read_text(),
            regions=paths.read_regions(), fields=paths.read_fields(), year=1991,
        )
        expected = pvalue_text_by_loop(b_emp, p_t, p_lag, 1993, 6, cfg.master_seed)
        assert paths.pvalues(1991).read_text() == expected

    def test_pvalues_equal_the_replicate_loop_oracle(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out)
        run_pipeline(cfg, workers=2)
        paths = RunPaths(out)
        fits = {year: fit_bicm(m) for year, m in pipeline._pair_presence(cfg, paths)}
        for year in cfg.base_years:
            b_emp = assist_from_text(
                paths.assist(year).read_text(), paths.assist_sidecar(year).read_text(),
                regions=fits[year].regions, fields=fits[year].fields, year=year,
            )
            expected = pvalue_text_by_loop(
                b_emp, fits[year].link_probability, fits[year + 1].link_probability,
                year + 1, cfg.n_replicates, cfg.master_seed,
            )
            assert paths.pvalues(year).read_text() == expected

    def test_uint16_chunk_counts_write_the_int64_reference_bytes(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        # one pair and one worker: K=2100 makes 8 chunks of 262-263
        # replicates, so each task counts in uint16; the reference sums the
        # same replicates' exceedances in int64
        chunk_types = []
        counts = pipeline.exceedance_counts

        def recorded(*args, **kwargs):
            result = counts(*args, **kwargs)
            chunk_types.extend(c.dtype for c in result)
            return result

        monkeypatch.setattr(pipeline, "exceedance_counts", recorded)
        out = tmp_path / "run"
        cfg = run_config(synth_inputs, out, year_max=1992, n_replicates=2100)
        run_pipeline(cfg)
        assert chunk_types == [np.dtype(np.uint16)] * 8
        paths = RunPaths(out)
        fits = {year: fit_bicm(m) for year, m in pipeline._pair_presence(cfg, paths)}
        b_emp = assist_from_text(
            paths.assist(1991).read_text(), paths.assist_sidecar(1991).read_text(),
            regions=fits[1991].regions, fields=fits[1991].fields, year=1991,
        )
        threshold = nullmodel.exceedance_threshold(b_emp)
        replicates = (
            nullmodel.null_assist_replicate(fits[1991], fits[1992], cfg.master_seed, k).values
            for k in range(cfg.n_replicates)
        )
        reference = sum((values >= threshold).astype(np.int64) for values in replicates)
        assert reference.max() > 255
        expected = nullmodel.PvalueMatrix(1991, b_emp.fields, 2100, reference, b_emp.ubiquity > 0)
        assert paths.pvalues(1991).read_text() == nullmodel.pvalues_to_text(expected)

    @pytest.mark.parametrize("k", [255, 256, 65_535, 65_536])
    def test_null_totals_hold_k_at_the_count_type_edges(
        self, synth_inputs, complete_run, tmp_path, monkeypatch, k
    ):
        # a stand-in walk counts every replicate of its chunk as an exceedance,
        # so every total reaches K without a replicate drawn
        def every_replicate_exceeds(fits, tests, replicates, **kwargs):
            dtype = nullmodel.count_dtype(len(replicates))
            return [np.full(test.threshold.shape, len(replicates), dtype) for test in tests]

        totals = []
        to_pvalues = pipeline.pvalues_from_counts

        def recorded(test, counts, n_replicates):
            totals.append(counts.dtype)
            return to_pvalues(test, counts, n_replicates)

        monkeypatch.setattr(pipeline, "exceedance_counts", every_replicate_exceeds)
        monkeypatch.setattr(pipeline, "pvalues_from_counts", recorded)
        run = tmp_path / "run"
        shutil.copytree(complete_run, run)
        cfg = run_config(synth_inputs, run, n_replicates=k)
        pipeline.stage_nulls(cfg, RunPaths(run))
        assert totals == [nullmodel.count_dtype(k)] * len(cfg.base_years)
        for year in cfg.base_years:
            pv = nullmodel.pvalues_from_text(RunPaths(run).pvalues(year).read_text(), year=year)
            assert pv.n_replicates == k and (pv.exceed_counts == k).all()

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
# stats/variety.csv changed once, when the FNCH normalizer moved to exponential
# tilting: 4 of its 50 data rows differ from the two-path log convolution's, in
# the last digits only (1992 llr by 7e-15 relative; omega_B of 1991, 1992 and
# 1995 by under 1e-7 relative), and no applicable, significant or clamped cell.
# It changed again when boundary compositions were fitted on their reduced
# problem: the clamped rows became boundary rows (true in 1993 and 1994, whose
# section B is empty); those two years' omega_B cells became empty and their
# llr rose from 4.969803299590999 to 4.969813299575999, within 2e-15 of the
# closed form 2 ln[C(10, 3) / C(5, 3)]. In the interior years, fitted without
# bounds, omega_B of 1991, 1992 and 1995 moved by under 3e-8 relative and the
# 1992 llr by 5e-15 relative. No applicable or significant cell changed.
# Every acs/ and stats/ file but labels_1993-1995 and the sections tables
# changed when the null draw became a byte threshold per cell, because the
# networks did (see INTERMEDIATE_SHA256): the filter, acs and stats stages of
# the commit before that change give these same bytes from the new P_ files.
# The 1991 ACS (core 3, periphery 1) became empty and the 1992 periphery lost
# one field, so the 1991 variety row is no longer applicable.
ACS_STATS_SHA256 = {
    "acs/labels_1991.csv": "bcf53e923e6a22d6980db7a6a0e0e647ae8997a9d69e55746fa8af1ba7a73a9c",
    "acs/labels_1992.csv": "019f6af27b1895b54501033b9192bde016b6de5ad0f6c355f62c2abfdd2db826",
    "acs/labels_1993.csv": "6d2f8215e2f8704ec61d42e5f60259a7e63f4cdf5356dab5f5939b560526bf2a",
    "acs/labels_1994.csv": "360d65a03946cae23f814bd57077bc03555fcf11e35379b5d831bc18db958435",
    "acs/labels_1995.csv": "7e9cc581ebd5f764789e22f2e12726a114f08175764cb640463e94a634e6b572",
    "acs/summary.csv": "b4b5413d169b1e92a181961ccf3979f85c7f35428540ae2171b04dc9be728251",
    "stats/adjacency_1991.csv": "c9aadc2e47148a6af64699c11b955350de87bdbf0ede88c012dfb39f01130918",
    "stats/adjacency_1991.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1992.csv": "49248346af66853538732a68075990f0d5f655d092c49d7f03050928026ac546",
    "stats/adjacency_1992.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1993.csv": "d5a94359ee05ed4a2c6d3a452daf2d9d7abd74767b9fb65816e39357a594e060",
    "stats/adjacency_1993.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1994.csv": "0ae8a495ad89db7008c23ca630ce4649c244e96897feecaaccbfc5454be9ecff",
    "stats/adjacency_1994.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/adjacency_1995.csv": "0cefa592a12f78e5d544e26243e049364d14efb2691db6a590eb7c4cd03e5eba",
    "stats/adjacency_1995.sections.csv": "b2ab5d5eeaa67338639bc943313c7c7a07d19a971a34d6d321d2ce75d7236ea0",
    "stats/fitness.csv": "1280800f7e697f463b6899bda83e1e5ebdae84573b78880a6673f165a623ff2c",
    "stats/mixing.csv": "d2859cc8bc7f25b3bdea696e3ece3659be254df05f55fc40e05e8a89f7b9bf5c",
    "stats/occupancy.csv": "19bd51f40f578180ed1e418a68b8a402715b379a4fc3307c738d52415074123f",
    "stats/variety.csv": "f1f7da74da5d3386cfa67640ef3e44dc2cd910727afd0150ac0b5b9fc71340ea",
}

# sha256 of every occurrence/, presence/, assist/, pvalues/ and network/
# artifact of the same run, recorded before their text moved to one artifact
# module; that move kept every byte. P_1991 and P_1995 changed once when null
# values tying the empirical ones up to summation order began to count as
# exceedances: 5 count cells rose, none fell, and no network changed. Every
# P_ and C_ changed when the null draw became a byte threshold per cell, as
# the streams are read differently: 169 of the 500 count cells moved (by at
# most 11 of K = 25), and the five networks went from 28 to 27 links, with
# 11 links lost and 10 gained. The new P_ files equal the replicate-loop
# oracle's, which draws cell by cell (test_pvalues_equal_the_replicate_loop_oracle).
INTERMEDIATE_SHA256 = {
    "occurrence/F_1991.csv": "c48bb792a2ba1262aa0f05358f635ff6df31e7a6b8abd3a1ec025b4dbad80bea",
    "occurrence/F_1992.csv": "bcf09c462e68e715a66a7b304becb2e8f29ccb89d5a99647ebd3e59e0f4e8bf0",
    "occurrence/F_1993.csv": "d0b8f48e14c1b94c3e58ec56be66ff119d4d4d18afe2536ed0e293b007fb4689",
    "occurrence/F_1994.csv": "c67fbdcd2e1ee43066af20a045447b69e70985edf2b13550964068896f71fd59",
    "occurrence/F_1995.csv": "296266ac274cffc0d22908316dd9b76406ebdf728844c42fcfc731aff8478a9a",
    "occurrence/F_1996.csv": "a301301fe2b2136e272716ca89c9560eeefc502a464ce04948704f8db1a8618b",
    "occurrence/W_1991.csv": "d0c4a27913e7c03a714827c82f63f6831748372e8f0c085c7da8cba69e54fb23",
    "occurrence/W_1992.csv": "578c0fb19b96470715640a97084406bacd287e046a7c7c8f84f9f4232e9c938a",
    "occurrence/W_1993.csv": "64bf03857262b344b5cf99d660436b9ab6155cedfbd045b304fcf093d29b3af5",
    "occurrence/W_1994.csv": "96fa57b151e6fef4ea18c09a73b8520d0c5e8b12576fdd9a90f3fb5258b8f4ac",
    "occurrence/W_1995.csv": "f4de4f5ae1fd06f3f8f9265e407e847e1d95dc8193c704c5c989b795c0f6e9d6",
    "occurrence/W_1996.csv": "3421a7bb297ca68e30ec500dd63b779bf8433753a952b9e95e1fb3ff319f649f",
    "presence/M_1991.csv": "764cf1143c306d0ffeb275a09016a54f5e39e2818fe84a9576ce0c9c60f35c26",
    "presence/M_1992.csv": "56dbdbdc8c3ef288dffe85c8c2c57affa1bb3aa6ab7a0ff890c2a8992caae411",
    "presence/M_1993.csv": "c7b241d5f71d51b0d828d412e3ca459b397080dd68ebedbba2a66831c04b6d02",
    "presence/M_1994.csv": "3c419896c5b5cee1d15fc0bfbd816203b982c05577d4e7a135200e52070de986",
    "presence/M_1995.csv": "392fc0584646f83b4de0dbbe0ff86d76f1441452712dab057401e9e6706a4b10",
    "presence/M_1996.csv": "d882b278ed64e423edbdb3598365caaed8445bec1245e698583014f154df19b1",
    "assist/B_1991.csv": "822aebc4ce4c0110d9298a7e639d42f6e025a86f8646f6eff27ed9c0c9f116fe",
    "assist/B_1991.sidecar.csv": "82adc3bfbbf9af37d5d68c617c36a01dcf05241881d4061755837b1e935e9800",
    "assist/B_1992.csv": "632f2dff9d74d5f2b7953f0246be7f1e52185feb7db42807a97e8654f322b812",
    "assist/B_1992.sidecar.csv": "0f65a4bcb6faec61d82468b9f30ec52dc4bd2e67a596e540021b2620edf3111a",
    "assist/B_1993.csv": "013d852c4392dd5476946665a2515d30119042d85ccf4239ad87f1528db1ea1a",
    "assist/B_1993.sidecar.csv": "570235f7d9db66276b611857407050efcc2585f12814eaa0b75055d1fe6f0ceb",
    "assist/B_1994.csv": "3016a8fa6bc474f6b678f61a889c511c361553b0e1f4cf8620d6251d8de8cc56",
    "assist/B_1994.sidecar.csv": "d2a92f924f0d5f0122866b82acb5c03cba291633e3fe6007c4f8e254390a7e53",
    "assist/B_1995.csv": "4ae7444179eabbe60e443fac7e584da04a5026edbf55fa61288a06360a5f22a9",
    "assist/B_1995.sidecar.csv": "33f6944538520fc4f3e05561a97c9224efc236d358b5db7c8058e6e32ff10c35",
    "pvalues/P_1991.csv": "7ef13a46e8cc9ef5cf16775546c363deddf7a7c52f4ff95584b643e506f518fa",
    "pvalues/P_1992.csv": "361ee12c6e1823157e4034de47ea3948d2740dde6d66a5e34963a1579d99d6ae",
    "pvalues/P_1993.csv": "05d79f874bb49b66587caa65b8c308727c80482b76ae8c8046a44d518b6bd0b8",
    "pvalues/P_1994.csv": "c556a74ff9e5eafaa28b1e59c1ebfe47ffc0f332c9327e787296da7c6236e8f2",
    "pvalues/P_1995.csv": "e7d24ed06507778f2b5091f85f5556e068532830e13bed87488522ebaa6ce07c",
    "network/C_1991.csv": "5f26acbc0c6042b85ade7c62b3de71d7a7e8ee46e502de818ed5fd2803eb503e",
    "network/C_1992.csv": "4a980fd294167b2713dca6fff8df792d4c7b0fe2a464c7a2b39884ecc14fa976",
    "network/C_1993.csv": "e7ecd1a126af522d2515c9b8e8c1bf9bea927af9ad8847ae76623889d72a1abc",
    "network/C_1994.csv": "73265114585d063121eae4ff435a47417f4c12fa77501f7f65bbf0be817b9030",
    "network/C_1995.csv": "e6f64ce6389aa940056367a9eb5e7e09d600a70edf410d3f9ac8b843025f2a9c",
}


def _tamper_before(monkeypatch, stage, tamper):
    """Make `stage` of the pipeline first apply tamper(paths) to its inputs."""
    def tampered(cfg, paths, *args, _stage=dict(pipeline.STAGES)[stage], **kwargs):
        tamper(paths)
        _stage(cfg, paths, *args, **kwargs)

    stages = tuple((name, tampered if name == stage else fn) for name, fn in pipeline.STAGES)
    monkeypatch.setattr(pipeline, "STAGES", stages)


def _drop_last_pvalue_row(paths):
    path = paths.pvalues(1993)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _pvalues_of_other_year(paths):
    paths.pvalues(1993).write_text(paths.pvalues(1992).read_text())


def _drop_last_label(paths):
    path = paths.labels(1993)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _labels_of_other_year(paths):
    paths.labels(1993).write_text(paths.labels(1992).read_text())


def _drop_field_counts(paths):
    paths.field_counts(1993).unlink()


def _field_counts_of_other_year(paths):
    paths.field_counts(1993).write_text(paths.field_counts(1992).read_text())


class TestIngestStage:
    def test_events_become_columns_without_per_event_objects(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        calls, parses = Counter(), []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                if name != "parse_events":
                    return fn(*args, **kwargs)
                gc.collect()
                before = len(gc.get_objects())
                result = fn(*args, **kwargs)
                parses.append((args[0], result, len(gc.get_objects()) - before))
                return result

            return call

        for name in ("parse_events", "build_occurrence_matrix", "family_field_counts"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        cfg = run_config(synth_inputs, tmp_path / "run")
        paths = RunPaths(cfg.out_dir)
        paths.ensure()
        pipeline.stage_ingest(cfg, paths)
        n_years = len(cfg.years)
        assert calls == {
            "parse_events": 1, "build_occurrence_matrix": n_years, "family_field_counts": n_years,
        }
        [(lines, parsed, new_objects)] = parses
        # the benchmark's tracer reads len(lines)
        assert isinstance(lines, Sized)
        assert len(lines) == len((synth_inputs / "events.csv").read_text().splitlines())
        columns = (parsed.family, parsed.year, parsed.region, parsed.code)
        assert all(column.dtype == np.int64 for column in columns)
        # a record per event would leave one tracked object per event behind
        assert parsed.year.size > 500 and new_objects < 50


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

    def test_each_presence_year_is_read_once_per_stage(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        reads = []
        read = pipeline.presence_from_text

        def counted(text, **kwargs):
            reads.append(kwargs["year"])
            return read(text, **kwargs)

        monkeypatch.setattr(pipeline, "presence_from_text", counted)
        cfg = run_config(synth_inputs, tmp_path / "run")
        run_pipeline(cfg)
        assert reads == cfg.years * 2  # the assist stage, then the null stage

    def test_acs_and_stats_artifacts_match_golden(self, synth_inputs, tmp_path):
        out = tmp_path / "run"
        run_pipeline(run_config(synth_inputs, out))
        digests = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for sub in ("occurrence", "presence", "assist", "pvalues", "network", "acs", "stats")
            for p in sorted((out / sub).iterdir())
        }
        assert digests == {**INTERMEDIATE_SHA256, **ACS_STATS_SHA256}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stats_stage_at_600_fields_writes_finite_variety_rows(self, tmp_path):
        # a hand-written run directory of 8 sections of 75 fields: per year,
        # the ACS holds the first count of each section's fields
        compositions = {
            1980: (75, 74, 74, 75, 74, 74, 74, 75),
            1981: (60, 50, 40, 30, 20, 10, 5, 1),
            1982: (0, 75, 40, 33, 75, 75, 70, 75),
            1983: (74, 75, 75, 75, 75, 75, 75, 75),
        }
        hierarchy = tmp_path / "hierarchy.csv"
        hierarchy.write_text(hierarchy_to_text(synth_hierarchy(600, 8)))
        cfg = RunConfig(hierarchy_path=str(hierarchy), out_dir=str(tmp_path / "run"),
                        year_min=1980, year_max=1984)
        paths = RunPaths(cfg.out_dir)
        paths.ensure()
        codes = synth_field_codes(600, 8)
        paths.fields_file().write_text("\n".join(codes) + "\n")
        for year, counts in compositions.items():
            in_acs = dict(zip("ABCDEFGH", counts))
            labels = [(code, "core" if int(code[1:]) <= in_acs[code[0]] else "outside")
                      for code in codes]
            paths.labels(year).write_text(artifacts.year_rows_to_text(year, labels))
            paths.field_counts(year).write_text(
                field_counts_to_text(year, {code: 1 + i % 7 for i, code in enumerate(codes)})
            )
            paths.network(year).write_text("")
        pipeline.stage_stats(cfg, paths)

        rows = [line.split(",") for line in paths.stats("variety.csv").read_text().splitlines()]
        cells = {(int(year), metric): value for year, metric, value in rows[1:]}
        assert sorted({year for year, _metric in cells}) == cfg.base_years == list(compositions)
        for (year, metric), value in cells.items():
            if metric == "llr":
                assert math.isfinite(float(value)), (year, value)
            elif metric.startswith("omega_"):
                assert value == "" or math.isfinite(float(value)), (year, metric, value)
        boundary = {year: cells[year, "boundary"] for year in compositions}
        assert boundary == {1980: "true", 1981: "false", 1982: "true", 1983: "true"}
        exact_1980 = 2 * math.log(math.comb(600, 5) / math.comb(375, 5))
        assert abs(float(cells[1980, "llr"]) - exact_1980) <= 1e-9
        assert abs(float(cells[1983, "llr"]) - 2 * math.log(8)) <= 1e-9
        assert [cells[1982, f"omega_{s}"] == "" for s in "ABCDEFGH"] == [
            True, True, False, False, True, True, False, True
        ]

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
        _tamper_before(monkeypatch, "stats", tamper)
        out = tmp_path / "run"
        with pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out))
        assert err.value.stage == "stats"
        assert isinstance(err.value.cause, cause)
        assert not RunPaths(out).stats("fitness.csv").exists()

    def test_truncated_pvalues_fail_the_filter_stage(self, synth_inputs, tmp_path, monkeypatch):
        # read as zero exceedances, a missing last row would make BH keep
        # every tested link of that source field
        _tamper_before(monkeypatch, "filter", _drop_last_pvalue_row)
        out = tmp_path / "run"
        with pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out))
        assert err.value.stage == "filter"
        assert isinstance(err.value.cause, ValueError)
        assert not RunPaths(out).network(1993).exists()

    def test_pvalues_of_other_year_fail_the_filter_stage(
        self, synth_inputs, tmp_path, monkeypatch
    ):
        # read as 1993's, 1992's counts would be written into C_1993.csv
        _tamper_before(monkeypatch, "filter", _pvalues_of_other_year)
        out = tmp_path / "run"
        with pytest.raises(PipelineError) as err:
            run_pipeline(run_config(synth_inputs, out))
        assert err.value.stage == "filter"
        assert isinstance(err.value.cause, ValueError)
        assert not RunPaths(out).network(1993).exists()


# Flags per stage command, and the RunConfig fields that the pipeline takes for them.
STAGE_SETTINGS = {
    "defaults": ({}, {}),
    "settings": (
        {
            "assist": ["--lag", "2"],
            "nulls": ["--lag", "2"],
            "filter": ["--lag", "2", "--q", "0.1", "--include-diagonal", "--basis", "addone"],
            "acs": ["--lag", "2"],
            "stats": ["--lag", "2"],
        },
        {"lag": 2, "fdr_q": 0.1, "include_diagonal": True,
         "significance_basis": "addone"},
    ),
}


# Run in a fresh interpreter, since pytest's own process already holds scipy.
# Prints whether scipy is loaded after each import and after each pipeline
# stage; a scipy import in any other process (a forked null worker) appends
# that stage to the log file named by argv[1].
SCIPY_PROBE = """
import json, os, sys

main_pid, log, stage = os.getpid(), sys.argv[1], "import"

def hook(event, args):
    if event == "import" and args[0].split(".")[0] == "scipy" and os.getpid() != main_pid:
        with open(log, "a") as out:
            out.write(stage + "\\n")

sys.addaudithook(hook)
loaded = {}
import technet
loaded["technet"] = "scipy" in sys.modules
import technet.cli
from technet import pipeline
loaded["technet.cli"] = "scipy" in sys.modules

def probed(name, fn):
    def run(*args, **kwargs):
        global stage
        stage = name
        fn(*args, **kwargs)
        loaded[name] = "scipy" in sys.modules
    return run

pipeline.STAGES = tuple((name, probed(name, fn)) for name, fn in pipeline.STAGES)
code = technet.cli.main(sys.argv[2:])
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestCli:
    @pytest.mark.parametrize("settings", STAGE_SETTINGS)
    def test_stagewise_chain_matches_pipeline(self, synth_inputs, tmp_path, settings):
        flags, fields = STAGE_SETTINGS[settings]
        staged = tmp_path / "staged"
        direct = tmp_path / "direct"
        events = str(synth_inputs / "events.csv")
        hierarchy = str(synth_inputs / "hierarchy.csv")
        assert main(["ingest", "--run-dir", str(staged), "--events", events,
                     "--hierarchy", hierarchy, "--year-min", "1991",
                     "--year-max", "1996"]) == 0
        assert main(["rca", "--run-dir", str(staged)]) == 0
        assert main(["assist", "--run-dir", str(staged), *flags.get("assist", [])]) == 0
        assert main(["nulls", "--run-dir", str(staged), "--replicates", "25",
                     "--seed", "6", "--workers", "2", *flags.get("nulls", [])]) == 0
        assert main(["filter", "--run-dir", str(staged), *flags.get("filter", [])]) == 0
        assert main(["acs", "--run-dir", str(staged), *flags.get("acs", [])]) == 0
        stats = ["stats", "--run-dir", str(staged), *flags.get("stats", [])]
        assert main([*stats, "--hierarchy", str(tmp_path / "missing.csv")]) == 1
        assert main([*stats, "--hierarchy", hierarchy, "--q", "0.1"]) == 1  # no such flag
        assert main([*stats, "--hierarchy", hierarchy]) == 0
        assert main(["dynamics", "--run-dir", str(staged), "--year", "1993",
                     "--t-end", "2", "--window", "1"]) == 0

        cfg = run_config(synth_inputs, direct, **fields)
        run_pipeline(cfg)
        for sub in ("pvalues", "network", "acs", "stats"):
            assert _dir_bytes(staged / sub) == _dir_bytes(direct / sub)
        # q and include_diagonal leave these small networks as they are (empty
        # under addone at K=25), so check that they reach the filter stage's config
        args = build_parser().parse_args(["filter", "--run-dir", str(staged),
                                          *flags.get("filter", [])])
        filter_cfg = _config(args)
        assert (filter_cfg.fdr_q, filter_cfg.include_diagonal) == (cfg.fdr_q, cfg.include_diagonal)
        assert (staged / "dynamics" / "trajectory_1993.csv").is_file()
        assert (staged / "dynamics" / "growth_1993.csv").is_file()

    def test_nulls_of_another_lag_than_assist_fail(self, synth_inputs, tmp_path):
        run = str(tmp_path / "r")
        assert main(["ingest", "--run-dir", run, "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--year-min", "1991", "--year-max", "1996"]) == 0
        assert main(["rca", "--run-dir", run]) == 0
        assert main(["assist", "--run-dir", run, "--lag", "1"]) == 0
        # an input inconsistency, so a validation error (AssistError)
        assert main(["nulls", "--run-dir", run, "--lag", "2", "--replicates", "5"]) == 1
        assert list((tmp_path / "r" / "pvalues").iterdir()) == []

    def test_assist_of_another_year_fails_the_nulls_stage(self, synth_inputs, tmp_path):
        run = str(tmp_path / "r")
        assert main(["ingest", "--run-dir", run, "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--year-min", "1991", "--year-max", "1996"]) == 0
        assert main(["rca", "--run-dir", run]) == 0
        assert main(["assist", "--run-dir", run]) == 0
        # a worker count below 1 is a validation error, not one worker
        assert main(["nulls", "--run-dir", run, "--replicates", "5", "--workers", "0"]) == 1
        # B_1992 under the name B_1993: a matrix of another base year
        paths = RunPaths(run)
        for path in (paths.assist, paths.assist_sidecar):
            path(1993).write_bytes(path(1992).read_bytes())
        assert main(["nulls", "--run-dir", run, "--replicates", "5"]) == 1
        assert list((tmp_path / "r" / "pvalues").iterdir()) == []

    def test_pvalues_do_not_depend_on_blas_threads(self, synth_inputs, tmp_path):
        # the nulls stage of the 50 x 10 fixture in two child processes, with
        # one and with two OpenBLAS threads
        run = tmp_path / "r"
        assert main(["ingest", "--run-dir", str(run), "--events", str(synth_inputs / "events.csv"),
                     "--hierarchy", str(synth_inputs / "hierarchy.csv"),
                     "--year-min", "1991", "--year-max", "1996"]) == 0
        assert main(["rca", "--run-dir", str(run)]) == 0
        assert main(["assist", "--run-dir", str(run)]) == 0
        src = str(Path(pipeline.__file__).resolve().parents[1])
        pvalues = []
        for threads in ("1", "2"):
            copy = tmp_path / f"blas{threads}"
            shutil.copytree(run, copy)
            env = {k: v for k, v in os.environ.items() if k != "TECHNET_WORKERS"}
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run(
                [sys.executable, "-m", "technet.cli", "nulls", "--run-dir", str(copy),
                 "--replicates", "25", "--seed", "6", "--workers", "2"],
                env=env, check=True, timeout=120,
            )
            pvalues.append(_dir_bytes(copy / "pvalues"))
        assert len(pvalues[0]) == 5 and pvalues[0] == pvalues[1]

    def test_scipy_is_loaded_only_by_the_acs_and_stats_stages(self, synth_inputs, tmp_path):
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "TECHNET_WORKERS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        log, out = tmp_path / "worker_imports.log", tmp_path / "run"
        child = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, str(log),
             "pipeline", "--run-dir", str(out), "--events", str(synth_inputs / "events.csv"),
             "--hierarchy", str(synth_inputs / "hierarchy.csv"), "--year-min", "1991",
             "--year-max", "1996", "--replicates", "25", "--workers", "2"],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        report = json.loads(child.stdout.splitlines()[-1])
        assert report["exit"] == 0
        assert report["loaded"] == {
            "technet": False, "technet.cli": False, "ingest": False, "rca": False,
            "assist": False, "nulls": False, "filter": False, "acs": True, "stats": True,
        }
        assert not log.exists()  # no null worker imported scipy
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"

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

    @pytest.mark.parametrize("broken", ["events_header", "hierarchy_parent"])
    def test_malformed_input_exits_1_from_pipeline_and_ingest(
        self, synth_inputs, tmp_path, broken
    ):
        events, hierarchy = tmp_path / "events.csv", tmp_path / "hierarchy.csv"
        events.write_text((synth_inputs / "events.csv").read_text())
        hierarchy.write_text((synth_inputs / "hierarchy.csv").read_text())
        if broken == "events_header":
            header, rest = events.read_text().split("\n", 1)
            events.write_text(header.replace("code", "kode") + "\n" + rest)
        else:
            hierarchy.write_text(hierarchy.read_text() + "Z01,Z\n")
        inputs = ["--events", str(events), "--hierarchy", str(hierarchy),
                  "--year-min", "1991", "--year-max", "1996"]
        out = tmp_path / "pipeline"
        assert main(["pipeline", "--run-dir", str(out), *inputs]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["failed"]["stage"] == "ingest"
        assert main(["ingest", "--run-dir", str(tmp_path / "ingest"), *inputs]) == 1

    @pytest.mark.parametrize(
        "stage, artifact",
        [
            ("rca", "occurrence/W_1993.csv"),
            ("assist", "presence/M_1993.csv"),
            ("nulls", "presence/M_1993.csv"),
            ("nulls", "assist/B_1993.csv"),
            ("filter", "pvalues/P_1993.csv"),
            ("acs", "network/C_1993.csv"),
            ("stats", "network/C_1993.csv"),
            ("stats", "acs/labels_1993.csv"),
            ("stats", "occurrence/F_1993.csv"),
        ],
    )
    def test_one_bad_cell_in_a_stage_input_exits_1(
        self, synth_inputs, complete_run, tmp_path, stage, artifact
    ):
        # the last cell of the last row becomes "x": an unknown region or field,
        # a value that is not a number, or an unknown label. The events header
        # of the ingest stage is covered above.
        run = tmp_path / "run"
        shutil.copytree(complete_run, run)
        lines = (run / artifact).read_text().splitlines()
        assert lines
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",x"
        (run / artifact).write_text("\n".join(lines) + "\n")
        flags = {
            "nulls": ["--replicates", "5"],
            "stats": ["--hierarchy", str(synth_inputs / "hierarchy.csv")],
        }
        assert main([stage, "--run-dir", str(run), *flags.get(stage, [])]) == 1

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


# Each subcommand's sorted (option strings, required, choices, type, action,
# const, default), recorded before the option table replaced the hand-written
# parsers; only `stats --q` and `dynamics --q`, whose value nothing read, are gone.
# Since then `--dump-null-summaries` left `nulls` and `pipeline` with the null
# summary files it wrote, and `--workers` defaults to 1, not None, as no
# environment variable stands in for it any more.
PARENT_CLI_SURFACE = {
    "synth": [
        (("--families-per-presence",), False, None, "int", "_StoreAction", None, 3),
        (("--fields",), False, None, "int", "_StoreAction", None, 30),
        (("--out",), True, None, None, "_StoreAction", None, None),
        (("--p-base",), False, None, "float", "_StoreAction", None, 0.02),
        (("--plant",), False, None, None, "_AppendAction", None, None),
        (("--plant-cycle",), False, None, "float", "_StoreAction", None, None),
        (("--regions",), False, None, "int", "_StoreAction", None, 200),
        (("--sections",), False, None, "int", "_StoreAction", None, 3),
        (("--seed",), False, None, "int", "_StoreAction", None, 0),
        (("--year-max",), False, None, "int", "_StoreAction", None, 2004),
        (("--year-min",), False, None, "int", "_StoreAction", None, 1980),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "ingest": [
        (("--delimiter",), False, None, None, "_StoreAction", None, None),
        (("--events",), True, None, None, "_StoreAction", None, None),
        (("--granularity",), False, ("class", "subclass"), None, "_StoreAction", None, None),
        (("--hierarchy",), True, None, None, "_StoreAction", None, None),
        (("--regions",), False, None, None, "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("--year-max",), False, None, "int", "_StoreAction", None, None),
        (("--year-min",), False, None, "int", "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "rca": [
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "assist": [
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "nulls": [
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--replicates",), False, None, "int", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("--seed",), False, None, "int", "_StoreAction", None, None),
        (("--workers",), False, None, "int", "_StoreAction", None, 1),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "filter": [
        (("--basis",), False, ("percentile", "addone"), None, "_StoreAction", None, None),
        (("--include-diagonal",), False, None, None, "_StoreConstAction", True, None),
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--q",), False, None, "float", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "acs": [
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "stats": [
        (("--hierarchy",), True, None, None, "_StoreAction", None, None),
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--q",), False, None, "float", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "dynamics": [
        (("--dt",), False, None, "float", "_StoreAction", None, 0.01),
        (("--q",), False, None, "float", "_StoreAction", None, None),
        (("--run-dir",), True, None, None, "_StoreAction", None, None),
        (("--t-end",), False, None, "float", "_StoreAction", None, 10.0),
        (("--window",), False, None, "float", "_StoreAction", None, None),
        (("--year",), True, None, "int", "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
    "pipeline": [
        (("--basis",), False, ("percentile", "addone"), None, "_StoreAction", None, None),
        (("--config",), False, None, None, "_StoreAction", None, None),
        (("--delimiter",), False, None, None, "_StoreAction", None, None),
        (("--events",), False, None, None, "_StoreAction", None, None),
        (("--granularity",), False, ("class", "subclass"), None, "_StoreAction", None, None),
        (("--hierarchy",), False, None, None, "_StoreAction", None, None),
        (("--include-diagonal",), False, None, None, "_StoreConstAction", True, None),
        (("--lag",), False, None, "int", "_StoreAction", None, None),
        (("--q",), False, None, "float", "_StoreAction", None, None),
        (("--regions",), False, None, None, "_StoreAction", None, None),
        (("--replicates",), False, None, "int", "_StoreAction", None, None),
        (("--run-dir",), False, None, None, "_StoreAction", None, None),
        (("--seed",), False, None, "int", "_StoreAction", None, None),
        (("--workers",), False, None, "int", "_StoreAction", None, 1),
        (("--year-max",), False, None, "int", "_StoreAction", None, None),
        (("--year-min",), False, None, "int", "_StoreAction", None, None),
        (("-h", "--help"), False, None, None, "_HelpAction", None, "==SUPPRESS=="),
    ],
}
REMOVED_OPTIONS = {("stats", ("--q",)), ("dynamics", ("--q",))}


def _cli_surface():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            (
                tuple(a.option_strings), a.required, tuple(a.choices) if a.choices else None,
                getattr(a.type, "__name__", None), type(a).__name__, a.const, a.default,
            )
            for a in parser._actions
        )
        for name, parser in sub.choices.items()
    }


def test_cli_surface_is_the_parents_without_the_dead_q_flags():
    expected = {
        name: [row for row in rows if (name, row[0]) not in REMOVED_OPTIONS]
        for name, rows in PARENT_CLI_SURFACE.items()
    }
    assert _cli_surface() == expected


def test_every_flag_in_the_readme_is_accepted_by_a_subcommand():
    # a flag removed from the CLI cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    accepted = {flag for rows in _cli_surface().values() for row in rows for flag in row[0]}
    assert "--workers" in named and named <= accepted, sorted(named - accepted)
