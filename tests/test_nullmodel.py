import hashlib

import numpy as np
import pytest

from technet.assist import assist_matrix
from technet.nullmodel import (
    BicmParameters,
    empirical_pvalues,
    exceedance_counts,
    fit_bicm,
    null_assist_ensemble,
    null_assist_replicate,
    pvalues_from_counts,
    pvalues_from_text,
    pvalues_to_text,
    sample_null_matrix,
)
from technet.rca import PresenceMatrix


def make_m(presence, year=1998):
    presence = np.asarray(presence, dtype=np.uint8)
    regions = tuple(f"r{i}" for i in range(presence.shape[0]))
    fields = tuple(f"f{i}" for i in range(presence.shape[1]))
    return PresenceMatrix(year=year, regions=regions, fields=fields, presence=presence)


class TestFitBicm:
    def test_all_zero_matrix_gives_zero_probabilities(self):
        params = fit_bicm(make_m(np.zeros((3, 4))))
        assert np.all(params.link_probability == 0.0)

    def test_two_by_two_identity_solves_to_half(self):
        # degrees all 1; the symmetric fixed point is x = y = 1, p = 1/2
        params = fit_bicm(make_m(np.eye(2)))
        assert np.allclose(params.link_probability, 0.5, atol=1e-7)
        assert np.allclose(params.link_probability.sum(axis=1), 1.0, atol=1e-7)

    def test_saturated_row_forced_to_one(self):
        params = fit_bicm(make_m([[1, 1], [1, 0]]))
        assert np.all(params.link_probability[0] == 1.0)

    def test_degree_matching_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            shape = (int(rng.integers(3, 25)), int(rng.integers(3, 15)))
            pres = (rng.random(shape) < rng.uniform(0.1, 0.6)).astype(np.uint8)
            m = make_m(pres)
            params = fit_bicm(m, tol=1e-9)
            p = params.link_probability
            assert np.abs(p.sum(axis=1) - pres.sum(axis=1)).max() < 1e-8
            assert np.abs(p.sum(axis=0) - pres.sum(axis=0)).max() < 1e-8
            assert p.min() >= 0.0 and p.max() <= 1.0

    def test_max_iter_validation(self):
        with pytest.raises(ValueError):
            fit_bicm(make_m(np.eye(2)), max_iter=0)


class TestSampling:
    def test_extreme_probabilities(self):
        rng = np.random.default_rng(0)
        zero = BicmParameters(
            year=1998, regions=("r0",), fields=("f0", "f1"),
            x=np.zeros(1), y=np.zeros(2),
            link_probability=np.zeros((1, 2)), residual=0.0,
        )
        assert sample_null_matrix(zero, rng).presence.sum() == 0
        full = BicmParameters(
            year=1998, regions=("r0",), fields=("f0", "f1"),
            x=np.ones(1), y=np.ones(2),
            link_probability=np.ones((1, 2)), residual=0.0,
        )
        assert sample_null_matrix(full, rng).presence.sum() == 2

    def test_cell_frequency_matches_probability(self):
        pres = (np.random.default_rng(5).random((6, 5)) < 0.4).astype(np.uint8)
        params = fit_bicm(make_m(pres))
        rng = np.random.default_rng(17)
        total = np.zeros((6, 5))
        n = 10_000
        for _ in range(n):
            total += sample_null_matrix(params, rng).presence
        p = params.link_probability
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(total / n - p) <= 3 * se + 1e-12)


class TestEnsemble:
    def test_same_seed_reproduces_replicate(self):
        pres = (np.random.default_rng(2).random((5, 4)) < 0.5).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres[::-1], year=1999))
        a = null_assist_replicate(params_t, params_lag, master_seed=9, replicate=3)
        b = null_assist_replicate(params_t, params_lag, master_seed=9, replicate=3)
        assert np.array_equal(a.values, b.values)

    def test_replicates_differ(self):
        pres = (np.random.default_rng(2).random((6, 5)) < 0.5).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres[::-1], year=1999))
        a = null_assist_replicate(params_t, params_lag, master_seed=9, replicate=0)
        b = null_assist_replicate(params_t, params_lag, master_seed=9, replicate=1)
        assert not np.array_equal(a.values, b.values)

    def test_ensemble_size_and_validation(self):
        pres = (np.random.default_rng(2).random((4, 3)) < 0.5).astype(np.uint8)
        params = fit_bicm(make_m(pres))
        assert len(list(null_assist_ensemble(params, params, 5, 0))) == 5
        with pytest.raises(ValueError):
            list(null_assist_ensemble(params, params, 0, 0))

    def test_ensemble_mean_matches_exhaustive_enumeration_uniform_p(self):
        # 4x4 toy at uniform p: expectation over all weighted configurations.
        # The row factor enumerates all 2^16 base-year matrices; the later-year
        # factor enumerates the 2^4 patterns of one row (rows are independent
        # and 1/d_r couples cells only within a row).
        R = F = 4
        p = 0.5
        configs = np.arange(2 ** (R * F), dtype=np.uint32)
        bits = (configs[:, None] >> np.arange(R * F)) & 1
        mats = bits.reshape(-1, R, F)
        weights = p ** bits.sum(axis=1) * (1 - p) ** (R * F - bits.sum(axis=1))
        u_positive = (mats.sum(axis=1) > 0).astype(float)  # per config, per field
        row_factor = (weights[:, None] * u_positive).sum(axis=0)

        row_patterns = (np.arange(2 ** F)[:, None] >> np.arange(F)) & 1
        row_weights = p ** row_patterns.sum(axis=1) * (1 - p) ** (F - row_patterns.sum(axis=1))
        degrees = row_patterns.sum(axis=1)
        with np.errstate(divide="ignore"):
            inv_d = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
        cell_factor = float((row_weights * row_patterns[:, 0] * inv_d).sum())
        expected = row_factor[:, None] * cell_factor * np.ones((F, F))

        params = BicmParameters(
            year=1998, regions=tuple(f"r{i}" for i in range(R)),
            fields=tuple(f"f{i}" for i in range(F)),
            x=np.ones(R), y=np.ones(F),
            link_probability=np.full((R, F), p), residual=0.0,
        )
        k = 3000
        total = np.zeros((F, F))
        for b in null_assist_ensemble(params, params, k, master_seed=21):
            total += b.values
        mean = total / k
        # B entries live in [0, 1]; 4 sigma of a bounded mean is ~4*0.5/sqrt(k)
        assert np.abs(mean - expected).max() < 4 * 0.5 / np.sqrt(k)


class TestEmpiricalPvalues:
    def _pair(self, emp_values):
        fields = tuple(f"f{i}" for i in range(emp_values.shape[0]))
        from technet.assist import AssistMatrix

        return AssistMatrix(
            base_year=1998, lag=1, regions=("r0",), fields=fields,
            values=emp_values,
            diversification=np.array([1]),
            ubiquity=np.ones(len(fields), dtype=np.int64),
        )

    def _null(self, values):
        return self._pair(values)

    def test_extreme_rank_gets_floor(self):
        emp = self._pair(np.array([[0.9]]))
        nulls = [self._null(np.array([[v]])) for v in (0.1, 0.2, 0.3)]
        pv = empirical_pvalues(emp, nulls)
        assert pv.pvalues[0, 0] == 1 / 4

    def test_all_zero_ties_give_one(self):
        emp = self._pair(np.array([[0.0]]))
        nulls = [self._null(np.array([[0.0]]))] * 5
        pv = empirical_pvalues(emp, nulls)
        assert pv.pvalues[0, 0] == 1.0

    def test_hand_counted_example(self):
        # K=4, null {0.1, 0.2, 0.3, 0.4}, empirical 0.25 -> (1+2)/5
        emp = self._pair(np.array([[0.25]]))
        nulls = [self._null(np.array([[v]])) for v in (0.1, 0.2, 0.3, 0.4)]
        pv = empirical_pvalues(emp, nulls)
        assert pv.pvalues[0, 0] == 0.6

    def test_pvalues_are_addone_multiples(self):
        rng = np.random.default_rng(3)
        emp = self._pair(rng.random((3, 3)))
        nulls = [self._null(rng.random((3, 3))) for _ in range(7)]
        pv = empirical_pvalues(emp, nulls)
        k = pv.n_replicates
        assert k == 7
        scaled = pv.pvalues * (k + 1)
        assert np.allclose(scaled, np.round(scaled))
        assert pv.pvalues.min() >= 1 / (k + 1)
        assert pv.pvalues.max() <= 1.0

    def test_empty_ensemble_is_error(self):
        with pytest.raises(ValueError):
            empirical_pvalues(self._pair(np.zeros((2, 2))), [])

    def test_chunked_counts_equal_streamed(self):
        pres = (np.random.default_rng(4).random((8, 6)) < 0.4).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres[::-1], year=1999))
        b_emp = assist_matrix(make_m(pres, year=1998), make_m(pres[::-1], year=1999))
        full = exceedance_counts(b_emp, params_t, params_lag, range(40), 77)
        chunked = sum(
            exceedance_counts(b_emp, params_t, params_lag, chunk, 77)
            for chunk in ([0, 1, 2], range(3, 17), range(17, 40))
        )
        assert np.array_equal(full, chunked)

    def test_null_calibration_is_conservative(self):
        # p-values of null-drawn "empirical" matrices dominate the uniform law
        pres = (np.random.default_rng(8).random((12, 6)) < 0.35).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres, year=1999))
        collected = []
        for rep in range(30):
            emp = null_assist_replicate(params_t, params_lag, master_seed=123_000, replicate=rep)
            nulls = null_assist_ensemble(params_t, params_lag, 99, master_seed=rep + 1)
            pv = empirical_pvalues(emp, nulls)
            collected.extend(pv.pvalues[pv.source_active].ravel().tolist())
        collected = np.array(collected)
        for x in (0.05, 0.1, 0.25, 0.5):
            assert (collected <= x).mean() <= x + 0.05

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(4)
        emp = self._pair(rng.random((3, 3)))
        nulls = [self._null(rng.random((3, 3))) for _ in range(9)]
        pv = empirical_pvalues(emp, nulls)
        again = pvalues_from_text(pvalues_to_text(pv))
        assert np.array_equal(again.exceed_counts, pv.exceed_counts)
        assert np.array_equal(again.pvalues, pv.pvalues)
        assert np.array_equal(again.source_active, pv.source_active)
        assert again.n_replicates == pv.n_replicates


class TestPinnedNullBytes:
    # sha256 of the P_<year>.csv text for this fixed pair, recorded before the
    # null loop dropped its per-replicate copies; any change to sampling, the
    # assist GEMM or the reduction that moves a single count changes it.
    GOLDEN_SHA256 = "bf039497d3dcb25fb228164ba6d915bbdd2b1f5f7d5f884e692724b41b587883"

    def _pair(self):
        rng = np.random.default_rng(2024)
        regions = tuple(f"r{i:02d}" for i in range(40))
        fields = tuple(f"f{i:02d}" for i in range(12))
        m_t = PresenceMatrix(1998, regions, fields, (rng.random((40, 12)) < 0.3).astype(np.uint8))
        m_lag = PresenceMatrix(1999, regions, fields, (rng.random((40, 12)) < 0.3).astype(np.uint8))
        return assist_matrix(m_t, m_lag), fit_bicm(m_t), fit_bicm(m_lag)

    def test_chunked_counts_match_golden_hash(self):
        b_emp, params_t, params_lag = self._pair()
        counts = sum(
            exceedance_counts(b_emp, params_t, params_lag, chunk, 11)
            for chunk in (range(0, 10), range(10, 37))
        )
        text = pvalues_to_text(pvalues_from_counts(b_emp, counts, 37))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_SHA256

    def test_streamed_ensemble_matches_golden_hash(self):
        b_emp, params_t, params_lag = self._pair()
        pv = empirical_pvalues(b_emp, null_assist_ensemble(params_t, params_lag, 37, 11))
        text = pvalues_to_text(pv)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_SHA256

    def test_summaries_come_from_the_counted_replicates(self):
        b_emp, params_t, params_lag = self._pair()
        summaries: list = []
        exceedance_counts(b_emp, params_t, params_lag, range(5, 9), 11, summaries)
        expected = [
            (float(b.values.mean()), float(b.values.max()))
            for b in (null_assist_replicate(params_t, params_lag, 11, k) for k in range(5, 9))
        ]
        assert summaries == expected
