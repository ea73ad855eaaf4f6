import hashlib
import pickle

import numpy as np
import pytest

from oracles import (
    bernoulli_draw_by_loop,
    bicm_fit_full_matrix,
    pvalue_text_by_loop,
    stream_bytes,
)
from technet.assist import AssistMatrix, assist_matrix
from technet.nullmodel import (
    BicmFitError,
    BicmParameters,
    count_dtype,
    exceedance_counts,
    exceedance_test,
    exceedance_threshold,
    fit_bicm,
    null_assist_replicate,
    pvalues_from_counts,
    pvalues_from_text,
    pvalues_to_text,
    replicate_rng,
    sample_null_matrix,
)
from technet.rca import PresenceMatrix


def dense_p(params):
    """The fit's region x field cell-probability matrix, dense."""
    return params.rows[params.row_of]


def make_m(presence, year=1998):
    presence = np.asarray(presence, dtype=np.uint8)
    regions = tuple(f"r{i}" for i in range(presence.shape[0]))
    fields = tuple(f"f{i}" for i in range(presence.shape[1]))
    return PresenceMatrix(year=year, regions=regions, fields=fields, presence=presence)


class TestFitBicm:
    def test_all_zero_matrix_gives_zero_probabilities(self):
        params = fit_bicm(make_m(np.zeros((3, 4))))
        assert np.all(dense_p(params) == 0.0)

    def test_two_by_two_identity_solves_to_half(self):
        # degrees all 1; the symmetric fixed point is x = y = 1, p = 1/2
        params = fit_bicm(make_m(np.eye(2)))
        assert np.allclose(dense_p(params), 0.5, atol=1e-7)
        assert np.allclose(dense_p(params).sum(axis=1), 1.0, atol=1e-7)

    def test_saturated_row_forced_to_one(self):
        params = fit_bicm(make_m([[1, 1], [1, 0]]))
        assert np.all(dense_p(params)[0] == 1.0)

    def test_degree_matching_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            shape = (int(rng.integers(3, 25)), int(rng.integers(3, 15)))
            pres = (rng.random(shape) < rng.uniform(0.1, 0.6)).astype(np.uint8)
            m = make_m(pres)
            params = fit_bicm(m, tol=1e-9)
            p = dense_p(params)
            assert np.abs(p.sum(axis=1) - pres.sum(axis=1)).max() < 1e-8
            assert np.abs(p.sum(axis=0) - pres.sum(axis=0)).max() < 1e-8
            assert p.min() >= 0.0 and p.max() <= 1.0

    def test_max_iter_validation(self):
        with pytest.raises(ValueError):
            fit_bicm(make_m(np.eye(2)), max_iter=0)

    @staticmethod
    def _assert_matches_oracle(pres, tol=1e-9):
        params = fit_bicm(make_m(pres), tol=tol)
        p = bicm_fit_full_matrix(pres, tol=tol)
        assert np.abs(dense_p(params) - p).max() <= 1e-12

    def test_degree_classes_match_full_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = (int(rng.integers(2, 60)), int(rng.integers(2, 20)))
            pres = (rng.random(shape) < rng.uniform(0.05, 0.7)).astype(np.uint8)
            self._assert_matches_oracle(pres)

    def test_forced_rows_and_columns_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pres = (rng.random((int(rng.integers(4, 30)), int(rng.integers(4, 12)))) < 0.4)
            pres = pres.astype(np.uint8)
            pres[rng.integers(0, pres.shape[0], 2)] = 1  # saturated rows
            pres[rng.integers(0, pres.shape[0])] = 0  # an empty row
            pres[:, rng.integers(0, pres.shape[1])] = 1  # a saturated column
            pres[:, rng.integers(0, pres.shape[1])] = 0  # an empty column
            self._assert_matches_oracle(pres)

    def test_all_zero_and_saturated_match_oracle(self):
        for pres in (np.zeros((5, 4)), np.ones((5, 4)), np.ones((1, 6)), np.zeros((6, 1))):
            self._assert_matches_oracle(pres.astype(np.uint8))
        # peeling cascades: the saturated row forces column 0, then row 1 is empty
        self._assert_matches_oracle(np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0]], dtype=np.uint8))

    def test_fit_keeps_distinct_rows_and_no_dense_float_matrix(self, monkeypatch):
        # 1000 x 120 at class-scale density, with forced rows and columns; the
        # dense matrix the fit builds is caught on its way into the parameters
        rng = np.random.default_rng(60)
        pres = (rng.random((1000, 120)) < 0.04).astype(np.uint8)
        pres[[3, 500]] = 1  # saturated rows
        pres[[7, 8]] = 0  # empty rows
        pres[:, 11] = 1  # a saturated column, once the saturated rows are peeled
        pres[:, 90] = 0  # an empty column
        dense = []
        compress = BicmParameters.from_link_probability.__func__

        def caught(cls, year, regions, fields, p, residual):
            dense.append(p.copy())
            return compress(cls, year, regions, fields, p, residual)

        monkeypatch.setattr(BicmParameters, "from_link_probability", classmethod(caught))
        params = fit_bicm(make_m(pres))
        [p] = dense
        assert p.shape == (1000, 120) and (p == 1.0).any() and (p == 0.0).any()
        assert dense_p(params).tobytes() == p.tobytes()
        assert len(params.rows) == len(np.unique(p, axis=0)) < 50
        assert params.byte_floor.dtype == np.uint8
        held = [v for v in vars(params).values() if isinstance(v, np.ndarray)]
        assert not [v for v in held if v.dtype == np.float64 and v.size >= p.size]

    def test_non_convergence_raises(self):
        pres = (np.random.default_rng(13).random((30, 10)) < 0.3).astype(np.uint8)
        with pytest.raises(BicmFitError) as err:
            fit_bicm(make_m(pres), max_iter=2)
        assert err.value.iterations == 2 and err.value.residual > 1e-8

    def test_fit_error_survives_pickling(self):
        # a null-pool worker's error reaches the calling process pickled
        error = BicmFitError("BiCM fit did not converge", 0.25, 7)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is BicmFitError
        assert str(copy) == str(error)
        assert str(copy) == "BiCM fit did not converge (residual 2.500e-01 after 7 iterations)"
        assert (copy.residual, copy.iterations) == (0.25, 7)


def make_params(p):
    """Year-1998 parameters that draw from the link probabilities p as given."""
    p = np.asarray(p, dtype=np.float64)
    regions = tuple(f"r{i}" for i in range(p.shape[0]))
    fields = tuple(f"f{i}" for i in range(p.shape[1]))
    return BicmParameters.from_link_probability(1998, regions, fields, p, 0.0)


def dense(draw):
    """The 0/1 presence matrix of a drawn hit list."""
    presence = np.zeros((draw.d.size, draw.u.size), dtype=np.uint8)
    presence[draw.regions, draw.fields] = 1
    return presence


def by_year(*fits):
    """The fit map of the given parameter sets, each under its own year."""
    return {fit.year: fit for fit in fits}


class TestSampling:
    def test_extreme_probabilities(self):
        # p = 0 and p = 1 have the boundary bytes 0 and 255, hit once in 256
        # cells; the fractions 0 and 1 decide those without a branch
        p = np.zeros((64, 64))
        p[:, ::2] = 1.0
        params = make_params(p)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert np.array_equal(dense(sample_null_matrix(params, rng)), p)

    def test_dyadic_probability_is_decided_by_the_byte(self):
        # p = j / 256 has byte threshold j and fraction 0: present iff c < j
        j = np.arange(257)
        p = np.tile(j / 256, (40, 1))
        params = make_params(p)
        assert np.array_equal(params.byte_floor, np.minimum(np.tile(j, (40, 1)), 255))
        for seed in range(5):
            drawn = dense(sample_null_matrix(params, np.random.default_rng(seed)))
            byte = np.frombuffer(stream_bytes(np.random.default_rng(seed), p.size), np.uint8)
            byte = byte.reshape(p.shape)
            assert np.array_equal(drawn, byte < np.tile(j, (40, 1)))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_one_ulp_from_a_dyadic_probability(self, side):
        # one ulp below j / 256 the threshold is j - 1 and the boundary fraction
        # is 1 - 256 ulp; one ulp above it is j with fraction 256 ulp. Either
        # way the cell is present iff c < j, but for a 2^-44 chance per
        # boundary cell.
        j = np.arange(1, 257) if side < 0 else np.arange(0, 256)
        p = np.tile(np.nextafter(j / 256, side), (40, 1))
        params = make_params(p)
        floor = j - 1 if side < 0 else j
        assert np.array_equal(params.byte_floor, np.tile(floor, (40, 1)))
        for seed in range(5):
            drawn = dense(sample_null_matrix(params, np.random.default_rng(seed)))
            byte = np.frombuffer(stream_bytes(np.random.default_rng(seed), p.size), np.uint8)
            byte = byte.reshape(p.shape)
            assert np.array_equal(drawn, byte < np.tile(j, (40, 1)))

    def test_cell_frequencies_within_z_bound(self):
        # one column per p, 40,000 cells each; below 1/256 (1/512, 3/1024) a
        # cell is present only on its boundary byte, by the double's draw
        ps = np.array([1 / 512, 3 / 1024, 1 / 256 + 1 / 1024, 0.04, 0.1, 1 / 3, 0.5, 0.9,
                       255.5 / 256, 1 - 1 / 1024])
        params = make_params(np.tile(ps, (1000, 1)))
        rng = np.random.default_rng(23)
        n = 40 * 1000
        hits = sum(dense(sample_null_matrix(params, rng)).sum(axis=0) for _ in range(40))
        z = (hits / n - ps) / np.sqrt(ps * (1 - ps) / n)
        assert np.abs(z).max() < 4.0

    def test_draw_matches_the_cell_loop_and_its_pinned_hash(self):
        # the stream of (seed 5, year 1998, k 3) read by the loop oracle; the
        # hash pins the draw, so any change to how the stream is read shows
        p = np.linspace(0.0, 1.0, 40 * 12).reshape(40, 12)
        drawn = dense(sample_null_matrix(make_params(p), replicate_rng(5, 1998, 3)))
        assert np.array_equal(drawn, bernoulli_draw_by_loop(p, replicate_rng(5, 1998, 3)))
        digest = hashlib.sha256(drawn.tobytes()).hexdigest()
        assert digest == "d8fa7329141500a4c62ad7962e57b17ba07ed65e7a5e82ea0ec23708b993b594"

    def test_cell_frequency_matches_probability(self):
        pres = (np.random.default_rng(5).random((6, 5)) < 0.4).astype(np.uint8)
        params = fit_bicm(make_m(pres))
        rng = np.random.default_rng(17)
        total = np.zeros((6, 5))
        n = 10_000
        for _ in range(n):
            total += dense(sample_null_matrix(params, rng))
        p = dense_p(params)
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
        params_lag = fit_bicm(make_m(pres, year=1999))
        b_emp = assist_matrix(make_m(pres), make_m(pres, year=1999))
        test = exceedance_test(b_emp)
        (counts,) = exceedance_counts(by_year(params, params_lag), [test], range(5), 0)
        assert pvalues_from_counts(test, counts, 5).n_replicates == 5
        assert counts.min() >= 0 and counts.max() <= 5
        (no_counts,) = exceedance_counts(by_year(params, params_lag), [test], [], 0)
        with pytest.raises(ValueError):
            pvalues_from_counts(test, no_counts, 0)
        # draws are keyed by (year, k): a pair over one year would reuse one draw
        with pytest.raises(ValueError):
            null_assist_replicate(params, params, 0, 0)
        with pytest.raises(ValueError):
            lag_0 = assist_matrix(make_m(pres), make_m(pres))
            exceedance_counts(by_year(params), [exceedance_test(lag_0)], range(5), 0)

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

        params, params_lag = (
            BicmParameters.from_link_probability(
                year=year, regions=tuple(f"r{i}" for i in range(R)),
                fields=tuple(f"f{i}" for i in range(F)), p=np.full((R, F), p), residual=0.0,
            )
            for year in (1998, 1999)
        )
        k = 3000
        total = np.zeros((F, F))
        for rep in range(k):
            total += null_assist_replicate(params, params_lag, master_seed=21, replicate=rep).values
        mean = total / k
        # B entries live in [0, 1]; 4 sigma of a bounded mean is ~4*0.5/sqrt(k)
        assert np.abs(mean - expected).max() < 4 * 0.5 / np.sqrt(k)


class TestEmpiricalPvalues:
    # A 5 x 3 pair whose empirical values are set by each test; the null values
    # are draws of its fitted BiCMs and lie in [0, 1].
    _PRES = np.array(
        [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8
    )

    def _pair(self, emp_values, base=_PRES):
        params_t = fit_bicm(make_m(base, year=1998))
        params_lag = fit_bicm(make_m(self._PRES[::-1], year=1999))
        b_emp = AssistMatrix(
            base_year=1998, lag=1, regions=params_t.regions, fields=params_t.fields,
            values=np.broadcast_to(np.asarray(emp_values, dtype=np.float64), (3, 3)).copy(),
            diversification=np.ones(5, dtype=np.int64),
            ubiquity=np.ones(3, dtype=np.int64),
        )
        return b_emp, params_t, params_lag

    def _pvalues(self, pair, n_replicates, seed=5):
        test = exceedance_test(pair[0])
        (counts,) = exceedance_counts(by_year(*pair[1:]), [test], range(n_replicates), seed)
        return pvalues_from_counts(test, counts, n_replicates)

    def _null_values(self, pair, n_replicates, seed=5):
        return [null_assist_replicate(*pair[1:], seed, k).values for k in range(n_replicates)]

    def test_extreme_rank_gets_floor(self):
        pv = self._pvalues(self._pair(2.0), 3)  # above every null value
        assert pv.pvalues[0, 0] == 1 / 4

    def test_all_zero_ties_give_one(self):
        # f0 is absent from the base year, so its fitted ubiquity is 0 and its
        # null row is exactly 0 in every draw: each null value ties the
        # empirical 0 there and must count as an exceedance
        base = self._PRES.copy()
        base[:, 0] = 0
        pair = self._pair(0.0, base)
        assert (np.array(self._null_values(pair, 5))[:, 0, :] == 0.0).all()
        pv = self._pvalues(pair, 5)
        assert (pv.pvalues[0] == 1.0).all()

    def test_hand_counted_example(self):
        # K=4 distinct null values at one cell, empirical between the 2nd and
        # 3rd smallest -> 2 exceedances -> (1+2)/5
        pair = self._pair(0.0)
        nulls = np.array(self._null_values(pair, 4))
        cell = next(
            (i, j) for i in range(3) for j in range(3) if len(set(nulls[:, i, j])) == 4
        )
        low, high = np.sort(nulls[(slice(None), *cell)])[1:3]
        pair[0].values[cell] = (low + high) / 2
        pv = self._pvalues(pair, 4)
        assert pv.pvalues[cell] == 0.6

    def test_pvalues_are_addone_multiples(self):
        rng = np.random.default_rng(3)
        pv = self._pvalues(self._pair(rng.random((3, 3)) * 0.5), 7)
        k = pv.n_replicates
        assert k == 7
        scaled = pv.pvalues * (k + 1)
        assert np.allclose(scaled, np.round(scaled))
        assert pv.pvalues.min() >= 1 / (k + 1)
        assert pv.pvalues.max() <= 1.0

    def test_empty_ensemble_is_error(self):
        pair = self._pair(0.0)
        test = exceedance_test(pair[0])
        (counts,) = exceedance_counts(by_year(*pair[1:]), [test], [], 5)
        with pytest.raises(ValueError):
            pvalues_from_counts(test, counts, 0)

    def test_chunked_counts_equal_streamed(self):
        pres = (np.random.default_rng(4).random((8, 6)) < 0.4).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres[::-1], year=1999))
        b_emp = assist_matrix(make_m(pres, year=1998), make_m(pres[::-1], year=1999))
        fits, tests = by_year(params_t, params_lag), [exceedance_test(b_emp)]
        (full,) = exceedance_counts(fits, tests, range(40), 77)
        chunked = sum(
            exceedance_counts(fits, tests, chunk, 77)[0]
            for chunk in ([0, 1, 2], range(3, 17), range(17, 40))
        )
        assert np.array_equal(full, chunked)

    @pytest.mark.parametrize("lag", [1, 2])
    def test_walk_over_pairs_equals_per_pair_reference(self, lag):
        rng = np.random.default_rng(30 + lag)
        years = range(1990, 1995 + lag)
        ms = {y: make_m((rng.random((20, 7)) < 0.35).astype(np.uint8), year=y) for y in years}
        fits = {y: fit_bicm(m) for y, m in ms.items()}
        pairs = [
            (assist_matrix(ms[y], ms[y + lag]), fits[y], fits[y + lag]) for y in range(1990, 1995)
        ]
        tests = [exceedance_test(pair[0]) for pair in pairs]
        walked = exceedance_counts(fits, tests, range(30), 8)
        chunks = (range(11), range(11, 30))
        chunked = [
            sum(parts) for parts in zip(*(exceedance_counts(fits, tests, c, 8) for c in chunks))
        ]
        for pair, counts, part_sum in zip(pairs, walked, chunked):
            nulls = [null_assist_replicate(*pair[1:], 8, k).values for k in range(30)]
            threshold = exceedance_threshold(pair[0])
            expected = sum((v >= threshold).astype(np.int64) for v in nulls)
            assert np.array_equal(counts, expected)
            assert np.array_equal(counts, part_sum)
            alone = exceedance_counts(fits, [exceedance_test(pair[0])], range(30), 8)[0]
            assert np.array_equal(counts, alone)

    def test_walk_draws_each_year_once_per_replicate(self, monkeypatch):
        import technet.nullmodel as nullmodel

        drawn = []

        def counted(params, rng):
            drawn.append(params.year)
            return sample_null_matrix(params, rng)

        monkeypatch.setattr(nullmodel, "sample_null_matrix", counted)
        rng = np.random.default_rng(40)
        ms = {
            y: make_m((rng.random((10, 5)) < 0.4).astype(np.uint8), year=y)
            for y in range(2000, 2004)
        }
        fits = {y: fit_bicm(m) for y, m in ms.items()}
        tests = [exceedance_test(assist_matrix(ms[y], ms[y + 1])) for y in range(2000, 2003)]
        exceedance_counts(fits, tests, range(6), 1)
        assert sorted(drawn) == sorted(list(range(2000, 2004)) * 6)

    def test_inconsistent_pairs_are_rejected(self):
        rng = np.random.default_rng(41)
        m_a, m_b, m_c = (
            make_m((rng.random((6, 4)) < 0.5).astype(np.uint8), year=y)
            for y in (1998, 1999, 2000)
        )
        test = exceedance_test(assist_matrix(m_a, m_b))
        fit_a, fit_b = fit_bicm(m_a), fit_bicm(m_b)
        with pytest.raises(ValueError):  # no fit of the later year
            exceedance_counts({1998: fit_a}, [test], range(2), 0)
        with pytest.raises(ValueError):  # the 2000 fit filed under 1999
            exceedance_counts({1998: fit_a, 1999: fit_bicm(m_c)}, [test], range(2), 0)
        with pytest.raises(ValueError):  # a lag-0 matrix: both halves would be one draw
            lag_0 = exceedance_test(assist_matrix(m_a, m_a))
            exceedance_counts({1998: fit_a}, [lag_0], range(2), 0)
        # other region or field names in the later fit, after the base fit's equal ones
        renamed_regions = PresenceMatrix(
            1999, tuple(r + "x" for r in m_b.regions), m_b.fields, m_b.presence
        )
        renamed_fields = PresenceMatrix(
            1999, m_b.regions, tuple(f + "x" for f in m_b.fields), m_b.presence
        )
        for renamed in (renamed_regions, renamed_fields):
            with pytest.raises(ValueError, match="index sets"):
                exceedance_counts({1998: fit_a, 1999: fit_bicm(renamed)}, [test], range(2), 0)
        exceedance_counts({1998: fit_a, 1999: fit_b}, [test], range(2), 0)

    def test_null_calibration_is_conservative(self):
        # p-values of null-drawn "empirical" matrices dominate the uniform law
        pres = (np.random.default_rng(8).random((12, 6)) < 0.35).astype(np.uint8)
        params_t = fit_bicm(make_m(pres, year=1998))
        params_lag = fit_bicm(make_m(pres, year=1999))
        collected = []
        for rep in range(30):
            emp = null_assist_replicate(params_t, params_lag, master_seed=123_000, replicate=rep)
            test = exceedance_test(emp)
            (counts,) = exceedance_counts(by_year(params_t, params_lag), [test], range(99), rep + 1)
            pv = pvalues_from_counts(test, counts, 99)
            collected.extend(pv.pvalues[pv.source_active].ravel().tolist())
        collected = np.array(collected)
        for x in (0.05, 0.1, 0.25, 0.5):
            assert (collected <= x).mean() <= x + 0.05

    def test_counts_of_a_chunk_take_the_narrowest_type(self):
        pair = self._pair(0.3)
        fits, tests = by_year(*pair[1:]), [exceedance_test(pair[0])]
        for replicates, dtype in (([], np.uint8), (range(255), np.uint8), (range(256), np.uint16)):
            (counts,) = exceedance_counts(fits, tests, replicates, 5)
            assert counts.dtype == dtype

    @pytest.mark.parametrize(
        "n, dtype",
        [(0, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
         (65_536, np.uint32)],
    )
    def test_count_type_holds_every_count_up_to_n(self, n, dtype):
        assert count_dtype(n) == dtype
        assert np.iinfo(count_dtype(n)).max >= n

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(4)
        pv = self._pvalues(self._pair(rng.random((3, 3)) * 0.5), 9)
        again = pvalues_from_text(pvalues_to_text(pv))
        assert np.array_equal(again.exceed_counts, pv.exceed_counts)
        assert np.array_equal(again.pvalues, pv.pvalues)
        assert np.array_equal(again.source_active, pv.source_active)
        assert again.n_replicates == pv.n_replicates


class TestTieRule:
    def test_region_permuted_replicate_ties_every_cell(self):
        # every null draw is the empirical matrix with its regions permuted
        # (link probabilities of 0 and 1), so every null value equals its
        # empirical value exactly but sums its terms in another order
        rng = np.random.default_rng(50)
        ms = [make_m((rng.random((300, 30)) < 0.1).astype(np.uint8), year=y) for y in (1998, 1999)]
        perm = rng.permutation(300)
        fixed = [
            BicmParameters.from_link_probability(
                m.year, m.regions, m.fields, m.presence[perm] * 1.0, 0.0
            )
            for m in ms
        ]
        b_emp = assist_matrix(*ms)
        null = null_assist_replicate(*fixed, master_seed=0, replicate=0).values
        assert np.allclose(null, b_emp.values, rtol=1e-13, atol=0)
        assert (null < b_emp.values).any()  # some exact ties land below in float
        (counts,) = exceedance_counts(by_year(*fixed), [exceedance_test(b_emp)], range(3), 0)
        assert (counts == 3).all()


class TestPinnedNullBytes:
    # sha256 of the P_<year>.csv text for this fixed pair, derived from the
    # plain replicate loop of oracles.pvalue_text_by_loop (replicate k draws
    # year 1998 from the (1998, k) stream and year 1999 from the (1999, k)
    # stream cell by cell, and dense GEMM values counted under the tie rule); any change to
    # sampling, the assist kernel, the tie rule or the reduction that moves a
    # single count changes it.
    GOLDEN_SHA256 = "972e5f8b452fdb1bba82bece465a940908b6b037f93b6d5a5a28bd76ef1f9e92"

    def _pair(self):
        rng = np.random.default_rng(2024)
        regions = tuple(f"r{i:02d}" for i in range(40))
        fields = tuple(f"f{i:02d}" for i in range(12))
        m_t = PresenceMatrix(1998, regions, fields, (rng.random((40, 12)) < 0.3).astype(np.uint8))
        m_lag = PresenceMatrix(1999, regions, fields, (rng.random((40, 12)) < 0.3).astype(np.uint8))
        return assist_matrix(m_t, m_lag), fit_bicm(m_t), fit_bicm(m_lag)

    def test_chunked_counts_match_golden_hash(self):
        pair = self._pair()
        test = exceedance_test(pair[0])
        counts = sum(
            exceedance_counts(by_year(*pair[1:]), [test], chunk, 11)[0]
            for chunk in (range(0, 10), range(10, 37))
        )
        text = pvalues_to_text(pvalues_from_counts(test, counts, 37))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_SHA256

    def test_streamed_ensemble_matches_golden_hash(self):
        b_emp, params_t, params_lag = self._pair()
        text = pvalue_text_by_loop(
            b_emp, dense_p(params_t), dense_p(params_lag), 1999, 37, 11
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_SHA256
