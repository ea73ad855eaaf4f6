from fractions import Fraction

import numpy as np
import pytest

from technet.assist import (
    AssistError,
    assist_from_text,
    assist_matrix,
    assist_sidecar_text,
    assist_to_text,
)
from technet.nullmodel import TIE_RTOL_PER_REGION
from technet.rca import PresenceMatrix

from oracles import walk_assist_exact


def make_m(presence, year=1998):
    presence = np.asarray(presence, dtype=np.uint8)
    regions = tuple(f"r{i}" for i in range(presence.shape[0]))
    fields = tuple(f"f{i}" for i in range(presence.shape[1]))
    return PresenceMatrix(year=year, regions=regions, fields=fields, presence=presence)


class TestDegreeVectors:
    def test_diversification_row_sums(self):
        m = make_m([[1, 0], [1, 1]])
        assert assist_matrix(m, m).diversification.tolist() == [1, 2]

    def test_zero_row(self):
        m = make_m([[0, 0]])
        assert assist_matrix(m, m).diversification.tolist() == [0]

    def test_full_row(self):
        m = make_m([[1, 1, 1, 1]])
        assert assist_matrix(m, m).diversification.tolist() == [4]

    def test_ubiquity_column_sums(self):
        m = make_m([[1, 0], [1, 1]])
        assert assist_matrix(m, m).ubiquity.tolist() == [2, 1]

    def test_zero_column(self):
        m = make_m([[0], [0]])
        assert assist_matrix(m, m).ubiquity.tolist() == [0]

    def test_single_presence(self):
        m = make_m([[1]])
        assert assist_matrix(m, m).ubiquity.tolist() == [1]


class TestAssistMatrix:
    def test_identity_persistence(self):
        eye = make_m(np.eye(3, dtype=np.uint8))
        eye1 = make_m(np.eye(3, dtype=np.uint8), year=1999)
        b = assist_matrix(eye, eye1)
        assert np.array_equal(b.values, np.eye(3))
        assert b.lag == 1

    def test_hand_evaluated_entry(self):
        m_t = make_m([[1, 0], [1, 1]])
        m_t1 = make_m([[1, 1], [0, 1]], year=1999)
        b = assist_matrix(m_t, m_t1)
        assert b.values[0, 0] == 0.25
        assert b.values[0, 1] == 0.75
        assert b.values[1, 0] == 0.0
        assert b.values[1, 1] == 1.0

    def test_mismatched_index_sets_error(self):
        m_t = make_m([[1, 0], [1, 1]])
        other = PresenceMatrix(
            year=1999, regions=("x0", "x1"), fields=("f0", "f1"),
            presence=np.eye(2, dtype=np.uint8),
        )
        with pytest.raises(AssistError):
            assist_matrix(m_t, other)

    def test_zero_ubiquity_row_is_zero(self):
        m_t = make_m([[0, 1], [0, 1]])
        m_t1 = make_m([[1, 1], [1, 1]], year=1999)
        b = assist_matrix(m_t, m_t1)
        assert np.all(b.values[0] == 0.0)

    def test_matches_walk_enumeration_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            m1 = (rng.random(shape) < 0.5).astype(np.uint8)
            m2 = (rng.random(shape) < 0.5).astype(np.uint8)
            b = assist_matrix(make_m(m1), make_m(m2, year=1999))
            exact = walk_assist_exact(m1, m2)
            for i in range(shape[1]):
                for j in range(shape[1]):
                    assert abs(b.values[i, j] - float(exact[i][j])) < 1e-12

    def test_row_sum_identity(self):
        # sum_j B_ij = (1/u_i) * #{r presenting i with positive later degree}
        rng = np.random.default_rng(9)
        for _ in range(30):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            m1 = (rng.random(shape) < 0.45).astype(np.uint8)
            m2 = (rng.random(shape) < 0.45).astype(np.uint8)
            b = assist_matrix(make_m(m1), make_m(m2, year=1999))
            d_later = m2.sum(axis=1)
            for i in range(shape[1]):
                u_i = m1[:, i].sum()
                if u_i == 0:
                    assert b.values[i].sum() == 0.0
                else:
                    expected = (m1[:, i] * (d_later > 0)).sum() / u_i
                    assert abs(b.values[i].sum() - expected) < 1e-12
                    assert b.values[i].sum() <= 1.0 + 1e-12

    def test_region_permutation_invariance(self):
        rng = np.random.default_rng(10)
        m1 = (rng.random((5, 4)) < 0.5).astype(np.uint8)
        m2 = (rng.random((5, 4)) < 0.5).astype(np.uint8)
        base = assist_matrix(make_m(m1), make_m(m2, year=1999))
        perm = rng.permutation(5)
        shuffled = assist_matrix(make_m(m1[perm]), make_m(m2[perm], year=1999))
        assert np.allclose(base.values, shuffled.values, atol=1e-15)

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    def test_join_is_within_the_tie_tolerance_of_exact_walks(self, density):
        # sparse to dense cases, each with an empty region row and an empty
        # field column in both years, and one all-empty base year
        rng = np.random.default_rng(int(density * 100))
        n_regions, n_fields = 40, 9
        tol = Fraction(TIE_RTOL_PER_REGION * n_regions)
        for case in range(5):
            m1, m2 = ((rng.random((n_regions, n_fields)) < density).astype(np.uint8) for _ in "ab")
            for m in (m1, m2):
                m[rng.integers(n_regions)] = 0
                m[:, rng.integers(n_fields)] = 0
            if case == 0:
                m1[:] = 0
            b = assist_matrix(make_m(m1), make_m(m2, year=1999))
            exact = walk_assist_exact(m1, m2)
            for i in range(n_fields):
                for j in range(n_fields):
                    assert abs(Fraction(b.values[i, j]) - exact[i][j]) <= tol * exact[i][j]


def test_serialization_round_trip():
    rng = np.random.default_rng(2)
    m1 = (rng.random((4, 3)) < 0.5).astype(np.uint8)
    m2 = (rng.random((4, 3)) < 0.5).astype(np.uint8)
    b = assist_matrix(make_m(m1), make_m(m2, year=1999))
    text = assist_to_text(b)
    sidecar = assist_sidecar_text(b)
    again = assist_from_text(text, sidecar, regions=b.regions, fields=b.fields, year=b.base_year)
    assert np.array_equal(again.values, b.values)
    assert again.base_year == b.base_year and again.lag == b.lag
    assert np.array_equal(again.ubiquity, b.ubiquity)
    assert np.array_equal(again.diversification, b.diversification)
