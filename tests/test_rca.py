import numpy as np
import pytest

from technet.ingest import OccurrenceMatrix
from technet.rca import (
    PresenceMatrix,
    RcaError,
    binarize_rca,
    presence_from_text,
    presence_to_text,
)


def make_w(weights, year=1998):
    weights = np.asarray(weights, dtype=np.float64)
    regions = tuple(f"r{i}" for i in range(weights.shape[0]))
    fields = tuple(f"f{i}" for i in range(weights.shape[1]))
    return OccurrenceMatrix(year=year, regions=regions, fields=fields, weights=weights)


def test_single_cell_tie_is_absence():
    # share equals global share exactly; strict inequality gives 0
    m = binarize_rca(make_w([[5.0]]))
    assert m.presence.tolist() == [[0]]


def test_hand_computed_two_by_two():
    # local shares 0.8 vs global 0.5 on the diagonal
    m = binarize_rca(make_w([[4.0, 1.0], [1.0, 4.0]]))
    assert m.presence.tolist() == [[1, 0], [0, 1]]


def test_twice_global_share_is_presence():
    # region r0 puts 2/3 of its weight in f0; global share of f0 is 1/3
    m = binarize_rca(make_w([[2.0, 1.0], [0.0, 3.0]]))
    assert m.presence[0, 0] == 1


def test_all_zero_matrix_is_error():
    with pytest.raises(RcaError):
        binarize_rca(make_w([[0.0, 0.0]]))


def test_zero_row_region_kept_as_all_zero():
    m = binarize_rca(make_w([[0.0, 0.0], [1.0, 3.0]]))
    assert m.presence[0].tolist() == [0, 0]
    assert m.regions == ("r0", "r1")


def test_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = np.where(rng.random((5, 4)) < 0.6, rng.random((5, 4)) * 9, 0.0)
        if w.sum() == 0:
            continue
        base = binarize_rca(make_w(w))
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = binarize_rca(make_w(w * c))
            assert np.array_equal(base.presence, scaled.presence)


def test_share_vectors_sum_to_one():
    rng = np.random.default_rng(4)
    w = rng.random((6, 5)) + 0.01
    total = w.sum()
    global_share = w.sum(axis=0) / total
    assert abs(global_share.sum() - 1.0) < 1e-12
    for row in w:
        assert abs((row / row.sum()).sum() - 1.0) < 1e-12


def test_presence_round_trip():
    m = binarize_rca(make_w([[4.0, 1.0], [1.0, 4.0]]))
    text = presence_to_text(m)
    again = presence_from_text(text, regions=m.regions, fields=m.fields, year=m.year)
    assert np.array_equal(again.presence, m.presence)
    assert presence_to_text(again) == text


def test_empty_presence_needs_year():
    with pytest.raises(ValueError):
        presence_from_text("", regions=("r0",), fields=("f0",))
    m = presence_from_text("", regions=("r0",), fields=("f0",), year=1998)
    assert m.presence.sum() == 0


def test_presence_matrix_validates_entries():
    regions, fields = ("r0", "r1"), ("f0", "f1", "f2")
    for fill in (0, 1):
        m = PresenceMatrix(1998, regions, fields, np.full((2, 3), fill, dtype=np.uint8))
        assert int(m.presence.sum()) == 6 * fill
    assert PresenceMatrix(1998, (), fields, np.zeros((0, 3), dtype=np.uint8)).presence.size == 0
    bad = np.zeros((2, 3), dtype=np.uint8)
    bad[1, 2] = 2
    with pytest.raises(ValueError):
        PresenceMatrix(1998, regions, fields, bad)
