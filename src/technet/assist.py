"""Lagged directed field-to-field assist matrix from consecutive presence matrices.

Entry (i, j) is the probability that a region holding field i in the base year
holds field j one lag later, averaged uniformly over the u_i regions presenting
i and discounted by each region's later diversification: the two-step
transition probability of a walk field(t) -> region -> field(t+lag).

Each presence matrix, empirical or null, is first turned into a hit list: its
1-cells in region-major order, with u, 1/u, d and 1/d from bincounts. An
empirical matrix gives its cells by one scan of its presence array; a null
draw is produced as its cells (`nullmodel.sample_null_matrix`) and is never a
dense matrix. The values are then a join of the two years' hit lists on
shared regions, summed by one weighted bincount in ascending region order.
The join's cost grows with the square of the density, and it beats a dense
BLAS product below about 4-6%; see `_assist_values` for the cost model and
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifacts
from .artifacts import ArtifactError
from .rca import PresenceMatrix


@dataclass(frozen=True, eq=False)
class AssistMatrix:
    base_year: int
    lag: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    values: np.ndarray
    diversification: np.ndarray  # d_r at base_year + lag
    ubiquity: np.ndarray  # u_i at base_year

    def __post_init__(self) -> None:
        n = len(self.fields)
        if self.values.shape != (n, n):
            raise ValueError("assist matrix must be square over the field set")


@dataclass(frozen=True, eq=False)
class HitList:
    """One presence matrix as assist-join operands, for either role in a pair.

    `regions` and `fields` list its 1-cells in region-major order, so region
    r's cells sit at positions starts[r] to starts[r] + d[r]. As the base year
    of a pair it supplies the cells, u and 1/u; as the later year, the cells by
    region, d and 1/d. Zero u or d gets a zero inverse.
    """

    regions: np.ndarray
    fields: np.ndarray
    starts: np.ndarray
    d: np.ndarray
    inv_d: np.ndarray
    u: np.ndarray
    inv_u: np.ndarray


def _inverse(counts: np.ndarray) -> np.ndarray:
    return np.divide(1.0, counts, out=np.zeros(counts.shape), where=counts > 0)


def _hit_list(hits: np.ndarray, shape: tuple[int, int]) -> HitList:
    """The hit list of the 1-cells at ascending flat indices `hits` of an R x F matrix."""
    n_regions, n_fields = shape
    regions = hits // n_fields
    fields = hits - regions * n_fields
    d = np.bincount(regions, minlength=n_regions)
    u = np.bincount(fields, minlength=n_fields)
    return HitList(regions, fields, np.cumsum(d) - d, d, _inverse(d), u, _inverse(u))


def _assist_values(base: HitList, lag: HitList) -> np.ndarray:
    """The assist kernel, a join of base and later cells on their shared region.

    Base cell (r, i) meets the d_r later cells (r, j) of its region, and one
    weighted bincount adds 1/d_r into (i, j) for every meeting. The cells are
    region-major, so each (i, j) sums its terms in ascending region order: the
    result does not depend on BLAS or its thread count. Empirical and null
    values share this kernel.

    Cost model: the join makes sum_r a_r * d_r meetings (a_r base cells of
    region r), about R * (rho * F)^2 at density rho, against the R * F^2
    multiply-adds of the dense GEMM it replaced. Measured on a 2-vCPU x86 VM
    with one OpenBLAS thread, hit lists included: at 1000 x 120 the join takes
    0.41 ms at 2% density against the GEMM's 1.25 ms, breaks even near 6% and
    takes 8.8 ms against 1.3 ms at 20%; at 300 x 600 it takes 1.5 ms against
    5.4 ms at 2% and breaks even between 4% and 6%. RCA presence is sparse
    (2-6% full on every workload measured), so there is no dense path.
    """
    n_fields = base.u.size
    meets = lag.d[base.regions]
    ends = np.cumsum(meets)
    # position in the later hit list of each meeting: region start + rank in region
    at = np.arange(meets.sum()) + np.repeat(lag.starts[base.regions] - (ends - meets), meets)
    keys = np.repeat(base.fields * n_fields, meets) + lag.fields[at]
    weights = np.repeat(lag.inv_d[base.regions], meets)
    sums = np.bincount(keys, weights=weights, minlength=n_fields * n_fields)
    return base.inv_u[:, None] * sums.reshape(n_fields, n_fields)


def _assist_from_hits(
    base_year: int, later_year: int, regions: tuple[str, ...], fields: tuple[str, ...],
    base: HitList, lag: HitList,
) -> AssistMatrix:
    """The assist matrix of two prepared presence matrices over one index set."""
    return AssistMatrix(
        base_year=base_year,
        lag=later_year - base_year,
        regions=regions,
        fields=fields,
        values=_assist_values(base, lag),
        diversification=lag.d,
        ubiquity=base.u,
    )


def assist_matrix(m_t: PresenceMatrix, m_t_lag: PresenceMatrix) -> AssistMatrix:
    """Compute the assist matrix for a pair of presence matrices.

    Regions with zero later diversification contribute nothing; fields with
    zero base ubiquity get all-zero rows, keeping the matrix sub-stochastic.
    """
    if m_t.regions != m_t_lag.regions or m_t.fields != m_t_lag.fields:
        raise ValueError("presence matrices must share region and field index sets")
    # a bool view scans about 4x faster than the uint8 array
    base, lag = (_hit_list(np.flatnonzero(m.presence.view(bool)), m.presence.shape)
                 for m in (m_t, m_t_lag))
    return _assist_from_hits(m_t.year, m_t_lag.year, m_t.regions, m_t.fields, base, lag)


def assist_to_text(a: AssistMatrix) -> str:
    """Labelled dense matrix: field header row, then one row per source field."""
    return artifacts.dense_to_text(a.fields, a.values)


def assist_sidecar_text(a: AssistMatrix) -> str:
    """Sidecar with the diversification and ubiquity vectors."""
    return artifacts.rows_to_text([
        ("base_year", a.base_year), ("lag", a.lag),
        *(("d", region, d) for region, d in zip(a.regions, a.diversification.tolist())),
        *(("u", code, u) for code, u in zip(a.fields, a.ubiquity.tolist())),
    ])


def assist_from_text(
    text: str, sidecar: str, *, regions: Sequence[str], fields: Sequence[str], year: int
) -> AssistMatrix:
    """The assist matrix of base year `year` over `regions` and `fields`, in order.

    Given tuples, the result holds those same tuple objects, so every matrix
    read against one run index shares them.
    """
    regions, fields = tuple(regions), tuple(fields)
    _meta, header, values = artifacts.dense_from_text(text, float)
    if header != fields:
        raise ArtifactError("assist matrix header is not the run's fields in order")
    if not np.all((values >= 0) & (values < np.inf)):  # NaN fails both
        raise ArtifactError("assist values must be finite and nonnegative")
    rows = artifacts.tagged_rows(sidecar, {"base_year": 1, "lag": 1, "d": 2, "u": 2})
    try:
        [[base_year]], [[lag]] = rows["base_year"], rows["lag"]
    except ValueError:
        raise ArtifactError("sidecar needs one base_year and one lag row") from None
    try:
        base_year, lag = int(base_year), int(lag)
        d, u = ([int(n) for _key, n in rows[tag]] for tag in ("d", "u"))
    except ValueError as exc:
        raise ArtifactError(f"sidecar cell is not an integer: {exc}") from None
    if base_year != year:
        raise ArtifactError(f"assist matrix of base year {base_year} where {year} is expected")
    if [region for region, _d in rows["d"]] != list(regions):
        raise ArtifactError("sidecar diversification rows are not the run's regions in order")
    if [code for code, _u in rows["u"]] != list(fields):
        raise ArtifactError("sidecar ubiquity rows are not over the matrix fields in order")
    return AssistMatrix(
        base_year=year,
        lag=lag,
        regions=regions,
        fields=fields,
        values=values,
        diversification=np.array(d, dtype=np.int64),
        ubiquity=np.array(u, dtype=np.int64),
    )
