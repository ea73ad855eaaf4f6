"""Lagged directed field-to-field assist matrix from consecutive presence matrices.

Entry (i, j) is the probability that a region holding field i in the base year
holds field j one lag later, averaged uniformly over the u_i regions presenting
i and discounted by each region's later diversification: the two-step
transition probability of a walk field(t) -> region -> field(t+lag).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .rca import PresenceMatrix


class AssistError(ValueError):
    """Raised when the two presence matrices do not share index sets."""


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
            raise AssistError("assist matrix must be square over the field set")


def diversification(m: PresenceMatrix) -> np.ndarray:
    """Number of fields each region presents (row sums)."""
    return m.presence.sum(axis=1).astype(np.int64)


def ubiquity(m: PresenceMatrix) -> np.ndarray:
    """Number of regions presenting each field (column sums)."""
    return m.presence.sum(axis=0).astype(np.int64)


def _base_operands(m: PresenceMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base-year GEMM operand, its row scale 1/u and the ubiquity u itself."""
    u = ubiquity(m)
    with np.errstate(divide="ignore"):
        inv_u = np.where(u > 0, 1.0 / u, 0.0)
    return m.presence.astype(np.float64), inv_u, u


def _lag_operand(m: PresenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Later-year GEMM operand L diag(1/d), rows of zero d left at 0, and d itself."""
    d = diversification(m)
    with np.errstate(divide="ignore"):
        inv_d = np.where(d > 0, 1.0 / d, 0.0)
    # uint8 * float64 is exact: every caller gets the same float64 operand.
    return m.presence * inv_d[:, None], d


def _assist_values(base: np.ndarray, inv_u: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """The assist kernel on prepared operands; empirical and null values share it."""
    return inv_u[:, None] * (base.T @ lag)


def assist_matrix(m_t: PresenceMatrix, m_t_lag: PresenceMatrix) -> AssistMatrix:
    """Compute the assist matrix for a pair of presence matrices.

    Regions with zero later diversification contribute nothing; fields with
    zero base ubiquity get all-zero rows, keeping the matrix sub-stochastic.
    """
    if m_t.regions != m_t_lag.regions or m_t.fields != m_t_lag.fields:
        raise AssistError("presence matrices must share region and field index sets")
    base, inv_u, u = _base_operands(m_t)
    lag, d = _lag_operand(m_t_lag)
    return AssistMatrix(
        base_year=m_t.year,
        lag=m_t_lag.year - m_t.year,
        regions=m_t.regions,
        fields=m_t.fields,
        values=_assist_values(base, inv_u, lag),
        diversification=d,
        ubiquity=u,
    )


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


def assist_from_text(text: str, sidecar: str) -> AssistMatrix:
    _meta, fields, values = artifacts.dense_from_text(text, float, AssistError)
    rows = artifacts.tagged_rows(sidecar, {"base_year": 1, "lag": 1, "d": 2, "u": 2}, AssistError)
    try:
        [[base_year]], [[lag]] = rows["base_year"], rows["lag"]
    except ValueError:
        raise AssistError("sidecar needs one base_year and one lag row") from None
    if [code for code, _u in rows["u"]] != list(fields):
        raise AssistError("sidecar ubiquity rows are not over the matrix fields in order")
    return AssistMatrix(
        base_year=int(base_year),
        lag=int(lag),
        regions=tuple(region for region, _d in rows["d"]),
        fields=fields,
        values=values,
        diversification=np.array([int(d) for _r, d in rows["d"]], dtype=np.int64),
        ubiquity=np.array([int(u) for _f, u in rows["u"]], dtype=np.int64),
    )
