"""Lagged directed field-to-field assist matrix from consecutive presence matrices.

Entry (i, j) is the probability that a region holding field i in the base year
holds field j one lag later, averaged uniformly over the u_i regions presenting
i and discounted by each region's later diversification: the two-step
transition probability of a walk field(t) -> region -> field(t+lag).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Dense matrix text: field-index header row, then one row per source field."""
    header = "field," + ",".join(a.fields)
    lines = [header]
    for fi, code in enumerate(a.fields):
        lines.append(code + "," + ",".join(repr(v) for v in a.values[fi].tolist()))
    return "\n".join(lines) + "\n"


def assist_sidecar_text(a: AssistMatrix) -> str:
    """Sidecar with the diversification and ubiquity vectors."""
    lines = [f"base_year,{a.base_year}", f"lag,{a.lag}"]
    for ri, region in enumerate(a.regions):
        lines.append(f"d,{region},{int(a.diversification[ri])}")
    for fi, code in enumerate(a.fields):
        lines.append(f"u,{code},{int(a.ubiquity[fi])}")
    return "\n".join(lines) + "\n"


def assist_from_text(text: str, sidecar: str) -> AssistMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise AssistError("empty assist matrix text")
    fields = tuple(lines[0].split(",")[1:])
    n = len(fields)
    values = np.zeros((n, n), dtype=np.float64)
    for fi, raw in enumerate(lines[1:]):
        cells = raw.split(",")
        if cells[0] != fields[fi]:
            raise AssistError(f"row order mismatch at {cells[0]!r}")
        values[fi] = [float(c) for c in cells[1:]]

    base_year = lag = None
    regions: list[str] = []
    d_vals: list[int] = []
    u_map: dict[str, int] = {}
    for raw in sidecar.splitlines():
        if not raw.strip():
            continue
        cells = raw.split(",")
        if cells[0] == "base_year":
            base_year = int(cells[1])
        elif cells[0] == "lag":
            lag = int(cells[1])
        elif cells[0] == "d":
            regions.append(cells[1])
            d_vals.append(int(cells[2]))
        elif cells[0] == "u":
            u_map[cells[1]] = int(cells[2])
    if base_year is None or lag is None:
        raise AssistError("sidecar missing base_year or lag")
    ubiq = np.array([u_map[f] for f in fields], dtype=np.int64)
    return AssistMatrix(
        base_year=base_year,
        lag=lag,
        regions=tuple(regions),
        fields=fields,
        values=values,
        diversification=np.array(d_vals, dtype=np.int64),
        ubiquity=ubiq,
    )
