"""Benjamini-Hochberg link selection and the binary directed technology network.

Two significance bases are supported when turning a p-value matrix into an
adjacency matrix:

``percentile``
    BH on the plain null-exceedance percentile counts/K. This is the default:
    it is the rank statistic the null ensemble actually measures. Every link
    with zero exceedances has p = 0 and passes BH, whatever q and the number
    m of tested links are. Where no link is real, about m/(K+1) links have
    zero exceedances by chance, and every one of them is kept.

``addone``
    BH on the pseudo-count p-values (1 + counts)/(K + 1). Conservative: the
    floor 1/(K+1) can exceed the BH line entirely, in which case the network
    is empty no matter how extreme the links are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from . import artifacts
from .nullmodel import PvalueMatrix

SIGNIFICANCE_BASES = ("percentile", "addone")


class NetworkError(ValueError):
    """Raised on a malformed or inconsistent network (edge list) artifact."""


@dataclass(frozen=True, eq=False)
class TechnologyNetwork:
    """Directed binary adjacency over the field set; entry (i, j) = link i -> j."""

    year: int
    fields: tuple[str, ...]
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.fields)
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square over the field set")
        if self.adjacency.dtype != np.uint8:
            object.__setattr__(self, "adjacency", self.adjacency.astype(np.uint8))

    @property
    def n_links(self) -> int:
        return int(self.adjacency.sum())

    def edges(self) -> list[tuple[str, str]]:
        src, dst = np.nonzero(self.adjacency)
        return sorted((self.fields[s], self.fields[t]) for s, t in zip(src, dst))


def bh_reject(pvalues: Sequence[float] | np.ndarray, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up selection over a 1-D p-value array.

    Orders by (p-value, index), finds the largest rank k with
    p_(k) <= k*q/m and returns the indices of ranks 1..k in that order.
    Tied p-values straddle no boundary: if any member of a tie group
    qualifies at its highest rank, the whole group is included.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    p = np.asarray(pvalues, dtype=np.float64)
    m = p.size
    if m == 0:
        raise ValueError("empty p-value list")
    order = np.argsort(p, kind="stable")
    passed = np.nonzero(p[order] <= np.arange(1, m + 1) * q / m)[0]
    return order[: passed[-1] + 1 if passed.size else 0]


def bh_fdr(pvalues: Sequence[tuple[Hashable, float]], q: float) -> set[Hashable]:
    """Benjamini-Hochberg step-up selection over (key, p-value) pairs (see bh_reject).

    Nothing in the pipeline calls it; it stays while `perfbench/tracer.py`
    names it as a span.
    """
    items = list(pvalues)
    return {items[i][0] for i in bh_reject([p for _key, p in items], q)}


def build_adjacency(
    p: PvalueMatrix,
    q: float = 0.05,
    include_diagonal: bool = False,
    basis: str = "percentile",
) -> TechnologyNetwork:
    """Build the binary directed network of BH-significant links.

    The tested family excludes structurally impossible links (rows whose
    source field had zero base ubiquity) and, by default, the diagonal, whose
    entries measure persistence rather than cross-field catalysis.
    """
    if basis not in SIGNIFICANCE_BASES:
        raise ValueError(f"basis must be one of {SIGNIFICANCE_BASES}")
    n = len(p.fields)
    if basis == "percentile":
        values = p.exceed_counts / p.n_replicates
    else:
        values = p.pvalues
    tested = np.repeat(p.source_active[:, None], n, axis=1)
    if not include_diagonal:
        np.fill_diagonal(tested, False)

    adjacency = np.zeros((n, n), dtype=np.uint8)
    cells = np.flatnonzero(tested)
    if cells.size:
        adjacency.flat[cells[bh_reject(values.flat[cells], q)]] = 1
    return TechnologyNetwork(year=p.base_year, fields=p.fields, adjacency=adjacency)


def network_to_text(net: TechnologyNetwork) -> str:
    """Year-keyed 'year,source_field,target_field' edge rows, lexicographic order."""
    return artifacts.year_rows_to_text(net.year, net.edges())


def network_from_text(
    text: str, fields: Sequence[str], *, year: int | None = None
) -> TechnologyNetwork:
    year, columns = artifacts.year_rows_from_text(text, 2, year=year, error=NetworkError)
    adjacency = artifacts.scatter(columns, (fields, fields), 1, np.uint8, NetworkError)
    return TechnologyNetwork(year=year, fields=tuple(fields), adjacency=adjacency)
