"""Revealed-comparative-advantage binarization of occurrence matrices.

A region is marked present in a field when its within-region weight share of
that field strictly exceeds the field's global weight share. Ties produce
absence, which makes the degenerate single-cell case deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifacts
from .ingest import OccurrenceMatrix


class RcaError(ValueError):
    """Raised when RCA is undefined (all-zero occurrence matrix)."""


class PresenceError(ValueError):
    """Raised on a malformed or inconsistent presence artifact."""


@dataclass(frozen=True, eq=False)
class PresenceMatrix:
    """Binary region x field presence matrix M for one year."""

    year: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    presence: np.ndarray

    def __post_init__(self) -> None:
        if self.presence.shape != (len(self.regions), len(self.fields)):
            raise ValueError("presence matrix shape does not match index sets")
        if self.presence.dtype != np.uint8:
            object.__setattr__(self, "presence", self.presence.astype(np.uint8))
        if self.presence.max(initial=0) > 1:
            raise ValueError("presence entries must be 0 or 1")


def binarize_rca(w: OccurrenceMatrix) -> PresenceMatrix:
    """Apply the strict RCA criterion; zero-total regions yield all-zero rows."""
    total = w.weights.sum()
    if total <= 0.0:
        raise RcaError("RCA is undefined for an all-zero occurrence matrix")
    row_totals = w.weights.sum(axis=1, keepdims=True)
    global_share = w.weights.sum(axis=0) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        local_share = np.where(row_totals > 0, w.weights / row_totals, 0.0)
    presence = (local_share > global_share[None, :]).astype(np.uint8)
    return PresenceMatrix(year=w.year, regions=w.regions, fields=w.fields, presence=presence)


def presence_to_text(m: PresenceMatrix) -> str:
    """Year-keyed 'year,region,field' rows listing only presences, in index order."""
    ri, fi = np.nonzero(m.presence)
    return artifacts.year_rows_to_text(
        m.year, zip([m.regions[i] for i in ri.tolist()], [m.fields[j] for j in fi.tolist()])
    )


def presence_from_text(
    text: str, *, regions: Sequence[str], fields: Sequence[str], year: int | None = None
) -> PresenceMatrix:
    year, columns = artifacts.year_rows_from_text(text, 2, year=year, error=PresenceError)
    presence = artifacts.scatter(columns, (regions, fields), 1, np.uint8, PresenceError)
    return PresenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), presence=presence)
