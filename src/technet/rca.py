"""Revealed-comparative-advantage binarization of occurrence matrices.

A region is marked present in a field when its within-region weight share of
that field strictly exceeds the field's global weight share. Ties produce
absence, which makes the degenerate single-cell case deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import OccurrenceMatrix


class RcaError(ValueError):
    """Raised when RCA is undefined (all-zero occurrence matrix)."""


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
    """Serialize as 'year,region,field' triplets listing only presences."""
    lines = []
    for ri, region in enumerate(m.regions):
        for fi in np.nonzero(m.presence[ri])[0]:
            lines.append(f"{m.year},{region},{m.fields[fi]}")
    return "\n".join(lines) + ("\n" if lines else "")


def presence_from_text(
    text: str,
    *,
    regions: Sequence[str] | None = None,
    fields: Sequence[str] | None = None,
    year: int | None = None,
) -> PresenceMatrix:
    entries: list[tuple[str, str]] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        y, region, code = raw.split(",")
        y_int = int(y)
        if year is None:
            year = y_int
        elif y_int != year:
            raise ValueError(f"mixed years {year} and {y_int} in presence text")
        entries.append((region, code))
    if year is None:
        raise ValueError("year required to parse an empty presence file")
    if regions is None:
        regions = sorted({e[0] for e in entries})
    if fields is None:
        fields = sorted({e[1] for e in entries})
    region_index = {r: i for i, r in enumerate(regions)}
    field_index = {f: i for i, f in enumerate(fields)}
    presence = np.zeros((len(regions), len(fields)), dtype=np.uint8)
    for region, code in entries:
        presence[region_index[region], field_index[code]] = 1
    return PresenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), presence=presence)
