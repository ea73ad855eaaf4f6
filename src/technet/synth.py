"""Deterministic synthetic event generator with planted catalytic structure.

Presences evolve as a one-year-memory process: a field appears in a region
with the baseline probability unless a planted source of that field was
present there the year before, in which case the probability is boosted. Each
presence emits a fixed number of single-code families, so the pipeline sees
the same event-file format as real data, with a known ground-truth link set.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .hierarchy import CodeHierarchy, hierarchy_to_text, region_table_to_text


class SynthConfigError(ValueError):
    """Raised on invalid generator configuration."""


def synth_field_codes(n_fields: int, n_sections: int) -> list[str]:
    """Field codes in contiguous near-equal section blocks: A01.., B01.., ..."""
    if not 1 <= n_sections <= 26:
        raise SynthConfigError("n_sections must be between 1 and 26")
    if n_fields < n_sections:
        raise SynthConfigError("need at least one field per section")
    base, extra = divmod(n_fields, n_sections)
    codes = []
    for s in range(n_sections):
        letter = string.ascii_uppercase[s]
        block = base + (1 if s < extra else 0)
        codes.extend(f"{letter}{j:02d}" for j in range(1, block + 1))
    return codes


def synth_hierarchy(n_fields: int, n_sections: int) -> CodeHierarchy:
    pairs: list[tuple[str, str | None]] = [
        (string.ascii_uppercase[s], None) for s in range(n_sections)
    ]
    pairs += [(code, code[0]) for code in synth_field_codes(n_fields, n_sections)]
    return CodeHierarchy.from_pairs(pairs)


@dataclass(frozen=True)
class SynthConfig:
    n_regions: int = 200
    n_fields: int = 30
    n_sections: int = 3
    year_min: int = 1980
    year_max: int = 2004
    baseline_presence: float = 0.02
    catalytic_pairs: tuple[tuple[str, str, float], ...] = ()
    families_per_presence: int = 3
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_regions < 1 or self.n_fields < 1:
            raise SynthConfigError("need at least one region and one field")
        if self.year_max < self.year_min:
            raise SynthConfigError("empty year span")
        if not 0.0 <= self.baseline_presence <= 1.0:
            raise SynthConfigError("baseline presence must be a probability")
        if self.families_per_presence < 1:
            raise SynthConfigError("families_per_presence must be >= 1")
        codes = set(synth_field_codes(self.n_fields, self.n_sections))
        for src, dst, beta in self.catalytic_pairs:
            if src not in codes or dst not in codes:
                raise SynthConfigError(f"catalytic pair ({src}, {dst}) references unknown fields")
            if beta < 1.0:
                raise SynthConfigError("boost factor must be >= 1")

    @property
    def field_codes(self) -> list[str]:
        return synth_field_codes(self.n_fields, self.n_sections)

    @property
    def region_ids(self) -> list[str]:
        width = max(3, len(str(self.n_regions - 1)))
        return [f"R{idx:0{width}d}" for idx in range(self.n_regions)]


def planted_cycle_pairs(codes: list[str], beta: float) -> tuple[tuple[str, str, float], ...]:
    """A directed cycle over the first three field codes, each link boosted."""
    if len(codes) < 3:
        raise SynthConfigError("need at least three fields to plant a 3-cycle")
    a, b, c = codes[0], codes[1], codes[2]
    return ((a, b, beta), (b, c, beta), (c, a, beta))


@dataclass
class SynthResult:
    config: SynthConfig
    events_text: str
    hierarchy_text: str
    regions_text: str
    truth_edges_text: str
    config_echo: str
    presence_history: dict[int, np.ndarray] = field(repr=False, default_factory=dict)


def generate_events(cfg: SynthConfig) -> SynthResult:
    """Generate the synthetic event stream; byte-identical under a fixed config."""
    rng = np.random.default_rng(cfg.master_seed)
    codes = cfg.field_codes
    regions = cfg.region_ids
    field_index = {c: i for i, c in enumerate(codes)}
    n_r, n_f = cfg.n_regions, cfg.n_fields

    # boost[j] lists the planted sources of field j with their boosted probability
    boost: dict[int, list[tuple[int, float]]] = {}
    for src, dst, beta in cfg.catalytic_pairs:
        prob = min(1.0, cfg.baseline_presence * beta)
        boost.setdefault(field_index[dst], []).append((field_index[src], prob))

    lines = ["family_id,year,region_id,code"]
    history: dict[int, np.ndarray] = {}
    prev: np.ndarray | None = None
    for year in range(cfg.year_min, cfg.year_max + 1):
        probs = np.full((n_r, n_f), cfg.baseline_presence)
        if prev is not None:
            for j, sources in boost.items():
                for i, prob in sources:
                    probs[prev[:, i] == 1, j] = np.maximum(
                        probs[prev[:, i] == 1, j], prob
                    )
        presence = (rng.random((n_r, n_f)) < probs).astype(np.uint8)
        history[year] = presence
        for ri in range(n_r):
            for fi in np.nonzero(presence[ri])[0]:
                for k in range(cfg.families_per_presence):
                    family = f"F{year}-{regions[ri]}-{codes[fi]}-{k}"
                    lines.append(f"{family},{year},{regions[ri]},{codes[fi]}")
        prev = presence

    echo = json.dumps(
        {
            "n_regions": cfg.n_regions,
            "n_fields": cfg.n_fields,
            "n_sections": cfg.n_sections,
            "year_min": cfg.year_min,
            "year_max": cfg.year_max,
            "baseline_presence": cfg.baseline_presence,
            "catalytic_pairs": [list(p) for p in cfg.catalytic_pairs],
            "families_per_presence": cfg.families_per_presence,
            "master_seed": cfg.master_seed,
        },
        sort_keys=True,
        indent=2,
    )
    return SynthResult(
        config=cfg,
        events_text="\n".join(lines) + "\n",
        hierarchy_text=hierarchy_to_text(synth_hierarchy(cfg.n_fields, cfg.n_sections)),
        regions_text=region_table_to_text({r: "SYN" for r in regions}),
        truth_edges_text=artifacts.rows_to_text(
            [("source", "target", "beta"), *cfg.catalytic_pairs]
        ),
        config_echo=echo + "\n",
        presence_history=history,
    )
