"""In-memory pipeline drivers shared by the heavier tests.

These compose package functions only (they are not oracles): synthetic events
through RCA, assist, null ensemble, FDR filtering, and decomposition, without
touching disk, for Monte Carlo studies over many seeds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from technet.assist import assist_matrix
from technet.fdr import TechnologyNetwork, build_adjacency
from technet.hierarchy import parse_hierarchy
from technet.ingest import build_occurrence_matrix, parse_events
from technet.nullmodel import PvalueMatrix, exceedance_counts, fit_bicm, pvalues_from_counts
from technet.rca import binarize_rca
from technet.synth import SynthConfig, generate_events, planted_cycle_pairs, synth_field_codes


def synthetic_config(
    seed: int,
    beta: float,
    n_years: int,
    n_regions: int = 200,
    n_fields: int = 30,
    p_base: float = 0.02,
) -> SynthConfig:
    codes = synth_field_codes(n_fields, 3)
    pairs = planted_cycle_pairs(codes, beta) if beta > 1.0 else ()
    return SynthConfig(
        n_regions=n_regions,
        n_fields=n_fields,
        n_sections=3,
        year_min=1980,
        year_max=1980 + n_years - 1,
        baseline_presence=p_base,
        catalytic_pairs=pairs,
        families_per_presence=3,
        master_seed=seed,
    )


def yearly_networks(
    cfg: SynthConfig,
    n_replicates: int,
    null_seed: int,
    q: float = 0.05,
    basis: str = "percentile",
) -> Iterator[tuple[TechnologyNetwork, PvalueMatrix]]:
    """Run the full chain events -> ... -> network for every year pair."""
    result = generate_events(cfg)
    hierarchy = parse_hierarchy(result.hierarchy_text)
    parsed = parse_events(
        result.events_text.splitlines(),
        hierarchy,
        "class",
        year_min=cfg.year_min,
        year_max=cfg.year_max,
    )
    presences = {}
    fits = {}
    for year in range(cfg.year_min, cfg.year_max + 1):
        w = build_occurrence_matrix(parsed, year)
        presences[year] = binarize_rca(w)
        fits[year] = fit_bicm(presences[year])
    for t in range(cfg.year_min, cfg.year_max):
        b = assist_matrix(presences[t], presences[t + 1])
        (counts,) = exceedance_counts(fits, [b], range(n_replicates), null_seed)
        pv = pvalues_from_counts(b, counts, n_replicates)
        yield build_adjacency(pv, q=q, basis=basis), pv


def net_from_edges(n: int, edges, year: int = 2000) -> TechnologyNetwork:
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for src, dst in edges:
        adjacency[src, dst] = 1
    return TechnologyNetwork(
        year=year,
        fields=tuple(f"N{i:02d}" for i in range(n)),
        adjacency=adjacency,
    )


def random_digraph(rng: np.random.Generator, n_max: int = 12,
                   density_range: tuple[float, float] = (0.05, 0.5)) -> np.ndarray:
    n = int(rng.integers(2, n_max + 1))
    density = float(rng.uniform(*density_range))
    adjacency = (rng.random((n, n)) < density).astype(np.uint8)
    np.fill_diagonal(adjacency, 0)
    if rng.random() < 0.3:  # self-loops count as cycles; exercise them sometimes
        adjacency[rng.integers(0, n), rng.integers(0, n)] = 1
    return adjacency


def random_single_acs(rng: np.random.Generator, n_max: int = 12):
    """Random graph with one strongly connected core, acyclic periphery trees,
    and outside nodes that only feed edges inward (never receive any)."""
    n = int(rng.integers(3, n_max + 1))
    n_core = int(rng.integers(1, n + 1))
    n_periphery = int(rng.integers(0, n - n_core + 1))
    adjacency = np.zeros((n, n), dtype=np.uint8)
    core = list(range(n_core))
    if n_core == 1:
        adjacency[0, 0] = 1
    else:
        order = rng.permutation(n_core)
        for a, b in zip(order, np.roll(order, -1)):
            adjacency[a, b] = 1
        for _ in range(int(rng.integers(0, n_core + 1))):
            a, b = rng.integers(0, n_core, 2)
            if a != b:
                adjacency[a, b] = 1
    acs = core.copy()
    periphery = []
    for v in range(n_core, n_core + n_periphery):
        k = int(rng.integers(1, min(3, len(acs)) + 1))
        for s in rng.choice(acs, size=k, replace=False):
            adjacency[s, v] = 1
        acs.append(v)
        periphery.append(v)
    for v in range(n_core + n_periphery, n):
        if rng.random() < 0.7:
            k = min(int(rng.integers(1, 3)), v)
            for dst in rng.choice(v, size=k, replace=False):
                adjacency[v, dst] = 1
    fields = tuple(f"N{i:02d}" for i in range(n))
    net = TechnologyNetwork(year=2000, fields=fields, adjacency=adjacency)
    return (
        net,
        frozenset(fields[i] for i in core),
        frozenset(fields[i] for i in periphery),
    )
