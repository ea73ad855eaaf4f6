"""Bipartite configuration-model null ensemble and empirical link p-values.

The null model is the canonical (soft) maximum-entropy ensemble over binary
region x field matrices whose expected row and column sums match the empirical
diversification and ubiquity. Each cell is an independent Bernoulli with
probability p_ri = x_r y_i / (1 + x_r y_i); the multipliers x, y solve the
degree-matching fixed point.

Replicate k of an ensemble draws presence matrices for both years from an RNG
substream keyed by (base_year, k), so parallel evaluation in any order gives
bit-identical results. Exceedance counts are integers and sum associatively,
which keeps the streamed reduction order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .assist import AssistMatrix, assist_matrix
from .rca import PresenceMatrix


class BicmFitError(RuntimeError):
    """Non-convergence of the degree-matching fixed point."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class BicmParameters:
    """Fitted null-model parameters for one presence matrix.

    link_probability is the complete cell-probability matrix, including rows
    and columns forced to 0 (empty) or 1 (saturated) before the interior fit.
    The x, y multipliers are NaN on forced rows/columns; they are diagnostics,
    not needed for sampling.
    """

    year: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    link_probability: np.ndarray
    residual: float


def _degree_residual(p: np.ndarray, d: np.ndarray, u: np.ndarray) -> float:
    row_err = np.abs(p.sum(axis=1) - d).max() if d.size else 0.0
    col_err = np.abs(p.sum(axis=0) - u).max() if u.size else 0.0
    return float(max(row_err, col_err))


def fit_bicm(m: PresenceMatrix, tol: float = 1e-8, max_iter: int = 10_000) -> BicmParameters:
    """Fit the canonical bipartite configuration model to a presence matrix.

    Empty and saturated rows/columns are peeled off first (their cells are
    forced to 0 or 1 and the remaining degree targets adjusted); the interior
    block is solved by alternating fixed-point iteration on the multipliers.
    Raises BicmFitError carrying the residual if max_iter is exhausted.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    presence = m.presence.astype(np.float64)
    n_regions, n_fields = presence.shape
    d_emp = presence.sum(axis=1)
    u_emp = presence.sum(axis=0)

    p = np.zeros((n_regions, n_fields), dtype=np.float64)
    active_r = np.ones(n_regions, dtype=bool)
    active_f = np.ones(n_fields, dtype=bool)
    row_target = d_emp.copy()
    col_target = u_emp.copy()

    # Peel forced rows/columns until stable. Removing a saturated row lowers
    # the remaining column targets, which can force further rows/columns.
    changed = True
    while changed:
        changed = False
        n_af = int(active_f.sum())
        for r in np.nonzero(active_r)[0]:
            if row_target[r] <= 0:
                active_r[r] = False
                changed = True
            elif row_target[r] >= n_af:
                p[r, active_f] = 1.0
                col_target[active_f] -= 1.0
                active_r[r] = False
                changed = True
        n_ar = int(active_r.sum())
        for f in np.nonzero(active_f)[0]:
            if col_target[f] <= 0:
                active_f[f] = False
                changed = True
            elif col_target[f] >= n_ar:
                p[active_r, f] = 1.0
                row_target[active_r] -= 1.0
                active_f[f] = False
                changed = True

    x = np.full(n_regions, np.nan)
    y = np.full(n_fields, np.nan)
    ar = np.nonzero(active_r)[0]
    af = np.nonzero(active_f)[0]
    if ar.size and af.size:
        dt = row_target[ar]
        ut = col_target[af]
        total = dt.sum()
        xs = dt / np.sqrt(total)
        ys = ut / np.sqrt(total)
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            xy = np.outer(xs, ys)
            block = xy / (1.0 + xy)
            denom_x = (ys[None, :] / (1.0 + xy)).sum(axis=1)
            xs = dt / denom_x
            xy = np.outer(xs, ys)
            denom_y = (xs[:, None] / (1.0 + xy)).sum(axis=0)
            ys = ut / denom_y
            xy = np.outer(xs, ys)
            block = xy / (1.0 + xy)
            res = max(
                float(np.abs(block.sum(axis=1) - dt).max()),
                float(np.abs(block.sum(axis=0) - ut).max()),
            )
            if res <= tol:
                converged = True
                break
        if not converged:
            raise BicmFitError("BiCM fit did not converge", res, iterations)
        p[np.ix_(ar, af)] = block
        x[ar] = xs
        y[af] = ys

    residual = _degree_residual(p, d_emp, u_emp)
    if residual > 10 * tol:
        raise BicmFitError("BiCM degree residual above tolerance", residual, 0)
    return BicmParameters(
        year=m.year,
        regions=m.regions,
        fields=m.fields,
        x=x,
        y=y,
        link_probability=p,
        residual=residual,
    )


def sample_null_matrix(params: BicmParameters, rng: np.random.Generator) -> PresenceMatrix:
    """Draw one presence matrix with independent Bernoulli cells."""
    uniforms = rng.random(params.link_probability.shape)
    presence = (uniforms < params.link_probability).view(np.uint8)
    return PresenceMatrix(
        year=params.year, regions=params.regions, fields=params.fields, presence=presence
    )


def replicate_rng(master_seed: int, base_year: int, replicate: int) -> np.random.Generator:
    """Independent RNG substream for one replicate, keyed by (base_year, k)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(base_year, replicate))
    return np.random.default_rng(seq)


def null_assist_replicate(
    params_t: BicmParameters,
    params_t_lag: BicmParameters,
    master_seed: int,
    replicate: int,
) -> AssistMatrix:
    """Assist matrix of one null replicate (both years sampled independently)."""
    rng = replicate_rng(master_seed, params_t.year, replicate)
    m_t = sample_null_matrix(params_t, rng)
    m_lag = sample_null_matrix(params_t_lag, rng)
    return assist_matrix(m_t, m_lag)


def null_assist_ensemble(
    params_t: BicmParameters,
    params_t_lag: BicmParameters,
    n_replicates: int,
    master_seed: int,
) -> Iterator[AssistMatrix]:
    """Stream the K-replicate null assist ensemble for one year pair."""
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    if params_t.regions != params_t_lag.regions or params_t.fields != params_t_lag.fields:
        raise ValueError("null parameters must share region and field index sets")
    for k in range(n_replicates):
        yield null_assist_replicate(params_t, params_t_lag, master_seed, k)


@dataclass(frozen=True, eq=False)
class PvalueMatrix:
    """Upper-tail link p-values against the null ensemble.

    pvalues holds the add-one form (1 + exceedances) / (K + 1): never zero,
    always a multiple of 1/(K+1). exceed_counts keeps the raw exceedance
    counts so downstream significance filtering can also use the plain
    percentile form counts/K. source_active marks fields with positive base
    ubiquity; rows of structurally zero assist values are never testable.
    """

    base_year: int
    fields: tuple[str, ...]
    n_replicates: int
    pvalues: np.ndarray
    exceed_counts: np.ndarray
    source_active: np.ndarray


def _count_exceedances(
    b_emp: AssistMatrix, ensemble: Iterable[AssistMatrix], summaries: list | None
) -> tuple[np.ndarray, int]:
    counts = np.zeros(b_emp.values.shape, dtype=np.int64)
    n = 0
    for b_null in ensemble:
        if b_null.fields != b_emp.fields:
            raise ValueError("ensemble field index set differs from the empirical matrix")
        counts += b_null.values >= b_emp.values
        if summaries is not None:
            summaries.append((float(b_null.values.mean()), float(b_null.values.max())))
        n += 1
    return counts, n


def exceedance_counts(
    b_emp: AssistMatrix,
    params_t: BicmParameters,
    params_t_lag: BicmParameters,
    replicates: Sequence[int],
    master_seed: int,
    summaries: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Count, per cell, the null replicates in `replicates` with value >= empirical.

    If `summaries` is a list, each replicate's (mean, max) is appended to it.
    """
    ensemble = (
        null_assist_replicate(params_t, params_t_lag, master_seed, k) for k in replicates
    )
    return _count_exceedances(b_emp, ensemble, summaries)[0]


def pvalues_from_counts(b_emp: AssistMatrix, counts: np.ndarray, n_replicates: int) -> PvalueMatrix:
    pv = (1.0 + counts) / (n_replicates + 1.0)
    return PvalueMatrix(
        base_year=b_emp.base_year,
        fields=b_emp.fields,
        n_replicates=n_replicates,
        pvalues=pv,
        exceed_counts=counts.copy(),
        source_active=b_emp.ubiquity > 0,
    )


def empirical_pvalues(b_emp: AssistMatrix, ensemble: Iterable[AssistMatrix]) -> PvalueMatrix:
    """Reduce a null ensemble stream into the add-one p-value matrix.

    Ties count toward the upper tail, the conservative choice: a null value
    equal to the empirical one raises the p-value.
    """
    counts, n = _count_exceedances(b_emp, ensemble, None)
    if n == 0:
        raise ValueError("empty null ensemble")
    return pvalues_from_counts(b_emp, counts, n)


def pvalues_to_text(p: PvalueMatrix) -> str:
    """Dense matrix text with a header carrying year, K and inactive sources."""
    inactive = [p.fields[i] for i in np.nonzero(~p.source_active)[0]]
    lines = [
        f"# base_year={p.base_year} replicates={p.n_replicates} "
        f"inactive_sources={'|'.join(inactive)}",
        "field," + ",".join(p.fields),
    ]
    for fi, code in enumerate(p.fields):
        lines.append(code + "," + ",".join(str(int(c)) for c in p.exceed_counts[fi].tolist()))
    return "\n".join(lines) + "\n"


def pvalues_from_text(text: str) -> PvalueMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("malformed p-value matrix text")
    meta = dict(item.split("=", 1) for item in lines[0][1:].split())
    base_year = int(meta["base_year"])
    n_replicates = int(meta["replicates"])
    inactive = set(meta.get("inactive_sources", "").split("|")) - {""}
    fields = tuple(lines[1].split(",")[1:])
    n = len(fields)
    counts = np.zeros((n, n), dtype=np.int64)
    for fi, raw in enumerate(lines[2:]):
        cells = raw.split(",")
        counts[fi] = [int(c) for c in cells[1:]]
    pv = (1.0 + counts) / (n_replicates + 1.0)
    source_active = np.array([f not in inactive for f in fields], dtype=bool)
    return PvalueMatrix(
        base_year=base_year,
        fields=fields,
        n_replicates=n_replicates,
        pvalues=pv,
        exceed_counts=counts,
        source_active=source_active,
    )
