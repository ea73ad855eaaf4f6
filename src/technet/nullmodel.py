"""Bipartite configuration-model null ensemble and empirical link p-values.

The null model is the canonical (soft) maximum-entropy ensemble over binary
region x field matrices whose expected row and column sums match the empirical
diversification and ubiquity. Each cell is an independent Bernoulli with
probability p_ri = x_r y_i / (1 + x_r y_i); the multipliers x, y solve the
degree-matching fixed point.

Replicate k of year y is one presence matrix drawn from an RNG substream keyed
by (y, k). The null walk takes one fit per year, keyed by year, and replicate k
of the pair (y, y + lag) pairs the draws (y, k) and (y + lag, k), so the one
draw of a year serves both pairs that use it, and parallel evaluation in any
order gives bit-identical results. A draw is produced as a hit list
(`assist.HitList`), never as a dense matrix: it serves as the base year of one
pair and the later year of another, and the replicate's assist values come
from the same hit-list join as the empirical ones, with no BLAS call.

A draw of R x F cells reads the little-endian bytes of ceil(R * F / 8) raw
64-bit outputs of its stream, one byte c per cell in flat-index order. With
lo = min(floor(256 p), 255) the cell's byte threshold, fixed per fit, the cell
is present when c < lo and absent when c > lo. Only a boundary cell, with
c == lo, draws a double v from the same stream, in flat-index order after the
bytes, and is present when v < 256 p - lo. One scan for c <= lo finds every
candidate cell in flat order, and the non-boundary ones are kept outright.
This is U = (c + v) / 256 < p with U uniform on [0, 1), so the draw is exact
in distribution up to the 2^-53 grid of v, an error below 2^-61 per cell. It
holds at p = 0 (lo = 0, fraction 0) and p = 1 (lo = 255, fraction 1) without
a branch. A cell is a boundary cell with probability 1/256 whatever p is, so
a draw consumes R * F bytes plus 8 bytes per boundary cell, about
1.03 * R * F bytes, where one double per cell consumed 8 * R * F.

A null value counts as an exceedance when it reaches the empirical value less
a relative tolerance of R * TIE_RTOL_PER_REGION (4 * R * eps for R regions).
Two summation orders of one exact value differ by less than that, so an exact
tie counts whatever order either side was summed in; near-ties resolve toward
the upper tail, the conservative side. Exceedance counts are integers and sum
associatively, which keeps the chunked reduction order-insensitive.

Each store holds only what its readers read. A fit keeps the distinct rows of
its cell-probability matrix (8-11 of 1000 on the class-scale benchmark input,
about 20 of 300 at 600 fields) and one row index per region, next to the dense
uint8 byte thresholds that every draw reads. A
pair enters the walk as its `ExceedanceTest`, the threshold computed once from
the empirical values, which need not be kept. Counts over n replicates are of
`count_dtype(n)`, one byte a cell up to 255, and widen to int64 only in the
p-value matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .assist import AssistMatrix, HitList, _assist_from_hits, _hit_list
from .rca import PresenceMatrix


# Relative tie tolerance per region. An assist value is (1/u_i) times a sum of
# at most R terms 1/d_r, each rounded once, so two summation orders of one
# exact value differ by at most about (R + 2) * eps relative; 4 * R * eps
# covers that with room to spare for R >= 1.
TIE_RTOL_PER_REGION = 4 * float(np.finfo(np.float64).eps)


class PvalueError(ValueError):
    """Raised on a malformed or inconsistent p-value (exceedance count) artifact."""


class BicmFitError(RuntimeError):
    """Non-convergence of the degree-matching fixed point."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.message = message
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so the error survives the
        # pickling that carries it out of a null-pool worker process
        return type(self), (self.message, self.residual, self.iterations)


@dataclass(frozen=True, eq=False)
class BicmParameters:
    """Fitted null-model parameters for one presence matrix.

    A cell's probability depends only on its row's and its column's degrees,
    so the fit holds each distinct row of the cell-probability matrix once:
    region r draws from `rows[row_of[r]]`. That matrix includes the rows and
    columns forced to 0 (empty) or 1 (saturated) before the interior fit, and
    `link_probability` rebuilds it, dense, on each access. The x, y
    multipliers are NaN on forced rows/columns; they are diagnostics, not
    needed for sampling. byte_floor is each cell's uint8 threshold
    min(floor(256 p), 255), dense and computed once here, so every draw of the
    year shares it; a draw reads a cell's p only where its byte equals it.
    """

    year: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    rows: np.ndarray
    row_of: np.ndarray
    residual: float
    byte_floor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        floor = np.minimum(np.floor(256.0 * self.rows), 255.0).astype(np.uint8)
        object.__setattr__(self, "byte_floor", floor[self.row_of])

    @classmethod
    def from_link_probability(
        cls, year: int, regions: tuple[str, ...], fields: tuple[str, ...],
        x: np.ndarray, y: np.ndarray, p: np.ndarray, residual: float,
    ) -> BicmParameters:
        """The parameters of the region x field cell probabilities p, each distinct row once."""
        p = np.ascontiguousarray(p, dtype=np.float64)
        # rows equal bit for bit are one void scalar each, and np.unique groups those
        keys = p.view(np.dtype((np.void, p.itemsize * p.shape[1]))).reshape(len(p))
        _keys, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
        return cls(year, regions, fields, x, y, p[first], row_of, residual)

    @property
    def link_probability(self) -> np.ndarray:
        """The dense region x field cell-probability matrix, rebuilt from the distinct rows."""
        return self.rows[self.row_of]


def _degree_residual(p: np.ndarray, d: np.ndarray, u: np.ndarray) -> float:
    row_err = np.abs(p.sum(axis=1) - d).max() if d.size else 0.0
    col_err = np.abs(p.sum(axis=0) - u).max() if u.size else 0.0
    return float(max(row_err, col_err))


def fit_bicm(m: PresenceMatrix, tol: float = 1e-8, max_iter: int = 10_000) -> BicmParameters:
    """Fit the canonical bipartite configuration model to a presence matrix.

    Empty and saturated rows/columns are peeled off first (their cells are
    forced to 0 or 1 and the remaining degree targets adjusted). Interior rows
    with equal targets share one multiplier, and so do columns, so the fixed
    point is iterated over the distinct (row target, column target) classes,
    each weighted by its size, and the class solution is scattered back over
    the matrix. The dense matrix lives only inside the fit: the parameters
    keep its distinct rows. Raises BicmFitError carrying the residual if
    max_iter is exhausted or the full matrix misses the degrees by more than
    10 * tol.
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

    # Peel forced rows, then columns, until stable. Removing a saturated row
    # lowers the remaining column targets, which can force further columns.
    changed = True
    while changed:
        empty_r = active_r & (row_target <= 0)
        full_r = active_r & ~empty_r & (row_target >= active_f.sum())
        p[np.ix_(full_r, active_f)] = 1.0
        col_target[active_f] -= full_r.sum()
        active_r &= ~(empty_r | full_r)
        empty_f = active_f & (col_target <= 0)
        full_f = active_f & ~empty_f & (col_target >= active_r.sum())
        p[np.ix_(active_r, full_f)] = 1.0
        row_target[active_r] -= full_f.sum()
        active_f &= ~(empty_f | full_f)
        changed = bool((empty_r | full_r).any() or (empty_f | full_f).any())

    x = np.full(n_regions, np.nan)
    y = np.full(n_fields, np.nan)
    ar = np.nonzero(active_r)[0]
    af = np.nonzero(active_f)[0]
    if ar.size and af.size:
        dt, row_class, n_r = np.unique(row_target[ar], return_inverse=True, return_counts=True)
        ut, col_class, n_f = np.unique(col_target[af], return_inverse=True, return_counts=True)
        scale = np.sqrt(n_r @ dt)
        xs = dt / scale
        ys = ut / scale
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            xs = dt / ((n_f * ys)[None, :] / (1.0 + np.outer(xs, ys))).sum(axis=1)
            ys = ut / ((n_r * xs)[:, None] / (1.0 + np.outer(xs, ys))).sum(axis=0)
            xy = np.outer(xs, ys)
            block = xy / (1.0 + xy)
            res = max(
                float(np.abs(block @ n_f - dt).max()),
                float(np.abs(n_r @ block - ut).max()),
            )
            if res <= tol:
                converged = True
                break
        if not converged:
            raise BicmFitError("BiCM fit did not converge", res, iterations)
        p[np.ix_(ar, af)] = block[np.ix_(row_class, col_class)]
        x[ar] = xs[row_class]
        y[af] = ys[col_class]

    residual = _degree_residual(p, d_emp, u_emp)
    if residual > 10 * tol:
        raise BicmFitError("BiCM degree residual above tolerance", residual, 0)
    return BicmParameters.from_link_probability(m.year, m.regions, m.fields, x, y, p, residual)


def sample_null_matrix(params: BicmParameters, rng: np.random.Generator) -> HitList:
    """Draw one presence matrix with independent Bernoulli cells, as its hit list.

    Each cell reads one random byte and compares it with its byte threshold;
    only the boundary cells, whose byte equals it, draw a double (see the
    module docstring), and only they read their probability, from the fit's
    distinct rows.
    """
    lo = params.byte_floor.ravel()
    raw = rng.bit_generator.random_raw(-(-lo.size // 8)).astype("<u8", copy=False)
    byte = raw.view(np.uint8)[: lo.size]
    cells = np.flatnonzero(byte <= lo)
    boundary = byte[cells] == lo[cells]
    ties = cells[boundary]
    region, col = np.divmod(ties, params.rows.shape[1])
    p = params.rows[params.row_of[region], col]
    keep = ~boundary
    keep[boundary] = rng.random(ties.size) < 256.0 * p - lo[ties]
    return _hit_list(cells[keep], params.byte_floor.shape)


def replicate_rng(master_seed: int, year: int, replicate: int) -> np.random.Generator:
    """Independent RNG substream for replicate k of one year, keyed by (year, k)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(year, replicate))
    return np.random.default_rng(seq)


def null_assist_replicate(
    params_t: BicmParameters,
    params_t_lag: BicmParameters,
    master_seed: int,
    replicate: int,
    draws: dict[int, HitList] | None = None,
) -> AssistMatrix:
    """Assist matrix of null replicate k of one pair: the (year, k) draws of both years.

    `draws` maps a year to its draw for this k; a year missing from it is
    drawn and added, so pairs that share `draws` share each year's one
    draw. The two years must differ, or both halves would be one draw.
    """
    if params_t.year == params_t_lag.year:
        raise ValueError("a pair's two years must differ: null draws are keyed by (year, k)")
    if draws is None:
        draws = {}
    for params in (params_t, params_t_lag):
        if params.year not in draws:
            rng = replicate_rng(master_seed, params.year, replicate)
            draws[params.year] = sample_null_matrix(params, rng)
    return _assist_from_hits(
        params_t.year, params_t_lag.year, params_t.regions, params_t.fields,
        draws[params_t.year], draws[params_t_lag.year],
    )


@dataclass(frozen=True, eq=False)
class PvalueMatrix:
    """Upper-tail link p-values against the null ensemble.

    exceed_counts holds the raw exceedance counts, so downstream significance
    filtering can use the add-one `pvalues` or the plain percentile form
    counts/K. source_active marks fields with positive base ubiquity; rows of
    structurally zero assist values are never testable.
    """

    base_year: int
    fields: tuple[str, ...]
    n_replicates: int
    exceed_counts: np.ndarray
    source_active: np.ndarray

    @property
    def pvalues(self) -> np.ndarray:
        """The add-one form (1 + exceedances) / (K + 1): never zero, a multiple of 1/(K+1)."""
        return (1.0 + self.exceed_counts) / (self.n_replicates + 1.0)


def exceedance_threshold(b_emp: AssistMatrix) -> np.ndarray:
    """The least null value that counts as an exceedance of each empirical cell.

    A null value within R * TIE_RTOL_PER_REGION of the empirical one, relative,
    is a tie: it may be the same exact value reached in another summation
    order. Ties count toward the upper tail, the conservative choice.
    """
    return b_emp.values * (1.0 - TIE_RTOL_PER_REGION * len(b_emp.regions))


@dataclass(frozen=True, eq=False)
class ExceedanceTest:
    """One year pair as the null walk and its p-values read it.

    `threshold` is `exceedance_threshold` of the pair's empirical assist
    values, computed once, so every chunk of the walk shares it and the values
    themselves need not outlive it; `ubiquity` is the base year's, which
    marks the testable sources.
    """

    base_year: int
    lag: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    ubiquity: np.ndarray
    threshold: np.ndarray


def exceedance_test(b_emp: AssistMatrix) -> ExceedanceTest:
    """What the null walk and the p-values need of one empirical assist matrix."""
    return ExceedanceTest(
        b_emp.base_year, b_emp.lag, b_emp.regions, b_emp.fields, b_emp.ubiquity,
        exceedance_threshold(b_emp),
    )


def count_dtype(n_replicates: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every count up to n_replicates."""
    return np.min_scalar_type(n_replicates)


def exceedance_counts(
    fits: Mapping[int, BicmParameters],
    tests: Sequence[ExceedanceTest],
    replicates: Sequence[int],
    master_seed: int,
) -> list[np.ndarray]:
    """Count, per pair and cell, the null replicates in `replicates` reaching the empirical value.

    `fits` maps a year to its fitted parameters. Pair i is `tests[i]`;
    replicate k of it is the assist matrix of the (year, k) draws of its base
    year and of base year + lag, so one draw of a year serves every pair that
    uses the year: a chain of consecutive pairs costs one draw per (year, k),
    not two. For each k the pairs are walked in order and a draw is dropped
    after the last pair that uses it: with pairs in base-year order, at most
    lag + 1 draws are alive. A replicate counts where its value is at least
    the pair's threshold, so an exact tie counts whatever order its terms were
    summed in. The counts are of `count_dtype(len(replicates))`: one byte a
    cell for up to 255 replicates.
    """
    years = [(test.base_year, test.base_year + test.lag) for test in tests]
    for test, pair_years in zip(tests, years):
        if test.lag < 1:
            raise ValueError(f"empirical matrix of lag {test.lag}: a pair needs two years")
        for year in pair_years:
            fit = fits.get(year)
            if fit is None or fit.year != year:
                raise ValueError(f"no null fit of year {year}")
            if fit.regions != test.regions or fit.fields != test.fields:
                raise ValueError("null parameters and empirical matrix differ in index sets")
    retire: list[list[int]] = [[] for _ in tests]  # years whose last use is pair i
    last_use = {year: i for i, pair_years in enumerate(years) for year in pair_years}
    for year, i in last_use.items():
        retire[i].append(year)

    dtype = count_dtype(len(replicates))
    counts = [np.zeros(test.threshold.shape, dtype=dtype) for test in tests]
    for k in replicates:
        draws: dict[int, HitList] = {}
        for i, (year, later) in enumerate(years):
            values = null_assist_replicate(fits[year], fits[later], master_seed, k, draws).values
            counts[i] += values >= tests[i].threshold
            for retired in retire[i]:
                del draws[retired]
    return counts


def pvalues_from_counts(
    test: ExceedanceTest, counts: np.ndarray, n_replicates: int
) -> PvalueMatrix:
    """The add-one p-value matrix of one pair's exceedance counts over K replicates, as int64."""
    if n_replicates < 1:
        raise ValueError("empty null ensemble: n_replicates must be >= 1")
    return PvalueMatrix(
        base_year=test.base_year,
        fields=test.fields,
        n_replicates=n_replicates,
        exceed_counts=counts.astype(np.int64),
        source_active=test.ubiquity > 0,
    )


def pvalues_to_text(p: PvalueMatrix) -> str:
    """Labelled dense count matrix under a meta line of year, K and inactive sources."""
    inactive = "|".join(p.fields[i] for i in np.flatnonzero(~p.source_active))
    meta = {"base_year": p.base_year, "replicates": p.n_replicates, "inactive_sources": inactive}
    return artifacts.dense_to_text(p.fields, p.exceed_counts, meta)


def pvalues_from_text(text: str, *, year: int | None = None) -> PvalueMatrix:
    """The p-value matrix; with `year` given, its base year must be that year."""
    meta, fields, counts = artifacts.dense_from_text(text, int, PvalueError)
    try:
        base_year, n_replicates = int(meta["base_year"]), int(meta["replicates"])
    except KeyError as exc:
        raise PvalueError(f"p-value matrix text lacks {exc.args[0]!r} in its meta line") from None
    except ValueError as exc:
        raise PvalueError(f"p-value matrix meta line: {exc}") from None
    if year is not None and base_year != year:
        raise PvalueError(f"p-value matrix of base year {base_year} where {year} is expected")
    if n_replicates < 1 or counts.min(initial=0) < 0 or counts.max(initial=0) > n_replicates:
        raise PvalueError(f"p-value counts outside [0, {n_replicates}] or no replicates")
    inactive = set(meta.get("inactive_sources", "").split("|"))
    return PvalueMatrix(
        base_year=base_year,
        fields=fields,
        n_replicates=n_replicates,
        exceed_counts=counts,
        source_active=np.array([f not in inactive for f in fields], dtype=bool),
    )
