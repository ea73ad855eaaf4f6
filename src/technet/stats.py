"""Fitness, section-variety, and link-mixing statistics of the decomposed network.

Fitness of a field in a year is the number of distinct active families whose
code set includes the field: unit counts, not weight-split, so a family with
two codes adds one to each field. The variety test asks whether ACS occupancy
across sections is compatible with unbiased sampling without replacement; the
alternative is the multivariate Fisher noncentral hypergeometric family, whose
normalizer is the coefficient of z^n in the product over sections of
(1 + omega_k z)^(size_k). The normalizer is computed by exponential tilting
(Liao & Rosen 2001, Am. Stat. 55:366): the odds are tilted until the expected
draw count is n, and the coefficient is read from a linear-space convolution
of binomial pmfs at their mean, so it stays finite at any spread of odds and
600 fields. Full and empty sections are fitted in their limit, on the reduced
problem of the free sections, so their odds are reported as absent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import expit, gammaincinv, gammaln

from . import artifacts
from .fdr import TechnologyNetwork
from .hierarchy import CodeHierarchy, HierarchyError
from .ingest import EventRecord

CHI2_DF7_CRITICAL_5PCT = 14.07
VARIETY_DF = 7


class StatsError(ValueError):
    """Raised on infeasible counts or unmapped fields."""


# ---------------------------------------------------------------------------
# Fitness
# ---------------------------------------------------------------------------


def family_field_counts(records: Iterable[EventRecord], year: int) -> dict[str, int]:
    """Per-field count of distinct families active in `year` featuring the field."""
    pairs = {(r.family_id, r.code) for r in records if r.year == year}
    return dict(Counter(map(itemgetter(1), pairs)))


def field_counts_to_text(year: int, counts: Mapping[str, int]) -> str:
    """Per-field family counts: year-keyed 'year,field,count' rows sorted by field."""
    return artifacts.year_rows_to_text(year, ((code, str(counts[code])) for code in sorted(counts)))


def field_counts_from_text(text: str, fields: Sequence[str], *, year: int) -> dict[str, int]:
    """Parse a counts file of `year` into a field -> count mapping over `fields`."""
    _year, rows = artifacts.year_rows_from_text(text, 2, year=year, error=StatsError)
    counts = artifacts.scatter(rows, (fields,), [int(c) for _f, c in rows], np.int64, StatsError)
    return dict(zip(fields, counts.tolist()))


@dataclass(frozen=True)
class SubsetFitness:
    subset: str
    n_fields: int
    total: float
    average: float | None
    fitness_share: float | None
    node_share: float


def subset_fitness(
    labels: Mapping[str, str], fitness: Mapping[str, float]
) -> list[SubsetFitness]:
    """Fitness aggregates for core, periphery, the whole ACS, and the rest.

    `labels` maps every field of the network to core, periphery or outside.
    Averages of empty subsets are reported as absent (None), never 0/0; shares
    are normalized by the network total and are absent when that total is 0.
    """
    by_label: dict[str, list[str]] = {"core": [], "periphery": [], "outside": []}
    for code, label in labels.items():
        try:
            by_label[label].append(code)
        except KeyError:
            raise StatsError(f"field {code!r} has unknown label {label!r}") from None
    subsets = {
        "core": by_label["core"],
        "periphery": by_label["periphery"],
        "acs": by_label["core"] + by_label["periphery"],
        "outside": by_label["outside"],
    }
    network_total = float(sum(fitness.get(f, 0) for f in labels))
    n_fields = len(labels)
    rows = []
    for name, members in subsets.items():
        total = float(sum(fitness.get(f, 0) for f in members))
        rows.append(
            SubsetFitness(
                subset=name,
                n_fields=len(members),
                total=total,
                average=total / len(members) if members else None,
                fitness_share=total / network_total if network_total > 0 else None,
                node_share=len(members) / n_fields if n_fields else 0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Section variety: Fisher noncentral hypergeometric likelihood-ratio test
# ---------------------------------------------------------------------------


def _log_binomial_poly(size: int, log_omega: float, max_degree: int) -> np.ndarray:
    """Log coefficients of (1 + omega z)^size, truncated at max_degree."""
    xs = np.arange(0, min(size, max_degree) + 1, dtype=np.float64)
    return gammaln(size + 1) - gammaln(xs + 1) - gammaln(size - xs + 1) + xs * log_omega


def log_fnch_normalizer(sizes: Sequence[int], log_omega: Sequence[float], n: int) -> float:
    """Log of the coefficient of z^n in prod_k (1 + omega_k z)^(size_k).

    Exponential tilting (Liao & Rosen 2001): for any t, the coefficient is
    P(S = n) e^(-nt) prod_k (1 + e^(lo_k + t))^size_k, where S sums independent
    Binomial(size_k, expit(lo_k + t)). The t with E[S] = n puts n at the bulk
    of S, so the linear-space convolution of the binomial pmfs reads P(S = n)
    without underflow whatever the spread of the odds.
    """
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    keep = sizes_arr > 0
    sizes_arr, lo = sizes_arr[keep], np.asarray(log_omega, dtype=np.float64)[keep]
    total = int(sizes_arr.sum())
    if n == 0:
        return 0.0
    if n == total:
        return float(sizes_arr @ lo)
    if n > total:
        return -np.inf
    # outside this bracket E[S] is within e^-1 of 0 or of total, so it spans n
    reach = np.log(total) + 1.0
    t = brentq(lambda t: sizes_arr @ expit(lo + t) - n, -lo.max() - reach, reach - lo.min())
    log_scale = sizes_arr * np.logaddexp(0.0, lo + t)
    pmf = np.ones(1)
    for size, tilted, scale in zip(sizes_arr, lo + t, log_scale):
        pmf = np.convolve(pmf, np.exp(_log_binomial_poly(size, tilted, n) - scale))[: n + 1]
    return float(np.log(pmf[n]) - n * t + log_scale.sum())


def fnch_loglik(
    counts: Sequence[int], sizes: Sequence[int], log_omega: Sequence[float]
) -> float:
    """Log-likelihood of one composition under the noncentral hypergeometric."""
    counts = np.asarray(counts, dtype=np.float64)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    lo = np.asarray(log_omega, dtype=np.float64)
    n = int(counts.sum())
    log_terms = (
        gammaln(sizes_arr + 1)
        - gammaln(counts + 1)
        - gammaln(sizes_arr - counts + 1)
        + counts * lo
    )
    return float(log_terms.sum() - log_fnch_normalizer(sizes, lo, n))


@dataclass(frozen=True)
class FnchFit:
    omega: tuple[float | None, ...]
    loglik: float
    boundary: bool


def fit_noncentral_weights(counts: Sequence[int], sizes: Sequence[int]) -> FnchFit:
    """Maximum-likelihood odds of the noncentral hypergeometric alternative.

    A section is free when 0 < count < size. On a boundary composition, where
    some section is full or empty, the supremum is the limit of those odds at
    infinity or 0, and equals the likelihood of the free sections alone with
    the full sections' draws removed: an exponential family's MLE exists
    exactly inside its convex support (Barndorff-Nielsen 1978). So the fit
    runs on the free sections, with the first one's odds fixed to 1 (the
    likelihood only identifies ratios), and its MLE is finite. The other
    sections' odds are not identified and are None. With fewer than two free
    sections nothing is fitted and the supremum log-likelihood is 0.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if counts.shape != sizes.shape or counts.ndim != 1 or not counts.size:
        raise StatsError("counts and sizes must be equal-length and nonempty")
    for c, s in zip(counts, sizes):
        if not 0 <= c <= s:
            raise StatsError(f"infeasible count {c} for section size {s}")
    free = (counts > 0) & (counts < sizes)
    free_counts, free_sizes = counts[free], sizes[free]
    theta, loglik = np.zeros(1), 0.0
    if free.sum() > 1:

        def negloglik(theta_rest: np.ndarray) -> float:
            return -fnch_loglik(free_counts, free_sizes, np.concatenate(([0.0], theta_rest)))

        res = minimize(
            negloglik,
            x0=np.zeros(free.sum() - 1),
            method="L-BFGS-B",
            options={"ftol": 1e-12, "gtol": 1e-9, "maxiter": 1000},
        )
        theta, loglik = np.concatenate(([0.0], res.x)), -float(res.fun)
    odds = iter(np.exp(theta).tolist())
    omega = tuple(next(odds) if f else None for f in free)
    return FnchFit(omega=omega, loglik=loglik, boundary=not free.all())


@dataclass(frozen=True)
class VarietyTestResult:
    omega: tuple[float | None, ...]
    llr: float
    df: int
    critical_value: float
    significant: bool
    applicable: bool
    boundary: bool


def variety_llr(counts: Sequence[int], sizes: Sequence[int]) -> VarietyTestResult:
    """Log-likelihood ratio test of biased vs unbiased section occupancy.

    G = 2[l(omega_hat) - l(1)], asymptotically chi-square with one degree of
    freedom fewer than the section count; at 8 sections df = 7 and the 5%
    critical value is 14.07. `boundary` flags a full or empty section, where
    the fitted odds lie at the edge of the parameter space. An empty ACS
    yields a not-applicable marker.
    """
    df = len(sizes) - 1
    # 2 * gammaincinv(df / 2, 0.95) is the chi-square 95% quantile, the value
    # scipy.stats.chi2.ppf computes, without importing scipy.stats
    critical = (
        CHI2_DF7_CRITICAL_5PCT if df == VARIETY_DF else float(2.0 * gammaincinv(df / 2, 0.95))
    )
    fit = fit_noncentral_weights(counts, sizes)
    applicable = bool(sum(counts) > 0)
    g = float("nan")
    if applicable:
        g = max(2.0 * (fit.loglik - fnch_loglik(counts, sizes, np.zeros(len(sizes)))), 0.0)
    return VarietyTestResult(
        omega=fit.omega,
        llr=g,
        df=df,
        critical_value=critical,
        significant=applicable and g > critical,
        applicable=applicable,
        boundary=fit.boundary,
    )


def acs_section_counts(
    labels: Mapping[str, str], hierarchy: CodeHierarchy
) -> tuple[tuple[str, ...], list[int], list[int]]:
    """Per-section (counts inside the ACS, total sizes) over the labelled fields."""
    sections = hierarchy.sections
    index = {s: i for i, s in enumerate(sections)}
    sizes = [0] * len(sections)
    counts = [0] * len(sections)
    for code, label in labels.items():
        try:
            section = hierarchy.section_of(code)
        except HierarchyError:
            raise StatsError(f"field {code!r} does not map to a section") from None
        sizes[index[section]] += 1
        if label in ("core", "periphery"):
            counts[index[section]] += 1
    return sections, counts, sizes


# ---------------------------------------------------------------------------
# Within/between-section links and occupancy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingCounts:
    year: int
    within: int
    between: int

    @property
    def total(self) -> int:
        return self.within + self.between


def section_mixing(net: TechnologyNetwork, hierarchy: CodeHierarchy) -> MixingCounts:
    """Classify every directed link as within- or between-section."""
    section_of = {}
    for code in net.fields:
        try:
            section_of[code] = hierarchy.section_of(code)
        except HierarchyError:
            raise StatsError(f"field {code!r} does not map to a section") from None
    within = between = 0
    for src, dst in net.edges():
        if section_of[src] == section_of[dst]:
            within += 1
        else:
            between += 1
    return MixingCounts(year=net.year, within=within, between=between)


def ordered_adjacency_text(net: TechnologyNetwork, hierarchy: CodeHierarchy) -> tuple[str, str]:
    """Dense 0/1 adjacency grid in lexicographic code order, plus section bounds.

    Lexicographic order groups codes of a section into one contiguous block,
    so heatmaps show within-section links on the diagonal blocks.
    """
    order = sorted(range(len(net.fields)), key=lambda i: net.fields[i])
    codes = [net.fields[i] for i in order]
    grid = net.adjacency[np.ix_(order, order)]
    bounds = [("section", "start", "end")]
    start = 0
    for i in range(1, len(codes) + 1):
        if i == len(codes) or hierarchy.section_of(codes[i]) != hierarchy.section_of(codes[start]):
            bounds.append((hierarchy.section_of(codes[start]), start, i))
            start = i
    return artifacts.dense_to_text(codes, grid), artifacts.rows_to_text(bounds)


@dataclass(frozen=True)
class SectionOccupancy:
    section: str
    size: int
    n_in_acs: int
    acs_fraction: float | None
    share_of_acs: float | None
    share_of_outside: float | None


def section_occupancy(
    labels: Mapping[str, str], hierarchy: CodeHierarchy
) -> list[SectionOccupancy]:
    """Per-section ACS occupancy ratios; empty denominators are absent."""
    sections, counts, sizes = acs_section_counts(labels, hierarchy)
    n_acs = sum(counts)
    n_outside = sum(sizes) - n_acs
    rows = []
    for section, count, size in zip(sections, counts, sizes):
        rows.append(
            SectionOccupancy(
                section=section,
                size=size,
                n_in_acs=count,
                acs_fraction=count / size if size else None,
                share_of_acs=count / n_acs if n_acs else None,
                share_of_outside=(size - count) / n_outside if n_outside else None,
            )
        )
    return rows
