"""Fitness, section-variety, and link-mixing statistics of the decomposed network.

Fitness of a field in a year is the number of distinct active families whose
code set includes the field: unit counts, not weight-split, so a family with
two codes adds one to each field. The variety test asks whether ACS occupancy
across sections is compatible with unbiased sampling without replacement; the
alternative is the multivariate Fisher noncentral hypergeometric family, whose
normalizer is the coefficient of z^n in the product over sections of
(1 + omega_k z)^(size_k). All likelihood work happens on log coefficients so
clamped odds cannot overflow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaincinv, gammaln

from . import artifacts
from .fdr import TechnologyNetwork
from .hierarchy import CodeHierarchy, HierarchyError
from .ingest import EventRecord

CHI2_DF7_CRITICAL_5PCT = 14.07
VARIETY_DF = 7
ODDS_CLAMP = (1e-6, 1e6)


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

_NEG_INF = -np.inf
_FAST_RANGE = 600.0  # safe dynamic range for linear-space convolution


def _log_binomial_poly(size: int, log_omega: float, max_degree: int) -> np.ndarray:
    """Log coefficients of (1 + omega z)^size, truncated at max_degree."""
    xs = np.arange(0, min(size, max_degree) + 1, dtype=np.float64)
    return gammaln(size + 1) - gammaln(xs + 1) - gammaln(size - xs + 1) + xs * log_omega


def _log_polymul(la: np.ndarray, lb: np.ndarray, max_degree: int) -> np.ndarray:
    """Convolution of log-coefficient arrays, truncated at max_degree."""
    la = la[: max_degree + 1]
    lb = lb[: max_degree + 1]
    out_len = min(len(la) + len(lb) - 1, max_degree + 1)
    finite_a = la[np.isfinite(la)]
    finite_b = lb[np.isfinite(lb)]
    if finite_a.size == 0 or finite_b.size == 0:
        return np.full(out_len, _NEG_INF)
    sa, sb = finite_a.max(), finite_b.max()
    if (sa - finite_a.min()) < _FAST_RANGE and (sb - finite_b.min()) < _FAST_RANGE:
        conv = np.convolve(np.exp(la - sa), np.exp(lb - sb))[:out_len]
        with np.errstate(divide="ignore"):
            return np.where(conv > 0.0, np.log(conv) + sa + sb, _NEG_INF)
    # wide dynamic range: per-output-degree max shift
    mx = np.full(out_len, _NEG_INF)
    for i in range(len(la)):
        if la[i] == _NEG_INF or i >= out_len:
            continue
        end = min(i + len(lb), out_len)
        np.maximum(mx[i:end], la[i] + lb[: end - i], out=mx[i:end])
    mx_safe = np.where(np.isfinite(mx), mx, 0.0)
    acc = np.zeros(out_len)
    for i in range(len(la)):
        if la[i] == _NEG_INF or i >= out_len:
            continue
        end = min(i + len(lb), out_len)
        acc[i:end] += np.exp(la[i] + lb[: end - i] - mx_safe[i:end])
    with np.errstate(divide="ignore"):
        return np.where(acc > 0.0, mx_safe + np.log(acc), _NEG_INF)


def log_fnch_normalizer(sizes: Sequence[int], log_omega: Sequence[float], n: int) -> float:
    """Log of the coefficient of z^n in prod_k (1 + omega_k z)^(size_k)."""
    poly = np.zeros(1)
    for size, lo in zip(sizes, log_omega):
        poly = _log_polymul(poly, _log_binomial_poly(int(size), float(lo), n), n)
    if n >= len(poly):
        return _NEG_INF
    return float(poly[n])


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
    omega: tuple[float, ...]
    loglik: float
    clamped: bool


def fit_noncentral_weights(
    counts: Sequence[int],
    sizes: Sequence[int],
    n: int | None = None,
    *,
    tol: float = 1e-8,
) -> FnchFit:
    """Maximum-likelihood odds of the noncentral hypergeometric alternative.

    The first section's odds are fixed to 1 (the likelihood only identifies
    ratios); the remaining log-odds are optimized within the clamp bounds.
    Boundary compositions (a count of 0 or a full section) push odds onto a
    clamp, which is flagged rather than an error.
    """
    counts = [int(c) for c in counts]
    sizes = [int(s) for s in sizes]
    if len(counts) != len(sizes) or not counts:
        raise StatsError("counts and sizes must be equal-length and nonempty")
    for c, s in zip(counts, sizes):
        if s < 0 or not 0 <= c <= s:
            raise StatsError(f"infeasible count {c} for section size {s}")
    total = sum(counts)
    if n is None:
        n = total
    elif n != total:
        raise StatsError(f"counts sum to {total}, expected draw count {n}")

    k = len(sizes)
    if k == 1 or n == 0 or n == sum(sizes):
        # no free parameters, or a degenerate composition: the likelihood is
        # flat in omega, so the null odds are already maximal
        lo = np.zeros(k)
        return FnchFit(omega=(1.0,) * k, loglik=fnch_loglik(counts, sizes, lo), clamped=False)

    lo_bound, hi_bound = np.log(ODDS_CLAMP[0]), np.log(ODDS_CLAMP[1])

    def negloglik(theta_free: np.ndarray) -> float:
        lo = np.concatenate(([0.0], theta_free))
        return -fnch_loglik(counts, sizes, lo)

    res = minimize(
        negloglik,
        x0=np.zeros(k - 1),
        method="L-BFGS-B",
        bounds=[(lo_bound, hi_bound)] * (k - 1),
        options={"ftol": tol * 1e-4, "gtol": 1e-9, "maxiter": 1000},
    )
    theta = np.concatenate(([0.0], res.x))
    clamped = bool(np.any(res.x <= lo_bound + 1e-9) or np.any(res.x >= hi_bound - 1e-9))
    return FnchFit(omega=tuple(np.exp(theta).tolist()), loglik=-float(res.fun), clamped=clamped)


@dataclass(frozen=True)
class VarietyTestResult:
    year: int | None
    sections: tuple[str, ...]
    counts: tuple[int, ...]
    sizes: tuple[int, ...]
    omega: tuple[float, ...]
    llr: float
    df: int
    critical_value: float
    significant: bool
    applicable: bool
    clamped: bool


def variety_llr(
    counts: Sequence[int],
    sizes: Sequence[int],
    n: int | None = None,
    *,
    sections: Sequence[str] | None = None,
    year: int | None = None,
) -> VarietyTestResult:
    """Log-likelihood ratio test of biased vs unbiased section occupancy.

    G = 2[l(omega_hat) - l(1)], asymptotically chi-square with one degree of
    freedom fewer than the section count; at 8 sections df = 7 and the 5%
    critical value is 14.07. An empty ACS yields a not-applicable marker.
    """
    counts = [int(c) for c in counts]
    sizes = [int(s) for s in sizes]
    if sections is None:
        sections = tuple(f"S{i}" for i in range(len(sizes)))
    df = len(sizes) - 1
    # 2 * gammaincinv(df / 2, 0.95) is the chi-square 95% quantile, the value
    # scipy.stats.chi2.ppf computes, without importing scipy.stats
    critical = (
        CHI2_DF7_CRITICAL_5PCT if df == VARIETY_DF else float(2.0 * gammaincinv(df / 2, 0.95))
    )
    total = sum(counts)
    if n is None:
        n = total
    if n == 0:
        return VarietyTestResult(
            year=year,
            sections=tuple(sections),
            counts=tuple(counts),
            sizes=tuple(sizes),
            omega=(1.0,) * len(sizes),
            llr=float("nan"),
            df=df,
            critical_value=critical,
            significant=False,
            applicable=False,
            clamped=False,
        )
    fit = fit_noncentral_weights(counts, sizes, n)
    loglik_null = fnch_loglik(counts, sizes, np.zeros(len(sizes)))
    g = max(2.0 * (fit.loglik - loglik_null), 0.0)
    return VarietyTestResult(
        year=year,
        sections=tuple(sections),
        counts=tuple(counts),
        sizes=tuple(sizes),
        omega=fit.omega,
        llr=g,
        df=df,
        critical_value=critical,
        significant=g > critical,
        applicable=True,
        clamped=fit.clamped,
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
