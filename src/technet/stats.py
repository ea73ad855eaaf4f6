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

The fit is Newton's method on the exact score and Hessian. The score of a
section's log odds is its count minus its conditional mean given n draws, and
the Hessian is minus the conditional covariance; both are read from the same
tilted binomial pmfs, through leave-one-out and leave-two-out products. The
log-likelihood is concave in the log odds, so a backtracking line search
keeps every step uphill. The module needs numpy and the standard library
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .fdr import TechnologyNetwork
from .hierarchy import CodeHierarchy, HierarchyError
from .ingest import ParseResult

CHI2_DF7_CRITICAL_5PCT = 14.07
VARIETY_DF = 7
# The tilt solve stops once a step moves t by less than this; any t gives the
# exact normalizer, so this only keeps n at the bulk of S.
TILT_XTOL = 1e-12
TILT_MAX_STEPS = 200
# The odds fit stops once every score entry is at most FIT_SCORE_RTOL * n, or
# once FIT_MAX_HALVINGS halvings of a Newton step find no rise of the
# log-likelihood; a fit still short after FIT_MAX_STEPS steps is an error.
FIT_SCORE_RTOL = 1e-8
FIT_MAX_STEPS = 100
FIT_MAX_HALVINGS = 40
FIT_ARMIJO = 1e-4


class StatsError(ValueError):
    """Raised on infeasible counts or unmapped fields."""


class FnchConvergenceError(RuntimeError):
    """The odds fit ran out of Newton steps before its score fell below tolerance."""

    def __init__(self, steps: int, score: np.ndarray):
        super().__init__(
            f"odds fit still has score {np.abs(score).max():.3e} after {steps} Newton steps"
        )
        self.steps = steps
        self.score = score


# ---------------------------------------------------------------------------
# Fitness
# ---------------------------------------------------------------------------


def family_field_counts(events: ParseResult, year: int) -> dict[str, int]:
    """Per-field count of distinct families active in `year` featuring the field."""
    pairs = np.unique((events.family * len(events.codes) + events.code)[events.year == year])
    counts = np.bincount(pairs % len(events.codes), minlength=len(events.codes))
    return {events.codes[c]: int(counts[c]) for c in np.flatnonzero(counts).tolist()}


def field_counts_to_text(year: int, counts: Mapping[str, int]) -> str:
    """Per-field family counts: year-keyed 'year,field,count' rows sorted by field."""
    return artifacts.year_rows_to_text(year, ((code, str(counts[code])) for code in sorted(counts)))


def field_counts_from_text(text: str, fields: Sequence[str], *, year: int) -> dict[str, int]:
    """Parse a counts file of `year` into a field -> count mapping over `fields`."""
    _year, counts = artifacts.year_matrix_from_text(text, (fields,), np.int64, year=year, cast=int)
    if counts.min(initial=0) < 0:
        raise artifacts.ArtifactError("family counts must be nonnegative")
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


def _tilted_pmfs(sizes: np.ndarray, lo: np.ndarray, n: int) -> tuple[list[np.ndarray], float]:
    """Binomial(size_k, expit(lo_k + t)) pmfs at the tilt t with E[S] = n, and the log untilt.

    The pmfs are truncated at degree n. The coefficient of z^n in
    prod_k (1 + e^lo_k z)^size_k is P(S = n) times e^(log untilt). Sizes are
    positive and 0 < n < sum(sizes). t solves sum_k size_k p_k(t) = n by
    Newton's method, whose slope sum_k size_k p_k (1 - p_k) is positive,
    falling back to bisection when a step leaves the bracket; outside the
    bracket E[S] is within e^-1 of 0 or of the total, so it spans n.
    """
    reach = np.log(sizes.sum()) + 1.0
    low, high = -lo.max() - reach, reach - lo.min()
    t = 0.5 * (low + high)
    for _ in range(TILT_MAX_STEPS):
        p = np.exp(-np.logaddexp(0.0, -(lo + t)))  # expit, in a form that cannot overflow
        excess = float(sizes @ p) - n
        if excess > 0.0:
            high = t
        else:
            low = t
        slope = float(sizes @ (p * (1.0 - p)))
        stepped = 0.5 * (low + high)
        if slope > 0.0 and low < t - excess / slope < high:
            stepped = t - excess / slope
        if abs(stepped - t) <= TILT_XTOL:
            break
        t = stepped
    tilted = lo + t
    log_scale = sizes * np.logaddexp(0.0, tilted)
    log_fact = np.array([math.lgamma(k + 1) for k in range(int(sizes.max()) + 1)])
    pmfs = []
    for size, x, scale in zip(sizes.tolist(), tilted.tolist(), log_scale.tolist()):
        ks = np.arange(min(size, n) + 1)
        log_choose = log_fact[size] - log_fact[ks] - log_fact[size - ks]
        pmfs.append(np.exp(log_choose + ks * x - scale))
    return pmfs, float(log_scale.sum() - n * t)


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
    pmfs, log_untilt = _tilted_pmfs(sizes_arr, lo, n)
    pmf = np.ones(1)
    for section in pmfs:
        pmf = np.convolve(pmf, section)[: n + 1]
    return float(np.log(pmf[n]) + log_untilt)


def fnch_loglik(
    counts: Sequence[int], sizes: Sequence[int], log_omega: Sequence[float]
) -> float:
    """Log-likelihood of one composition under the noncentral hypergeometric."""
    counts = [int(c) for c in counts]
    sizes_list = [int(s) for s in sizes]
    lo = np.asarray(log_omega, dtype=np.float64)
    log_choose = sum(
        math.lgamma(s + 1) - math.lgamma(c + 1) - math.lgamma(s - c + 1)
        for c, s in zip(counts, sizes_list)
    )
    return float(log_choose + np.asarray(counts, dtype=np.float64) @ lo
                 - log_fnch_normalizer(sizes_list, lo, sum(counts)))


def _coefficient(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """The coefficient of z^n in the product of the polynomials a and b."""
    first, last = max(0, n - len(b) + 1), min(len(a) - 1, n)
    return float(a[first : last + 1] @ b[n - last : n - first + 1][::-1])


def _conditional_moments(
    sizes: np.ndarray, lo: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the section counts X given S = n, at log odds lo.

    With f_k the tilted pmfs, prefix products P_k = f_0 .. f_(k-1) and suffix
    products Q_k = f_k .. f_(K-1), the coefficient of z^n in P_k (j f_k) Q_(k+1)
    is E[X_k; S = n] (leave-one-out), with (j^2 f_k) it is E[X_k^2; S = n], and
    in P_k (j f_k) f_(k+1) .. f_(l-1) (j f_l) Q_(l+1) it is E[X_k X_l; S = n]
    (leave-two-out). Each is divided by P(S = n), the coefficient of P_K.
    """
    pmfs, _log_untilt = _tilted_pmfs(sizes, lo, n)
    k = len(pmfs)
    prefix, suffix = [np.ones(1)], [np.ones(1)]
    for section in pmfs:
        prefix.append(np.convolve(prefix[-1], section)[: n + 1])
    for section in reversed(pmfs):
        suffix.append(np.convolve(section, suffix[-1])[: n + 1])
    suffix.reverse()
    p_n = prefix[k][n]
    mean, second = np.empty(k), np.empty((k, k))
    for a, section in enumerate(pmfs):
        draws = np.arange(len(section))
        ahead = np.convolve(prefix[a], draws * section)[: n + 1]
        mean[a] = _coefficient(ahead, suffix[a + 1], n) / p_n
        squared = np.convolve(prefix[a], draws**2 * section)[: n + 1]
        second[a, a] = _coefficient(squared, suffix[a + 1], n) / p_n
        for b in range(a + 1, k):
            other = pmfs[b]
            both = np.convolve(ahead, np.arange(len(other)) * other)[: n + 1]
            second[a, b] = second[b, a] = _coefficient(both, suffix[b + 1], n) / p_n
            ahead = np.convolve(ahead, other)[: n + 1]
    return mean, second - np.outer(mean, mean)


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
    theta, loglik = np.zeros(1), 0.0
    if free.sum() > 1:
        theta, loglik = _newton_fit(counts[free], sizes[free])
    odds = iter(np.exp(theta).tolist())
    omega = tuple(next(odds) if f else None for f in free)
    return FnchFit(omega=omega, loglik=loglik, boundary=not free.all())


def _newton_fit(counts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float]:
    """Log odds, the first fixed at 0, and log-likelihood at the MLE of a free composition.

    Each step solves Cov(X | S = n) d = score over the other sections and
    halves d until the log-likelihood rises by an Armijo fraction of the
    predicted rise.
    """
    n = int(counts.sum())
    theta = np.zeros(len(counts))
    loglik = fnch_loglik(counts, sizes, theta)
    for steps in range(FIT_MAX_STEPS + 1):
        mean, cov = _conditional_moments(sizes, theta, n)
        score = (counts - mean)[1:]
        if np.abs(score).max() <= FIT_SCORE_RTOL * n:
            break
        if steps == FIT_MAX_STEPS:
            raise FnchConvergenceError(steps, score)
        direction = np.linalg.solve(cov[1:, 1:], score)
        rise = float(score @ direction)
        for halving in range(FIT_MAX_HALVINGS):
            trial = theta.copy()
            trial[1:] += 0.5**halving * direction
            trial_loglik = fnch_loglik(counts, sizes, trial)
            if trial_loglik - loglik > FIT_ARMIJO * 0.5**halving * rise:
                break
        else:
            break  # no step raises the log-likelihood any more
        theta, loglik = trial, trial_loglik
    return theta, loglik


@dataclass(frozen=True)
class VarietyTestResult:
    omega: tuple[float | None, ...]
    llr: float
    df: int
    critical_value: float
    significant: bool
    applicable: bool
    boundary: bool


def _chi2_survival(x: float, df: int) -> float:
    """P(chi-square with integer df > x), in closed form.

    Even df: e^(-x/2) sum_(i < df/2) (x/2)^i / i!. Odd df: erfc(sqrt(x/2))
    plus e^(-x/2) sum_(i = 1 .. (df-1)/2) (x/2)^(i - 1/2) / Gamma(i + 1/2).
    Every term is positive, so the sum loses nothing to cancellation.
    """
    half = x / 2.0
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return math.exp(-half) * total
    term, total = 2.0 * math.sqrt(half / math.pi), 0.0  # (x/2)^(1/2) / Gamma(3/2)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= half / (i + 0.5)
    return math.erfc(math.sqrt(half)) + math.exp(-half) * total


def chi2_quantile_95(df: int) -> float:
    """The 95% quantile of chi-square with integer df >= 1 (NaN below), by bisection."""
    if df < 1:
        return float("nan")
    low, high = 0.0, float(df) + 10.0
    while _chi2_survival(high, df) > 0.05:
        low, high = high, 2.0 * high
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return high
        if _chi2_survival(mid, df) > 0.05:
            low = mid
        else:
            high = mid


def variety_llr(counts: Sequence[int], sizes: Sequence[int]) -> VarietyTestResult:
    """Log-likelihood ratio test of biased vs unbiased section occupancy.

    G = 2[l(omega_hat) - l(1)], asymptotically chi-square with one degree of
    freedom fewer than the section count; at 8 sections df = 7 and the 5%
    critical value is 14.07. `boundary` flags a full or empty section, where
    the fitted odds lie at the edge of the parameter space. An empty ACS
    yields a not-applicable marker.
    """
    df = len(sizes) - 1
    critical = CHI2_DF7_CRITICAL_5PCT if df == VARIETY_DF else chi2_quantile_95(df)
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
