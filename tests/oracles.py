"""Independent oracles used by the test suite.

Every oracle here is implemented by a different route than the package code
it checks: explicit walk enumeration instead of matrix algebra, boolean matrix
powers, and scipy's csgraph strong components and breadth-first order,
instead of Tarjan and core grouping, Taylor-series matrix exponentials
instead of RK4, the quadratic step-up definition instead of the sort-scan,
brute-force composition enumeration instead of polynomial convolution, a
row-by-row peel and a full-matrix fixed point instead of the degree-class BiCM
fit, and a plain per-pair replicate loop, drawing cell by cell, over dense
GEMMs instead of the vectorized byte-threshold sampler, the shared-draw walk
over year pairs and its hit-list join, and a per-record dict loop and set
instead of the columnar ingest's bincounts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import numpy as np

from technet.nullmodel import TIE_RTOL_PER_REGION


def walk_assist_exact(m1: np.ndarray, m2: np.ndarray) -> list[list[Fraction]]:
    """Tripartite walk enumeration with exact rational arithmetic.

    A walk starts at field i, moves to one of the regions presenting i at the
    base year (uniformly), then to one of that region's later fields
    (uniformly). Entry (i, j) is the total probability of ending at j.
    """
    n_regions, n_fields = m1.shape
    later_degree = [int(m2[r].sum()) for r in range(n_regions)]
    out = [[Fraction(0) for _ in range(n_fields)] for _ in range(n_fields)]
    for i in range(n_fields):
        presenting = [r for r in range(n_regions) if m1[r, i]]
        if not presenting:
            continue
        for r in presenting:
            if later_degree[r] == 0:
                continue
            step = Fraction(1, len(presenting)) * Fraction(1, later_degree[r])
            for j in range(n_fields):
                if m2[r, j]:
                    out[i][j] += step
    return out


def walk_assist_float(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Float version of the walk enumeration, for exhaustive sweeps."""
    n_regions, n_fields = m1.shape
    later_degree = m2.sum(axis=1)
    out = np.zeros((n_fields, n_fields))
    for i in range(n_fields):
        presenting = np.nonzero(m1[:, i])[0]
        if presenting.size == 0:
            continue
        for r in presenting:
            if later_degree[r] == 0:
                continue
            step = (1.0 / presenting.size) * (1.0 / later_degree[r])
            for j in np.nonzero(m2[r])[0]:
                out[i, j] += step
    return out


def has_cycle_bool_powers(adjacency: np.ndarray) -> bool:
    """A directed cycle exists iff some boolean power has a nonzero diagonal."""
    n = adjacency.shape[0]
    a = adjacency.astype(bool)
    power = a.copy()
    for _ in range(n):
        if power.diagonal().any():
            return True
        power = power @ a
    return False


def cycle_nodes_bool_powers(adjacency: np.ndarray) -> set[int]:
    """Nodes lying on at least one directed cycle, via boolean powers."""
    n = adjacency.shape[0]
    a = adjacency.astype(bool)
    on_cycle: set[int] = set()
    power = a.copy()
    for _ in range(n):
        on_cycle.update(np.nonzero(power.diagonal())[0].tolist())
        power = power @ a
    return on_cycle


def reachable_bool_powers(adjacency: np.ndarray, sources: set[int]) -> set[int]:
    """All nodes reachable from the sources by directed paths (>= 1 edge)."""
    n = adjacency.shape[0]
    a = adjacency.astype(bool)
    frontier = np.zeros(n, dtype=bool)
    frontier[list(sources)] = True
    reached = np.zeros(n, dtype=bool)
    for _ in range(n):
        frontier = frontier @ a
        new = frontier & ~reached
        if not new.any():
            break
        reached |= new
    return set(np.nonzero(reached)[0].tolist())


def acs_groups_bool_powers(adjacency: np.ndarray) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Distinct ACSs as (core, periphery) index sets, via boolean powers.

    Cycle nodes linked by a directed path in either direction share an ACS
    (two nodes of one cycle core reach each other); each ACS also holds every
    non-cycle node that its cycle nodes reach.
    """
    on_cycle = cycle_nodes_bool_powers(adjacency)
    reach = {v: reachable_bool_powers(adjacency, {v}) for v in on_cycle}
    groups: list[set[int]] = []
    for v in sorted(on_cycle):
        linked = [g for g in groups if any(u in reach[v] or v in reach[u] for u in g)]
        groups = [g for g in groups if g not in linked] + [{v}.union(*linked)]
    return {
        (frozenset(g), frozenset(set().union(*(reach[v] for v in g)) - on_cycle))
        for g in groups
    }


def acs_groups_scipy_csgraph(
    adjacency: np.ndarray,
) -> tuple[list[frozenset[int]], set[tuple[frozenset[int], frozenset[int]]]]:
    """Cycle cores and distinct ACSs as index sets, via scipy.sparse.csgraph.

    The cores are the strong components of two or more nodes or with a
    self-loop; each core's reach is one breadth-first order from one of its
    nodes, and the undirected components of the cores' reach relation group
    them.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    graph = csr_matrix(adjacency)
    n_sccs, scc = connected_components(graph, connection="strong")
    cyclic = np.bincount(scc, minlength=n_sccs) >= 2
    cyclic[scc[adjacency.diagonal() != 0]] = True
    cores = [np.flatnonzero(scc == c) for c in np.flatnonzero(cyclic)]
    if not cores:
        return [], set()
    reach = [set(breadth_first_order(graph, c[0], return_predecessors=False).tolist())
             for c in cores]
    linked = np.array([[c[0] in r for c in cores] for r in reach], dtype=bool)
    n_groups, group = connected_components(csr_matrix(linked), directed=False)
    in_core = set(np.concatenate(cores).tolist())
    groups = set()
    for g in range(n_groups):
        members = np.flatnonzero(group == g)
        core = frozenset(i for a in members for i in cores[a].tolist())
        groups.add((core, frozenset(set().union(*(reach[a] for a in members)) - in_core)))
    return [frozenset(c.tolist()) for c in cores], groups


def bh_stepup_bruteforce(pvalues: list[float], q: float) -> set[int]:
    """Quadratic step-up: reject H_(i) iff some rank k >= i has p_(k) <= kq/m."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    rejected: set[int] = set()
    for pos, idx in enumerate(order):
        ok = False
        for k in range(pos + 1, m + 1):
            if pvalues[order[k - 1]] <= k * q / m:
                ok = True
                break
        if ok:
            rejected.add(idx)
    return rejected


def taylor_expm(a: np.ndarray, t: float) -> np.ndarray:
    """exp(a t) by scaled Taylor series with repeated squaring."""
    at = np.asarray(a, dtype=np.float64) * t
    n = at.shape[0]
    norm = float(np.abs(at).sum(axis=1).max()) if n else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm)))) if norm > 1.0 else 0
    scaled = at / (2.0 ** squarings)
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 60):
        term = term @ scaled / k
        total = total + term
        if np.abs(term).max() <= 1e-22 * max(1.0, np.abs(total).max()):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def fnch_normalizer_bruteforce(sizes: list[int], omegas: list[float], n: int) -> float:
    """Sum of prod_k C(m_k, x_k) omega_k^x_k over all compositions with sum n."""
    total = 0.0
    k_max = len(sizes)

    def recurse(k: int, remaining: int, acc: float) -> None:
        nonlocal total
        if k == k_max:
            if remaining == 0:
                total += acc
            return
        if remaining > sum(sizes[k:]):
            return
        for x in range(0, min(sizes[k], remaining) + 1):
            recurse(k + 1, remaining - x, acc * math.comb(sizes[k], x) * omegas[k] ** x)

    recurse(0, n, 1.0)
    return total


def log_fnch_normalizer_logspace(sizes: list[int], log_omegas: list[float], n: int) -> float:
    """Log of the coefficient of z^n in prod_k (1 + omega_k z)^size_k, all in logs.

    Multiplies the factors one by one as log-coefficient arrays, truncated at
    degree n, and adds products with np.logaddexp, so no intermediate value
    can underflow or overflow at any scale of sizes or odds.
    """
    poly = np.zeros(1)
    for size, lo in zip(sizes, log_omegas):
        factor = [
            math.lgamma(size + 1) - math.lgamma(x + 1) - math.lgamma(size - x + 1) + x * lo
            for x in range(min(size, n) + 1)
        ]
        out = np.full(min(len(poly) + len(factor) - 1, n + 1), -np.inf)
        for x, log_c in enumerate(factor):
            end = min(x + len(poly), len(out))
            out[x:end] = np.logaddexp(out[x:end], poly[: end - x] + log_c)
        poly = out
    return float(poly[n]) if n < len(poly) else -math.inf


def fnch_loglik_bruteforce(counts: list[int], sizes: list[int], omegas: list[float]) -> float:
    n = sum(counts)
    num = 1.0
    for c, s, w in zip(counts, sizes, omegas):
        num *= math.comb(s, c) * w ** c
    return math.log(num) - math.log(fnch_normalizer_bruteforce(sizes, omegas, n))


def bicm_fit_full_matrix(
    presence: np.ndarray, tol: float = 1e-8, max_iter: int = 10_000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BiCM link probabilities and multipliers by iterating on every cell.

    Forced rows and columns are peeled one at a time; the interior fixed point
    then runs over the full region x field block, one multiplier per row and
    column, without grouping equal degrees. Returns (p, x, y), with NaN
    multipliers on forced rows and columns.
    """
    presence = np.asarray(presence, dtype=np.float64)
    n_regions, n_fields = presence.shape
    p = np.zeros((n_regions, n_fields))
    active_r = np.ones(n_regions, dtype=bool)
    active_f = np.ones(n_fields, dtype=bool)
    row_target = presence.sum(axis=1)
    col_target = presence.sum(axis=0)
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
        xs = dt / np.sqrt(dt.sum())
        ys = ut / np.sqrt(dt.sum())
        for _ in range(max_iter):
            xs = dt / (ys[None, :] / (1.0 + np.outer(xs, ys))).sum(axis=1)
            ys = ut / (xs[:, None] / (1.0 + np.outer(xs, ys))).sum(axis=0)
            xy = np.outer(xs, ys)
            block = xy / (1.0 + xy)
            res = max(np.abs(block.sum(axis=1) - dt).max(), np.abs(block.sum(axis=0) - ut).max())
            if res <= tol:
                break
        else:
            raise RuntimeError(f"full-matrix BiCM fit did not converge (residual {res:.3e})")
        p[np.ix_(ar, af)] = block
        x[ar] = xs
        y[af] = ys
    return p, x, y


def stream_bytes(rng: np.random.Generator, n: int) -> bytes:
    """The first n bytes of rng's raw 64-bit outputs, each written little-endian."""
    raw = rng.bit_generator.random_raw(math.ceil(n / 8))
    return b"".join(int(word).to_bytes(8, "little") for word in raw)[:n]


def bernoulli_draw_by_loop(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Bernoulli matrix by a plain loop: cell i is present when (c_i + v_i) / 256 < p_i.

    c_i is byte i of `stream_bytes`. v_i is a uniform double drawn, after all
    the bytes and in cell order, only for the boundary cells, where the byte
    alone cannot decide: c_i is the byte threshold min(floor(256 p_i), 255).
    The comparison is exact rational.
    """
    stream = stream_bytes(rng, p.size)
    draw = np.zeros(p.shape)
    for i, prob in enumerate(p.flat):
        c = stream[i]
        scaled = 256 * Fraction(float(prob))
        if c == min(math.floor(scaled), 255):
            draw.flat[i] = c + Fraction(rng.random()) < scaled
        else:
            draw.flat[i] = c < scaled
    return draw


def pvalue_text_by_loop(
    b_emp, p_base: np.ndarray, p_lag: np.ndarray, lag_year: int,
    n_replicates: int, master_seed: int,
) -> str:
    """P_<year>.csv text of one pair, from a plain loop over the replicates.

    Replicate k draws the base matrix from the (base year, k) stream and the
    later matrix from the (later year, k) stream, cell by cell in flat order
    (`bernoulli_draw_by_loop`). Its assist values come from one dense BLAS
    product, (base^T @ (later / d)) / u, and a value counts where it reaches the
    empirical one less the package's relative tie tolerance.
    """
    counts = np.zeros(b_emp.values.shape, dtype=np.int64)
    threshold = b_emp.values * (1.0 - TIE_RTOL_PER_REGION * len(b_emp.regions))
    for k in range(n_replicates):
        draws = []
        for year, p in ((b_emp.base_year, p_base), (lag_year, p_lag)):
            rng = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(year, k))
            )
            draws.append(bernoulli_draw_by_loop(p, rng))
        base, later = draws
        d = np.maximum(later.sum(axis=1, keepdims=True), 1.0)  # a row of d = 0 is all zero
        u = np.maximum(base.sum(axis=0), 1.0)
        counts += (base.T @ (later / d)) / u[:, None] >= threshold
    inactive = "|".join(f for f, u in zip(b_emp.fields, b_emp.ubiquity) if u == 0)
    lines = [
        f"# base_year={b_emp.base_year} replicates={n_replicates} inactive_sources={inactive}",
        "field," + ",".join(b_emp.fields),
    ]
    for code, row in zip(b_emp.fields, counts):
        lines.append(code + "," + ",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def occurrence_by_record_loop(records, year: int, regions, fields) -> np.ndarray:
    """Occurrence weights of `year` from (family, year, region, code) name tuples.

    The per-record loop ingest ran before its columns: the year's distinct
    records in sorted family order, each adding 1 / (its family's distinct
    (region, code) pairs) to its cell in a dict, starting from 0.0.
    """
    unique = sorted({r for r in records if r[1] == year}, key=itemgetter(0))
    n_pairs = Counter(map(itemgetter(0), unique))
    region_index = {r: i for i, r in enumerate(regions)}
    field_index = {f: i for i, f in enumerate(fields)}
    cell_weights: dict[int, float] = {}
    for family, _year, region, code in unique:
        cell = region_index[region] * len(fields) + field_index[code]
        cell_weights[cell] = cell_weights.get(cell, 0.0) + 1.0 / n_pairs[family]
    weights = np.zeros((len(regions), len(fields)), dtype=np.float64)
    weights.flat[list(cell_weights)] = list(cell_weights.values())
    return weights


def field_counts_by_record_set(records, year: int) -> dict[str, int]:
    """Per-field count of the distinct families of `year` featuring it, from a set of pairs."""
    pairs = {(r[0], r[3]) for r in records if r[1] == year}
    return dict(Counter(map(itemgetter(1), pairs)))
