"""Autocatalytic core/periphery decomposition of the directed technology network.

An autocatalytic set (ACS) is a subgraph in which every node has at least one
incoming link from inside the subgraph. Nodes lying on at least one directed
cycle form the core; nodes reachable from a core by directed paths (but on no
cycle) form the periphery; everything else is outside. Two cores joined by a
directed path in either direction belong to the same ACS.

The combinatorial decomposition (strongly connected components + reachability)
is the source of truth. The spectral route supplies the leading eigenvalue and
eigenvector and serves as a cross-check: the eigenvalue is positive exactly
when a cycle exists, and the eigenvector's support lies inside the ACS.

The eigenvector is oriented to the receiving side of links: component i is the
asymptotic activity of field i under growth driven by incoming links. That is
the orientation under which periphery nodes, which are catalysed but feed
nothing back, carry positive weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifacts
from .fdr import TechnologyNetwork

LAMBDA_POSITIVE_TOL = 1e-8
PF_SUPPORT_RTOL = 1e-9


class PfConvergenceError(RuntimeError):
    """Power iteration failed to bracket the leading eigenvalue."""

    def __init__(self, squarings: int, bracket_width: float):
        super().__init__(
            f"eigenvalue bracket still {bracket_width:.3e} wide "
            f"after {squarings} squarings"
        )
        self.squarings = squarings
        self.bracket_width = bracket_width


@dataclass(frozen=True)
class Acs:
    """One distinct autocatalytic set: its cycle core and attached periphery."""

    core: frozenset[str]
    periphery: frozenset[str]
    core_lambda1: float

    @property
    def nodes(self) -> frozenset[str]:
        return self.core | self.periphery


@dataclass(frozen=True, eq=False)
class AcsDecomposition:
    year: int
    fields: tuple[str, ...]
    core: frozenset[str]
    periphery: frozenset[str]
    outside: frozenset[str]
    acs_list: tuple[Acs, ...]
    lambda1: float
    pf_vector: np.ndarray
    pf_support_consistent: bool

    @property
    def acs_nodes(self) -> frozenset[str]:
        return self.core | self.periphery

    @property
    def dominant(self) -> Acs | None:
        return self.acs_list[0] if self.acs_list else None

    def label_of(self, code: str) -> str:
        if code in self.core:
            return "core"
        if code in self.periphery:
            return "periphery"
        return "outside"


def _tarjan_sccs(neighbors: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; recursion would overflow on long subclass-level paths."""
    n = len(neighbors)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    node_stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        node_stack.append(root)
        on_stack[root] = True
        call_stack: list[tuple[int, int]] = [(root, 0)]
        while call_stack:
            v, pos = call_stack[-1]
            advanced = False
            while pos < len(neighbors[v]):
                w = neighbors[v][pos]
                pos += 1
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    node_stack.append(w)
                    on_stack[w] = True
                    call_stack[-1] = (v, pos)
                    call_stack.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                component = []
                while True:
                    w = node_stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)
    return sccs


def _descendants(neighbors: list[list[int]], sources: list[int]) -> set[int]:
    """The sources and every node reachable from them."""
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        for w in neighbors[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def find_core(adjacency: np.ndarray, neighbors: list[list[int]]) -> list[list[int]]:
    """The cycle cores, each sorted: SCCs of size >= 2 or with a self-loop (one SCC pass)."""
    return [sorted(c) for c in _tarjan_sccs(neighbors) if len(c) >= 2 or adjacency[c[0], c[0]]]


def split_distinct_acs(
    adjacency: np.ndarray, names: Sequence[str], cores: list[list[int]], reach: list[set[int]]
) -> list[Acs]:
    """Group the cores joined by a directed path in either direction into ACSs.

    `reach[a]` is everything core a reaches. An SCC is reached as a whole, so
    one node of it stands for all. Each ACS keeps the periphery its cores reach;
    the list runs from the largest core eigenvalue down, then the larger core,
    then the smallest field code.
    """
    group = list(range(len(cores)))
    for a in range(len(cores)):
        for b in range(a + 1, len(cores)):
            if group[a] != group[b] and (cores[b][0] in reach[a] or cores[a][0] in reach[b]):
                old = group[b]
                group = [group[a] if g == old else g for g in group]
    groups: dict[int, list[int]] = {}
    for a, g in enumerate(group):
        groups.setdefault(g, []).append(a)

    core_idx = {i for comp in cores for i in comp}
    acs_list = []
    for members in groups.values():
        idx = sorted(i for a in members for i in cores[a])
        reached = set().union(*(reach[a] for a in members))
        lam, _ = pf_eigen(adjacency[np.ix_(idx, idx)])
        periphery = frozenset(names[i] for i in reached - core_idx)
        acs_list.append(Acs(frozenset(names[i] for i in idx), periphery, core_lambda1=lam))
    acs_list.sort(key=lambda a: (-a.core_lambda1, -len(a.core), min(a.core)))
    return acs_list


def pf_eigen(
    adjacency: np.ndarray, tol: float = 1e-10, max_squarings: int = 60
) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and receiver-side eigenvector of a cyclic adjacency.

    The caller handles the acyclic (nilpotent) case, whose eigenvalue is 0
    exactly: from 21 path nodes on, its squarings below underflow to all
    zeros. Here, power iteration on (C^T + I) from a uniform start,
    accelerated by repeated matrix squaring so that defective cases, whose
    plain iteration converges only like 1/k, stabilize as well. The +I shift
    removes periodicity; the eigenvalue of C is the converged value minus one.

    Convergence uses the Collatz-Wielandt bracket: for a nonnegative matrix A
    and positive vector v, min_i (Av)_i / v_i and max_i (Av)_i / v_i enclose
    the leading eigenvalue, so a bracket of width tol certifies the result.
    (Stopping on stalled Rayleigh quotients is unsound here: on nilpotent
    matrices the quotient can repeat exactly at consecutive powers while far
    from its limit, and on non-normal matrices the quotient error is only
    first order in the eigenpair residual.)
    """
    n = adjacency.shape[0]
    start = np.full(n, 1.0 / n)
    shifted = adjacency.T.astype(np.float64) + np.eye(n)

    power = shifted / shifted.max()
    width = np.inf
    for step in range(max_squarings):
        if step > 0:
            power = power @ power
            power /= power.max()
        vec = power @ start
        vec /= vec.sum()
        applied = shifted @ vec
        # components underflowing to exact zero belong to vanished subdominant
        # blocks; their ratios are excluded from the bracket
        positive = vec > 0.0
        ratios = applied[positive] / vec[positive]
        width = float(ratios.max() - ratios.min())
        if width <= tol:
            rho = float(vec @ applied / (vec @ vec))
            return max(rho - 1.0, 0.0), vec
    raise PfConvergenceError(max_squarings, width)


def decompose(net: TechnologyNetwork) -> AcsDecomposition:
    """Full combinatorial + spectral decomposition of one year's network.

    One SCC pass finds the cycle cores (`find_core`). One search from each
    core finds what it reaches, and the periphery is everything reached
    outside the core. Cores joined by a directed path in either direction
    form one distinct ACS (`split_distinct_acs`). A periphery node catalysed
    by two path-disconnected cores appears in both: maximality of each ACS
    wins over disjointness of the list. `find_core`, `split_distinct_acs`
    and `pf_eigen` are public so that `perfbench/tracer.py` times each.

    Without a core the adjacency is nilpotent: lambda1 is exactly 0, the
    vector uniform, and there is no support to check.
    """
    adjacency = net.adjacency
    names = net.fields
    neighbors = [np.nonzero(row)[0].tolist() for row in adjacency]
    cores = find_core(adjacency, neighbors)
    reach = [_descendants(neighbors, comp) for comp in cores]
    acs_list = split_distinct_acs(adjacency, names, cores, reach)

    core = frozenset(names[i] for comp in cores for i in comp)
    periphery = frozenset(names[i] for i in set().union(*reach)) - core
    if core:
        pf_lambda, pf_vector = pf_eigen(adjacency)
        support = {names[i] for i in np.nonzero(pf_vector > PF_SUPPORT_RTOL * pf_vector.max())[0]}
        consistent = pf_lambda > LAMBDA_POSITIVE_TOL and support <= acs_list[0].nodes
    else:
        pf_lambda, pf_vector = 0.0, np.full(len(names), 1.0 / max(len(names), 1))
        consistent = True
    return AcsDecomposition(
        year=net.year,
        fields=names,
        core=core,
        periphery=periphery,
        outside=frozenset(names) - core - periphery,
        acs_list=tuple(acs_list),
        lambda1=pf_lambda,
        pf_vector=pf_vector,
        pf_support_consistent=consistent,
    )


def decomposition_to_text(d: AcsDecomposition) -> str:
    """Year-keyed 'year,field,label' rows, label in {core, periphery, outside}, field order."""
    return artifacts.year_rows_to_text(d.year, ((code, d.label_of(code)) for code in d.fields))


def decomposition_summary_line(d: AcsDecomposition) -> str:
    """One summary row: year, lambda1, core size, periphery size, ACS size."""
    return (
        f"{d.year},{d.lambda1!r},{len(d.core)},{len(d.periphery)},"
        f"{len(d.core) + len(d.periphery)}"
    )


def decomposition_from_text(
    text: str, fields: Sequence[str], *, year: int | None = None
) -> dict[str, str]:
    """Parse a labels file, one row per field in `fields` order, into field -> label."""
    _year, rows = artifacts.year_rows_from_text(text, 2, year=year)
    if [code for code, _label in rows] != list(fields):
        raise ValueError("labels are not over the given fields in their order")
    return dict(rows)
