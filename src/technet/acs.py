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


def _neighbor_lists(adjacency: np.ndarray) -> list[list[int]]:
    return [np.nonzero(adjacency[i])[0].tolist() for i in range(adjacency.shape[0])]


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


def _core_components(net: TechnologyNetwork) -> list[list[int]]:
    """SCCs that contain a cycle: size >= 2, or a singleton with a self-loop."""
    neighbors = _neighbor_lists(net.adjacency)
    components = []
    for comp in _tarjan_sccs(neighbors):
        if len(comp) >= 2 or net.adjacency[comp[0], comp[0]]:
            components.append(sorted(comp))
    return components


def _descendants(adjacency: np.ndarray, sources: list[int]) -> set[int]:
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for w in np.nonzero(adjacency[v])[0]:
            w = int(w)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def find_core(net: TechnologyNetwork) -> frozenset[str]:
    """Fields lying on at least one directed cycle (self-loops count)."""
    return frozenset(net.fields[i] for comp in _core_components(net) for i in comp)


def find_periphery(net: TechnologyNetwork, core: frozenset[str]) -> frozenset[str]:
    """Fields reachable from the core by directed paths, excluding the core."""
    core_idx = [i for i, f in enumerate(net.fields) if f in core]
    reached = _descendants(net.adjacency, core_idx)
    return frozenset(net.fields[i] for i in reached) - core


def split_distinct_acs(
    net: TechnologyNetwork, core: frozenset[str], periphery: frozenset[str]
) -> list[Acs]:
    """Group core components connected by a directed path (either direction).

    Each group, with the periphery it reaches, is one distinct ACS. A
    periphery node catalysed by two path-disconnected cores appears in both:
    maximality of each ACS wins over disjointness of the list.
    """
    components = _core_components(net)
    if not components:
        return []
    reach = [_descendants(net.adjacency, comp) for comp in components]
    parent = list(range(len(components)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            if any(i in reach[a] for i in components[b]) or any(
                i in reach[b] for i in components[a]
            ):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

    groups: dict[int, list[int]] = {}
    for a in range(len(components)):
        groups.setdefault(find(a), []).append(a)

    result = []
    for members in groups.values():
        group_core = frozenset(net.fields[i] for a in members for i in components[a])
        reached = set().union(*(reach[a] for a in members))
        group_periphery = frozenset(net.fields[i] for i in reached) & periphery
        core_net = _induced_network(net, group_core)
        lam, _ = pf_eigen(core_net)
        result.append(Acs(core=group_core, periphery=group_periphery, core_lambda1=lam))
    result.sort(key=lambda a: (-a.core_lambda1, -len(a.core), min(a.core)))
    return result


def _induced_network(net: TechnologyNetwork, nodes: frozenset[str]) -> TechnologyNetwork:
    idx = [i for i, f in enumerate(net.fields) if f in nodes]
    sub = net.adjacency[np.ix_(idx, idx)]
    return TechnologyNetwork(
        year=net.year,
        fields=tuple(net.fields[i] for i in idx),
        adjacency=sub,
        significance_level=net.significance_level,
    )


def pf_eigen(
    net: TechnologyNetwork, tol: float = 1e-10, max_squarings: int = 60
) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and receiver-side eigenvector of the adjacency matrix.

    An acyclic (nilpotent) adjacency gives 0 and the uniform vector at once;
    from 21 path nodes on, its squarings below underflow to all zeros. Else,
    power iteration on (C^T + I) from a uniform start, accelerated by repeated
    matrix squaring so that defective cases, whose plain iteration converges
    only like 1/k, stabilize as well. The +I shift removes periodicity; the
    eigenvalue of C is the converged value minus one.

    Convergence uses the Collatz-Wielandt bracket: for a nonnegative matrix A
    and positive vector v, min_i (Av)_i / v_i and max_i (Av)_i / v_i enclose
    the leading eigenvalue, so a bracket of width tol certifies the result.
    (Stopping on stalled Rayleigh quotients is unsound here: on nilpotent
    matrices the quotient can repeat exactly at consecutive powers while far
    from its limit, and on non-normal matrices the quotient error is only
    first order in the eigenpair residual.)
    """
    n = len(net.fields)
    if n == 0:
        return 0.0, np.zeros(0)
    start = np.full(n, 1.0 / n)
    if not _core_components(net):
        return 0.0, start
    shifted = net.adjacency.T.astype(np.float64) + np.eye(n)

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
    """Full combinatorial + spectral decomposition of one year's network."""
    core = find_core(net)
    periphery = find_periphery(net, core)
    outside = frozenset(net.fields) - core - periphery
    acs_list = tuple(split_distinct_acs(net, core, periphery))
    pf_lambda, pf_vector = pf_eigen(net)

    # Without a core the adjacency is nilpotent: pf_eigen gives exactly 0 and
    # there is no support to check.
    consistent = True
    if core:
        support = {
            net.fields[i]
            for i in np.nonzero(pf_vector > PF_SUPPORT_RTOL * pf_vector.max())[0]
        }
        dominant_nodes = acs_list[0].nodes if acs_list else frozenset()
        consistent = pf_lambda > LAMBDA_POSITIVE_TOL and support <= dominant_nodes
    return AcsDecomposition(
        year=net.year,
        fields=net.fields,
        core=core,
        periphery=periphery,
        outside=outside,
        acs_list=acs_list,
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
