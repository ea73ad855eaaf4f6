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

The cores come from one iterative Tarjan pass (Tarjan 1972) over successor
lists, linear in nodes plus links, and what each core reaches from a
level-by-level search over the dense adjacency; the module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import artifacts
from .fdr import TechnologyNetwork

LAMBDA_POSITIVE_TOL = 1e-8
PF_SUPPORT_RTOL = 1e-9
# pf_eigen stops once the Collatz-Wielandt bracket is this narrow, and gives
# up after this many squarings of the shifted matrix.
PF_BRACKET_TOL = 1e-10
PF_MAX_SQUARINGS = 60


class LabelError(ValueError):
    """Raised on a malformed or inconsistent ACS labels artifact."""


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
    def summary_row(self) -> tuple[int, float, int, int, int]:
        """Year, lambda1, core size, periphery size, ACS size."""
        return self.year, self.lambda1, len(self.core), len(self.periphery), len(self.acs_nodes)

    @property
    def dominant(self) -> Acs | None:
        return self.acs_list[0] if self.acs_list else None

    def label_of(self, code: str) -> str:
        if code in self.core:
            return "core"
        if code in self.periphery:
            return "periphery"
        return "outside"


def find_core(adjacency: np.ndarray) -> list[np.ndarray]:
    """The cycle cores in index order: SCCs of size >= 2 or with a self-loop.

    One iterative Tarjan pass over the successor lists of the nonzero links.
    `pending[v]` is the next link of v to follow, so the explicit call stack
    `work` holds nodes only.
    """
    n = adjacency.shape[0]
    src, dst = np.nonzero(adjacency)
    succ = dst.tolist()
    pending = np.searchsorted(src, np.arange(n + 1)).tolist()
    end = pending[1:]
    self_loop = (adjacency.diagonal() != 0).tolist()
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    cores = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [root]
        while work:
            v = work[-1]
            i = pending[v]
            if i < end[v]:
                pending[v] = i + 1
                w = succ[i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] == index[v]:
                at = len(stack) - 1
                while stack[at] != v:
                    at -= 1
                component = stack[at:]
                del stack[at:]
                for w in component:
                    on_stack[w] = False
                if len(component) > 1 or self_loop[v]:
                    cores.append(np.sort(np.array(component, dtype=np.intp)))
    cores.sort(key=lambda comp: comp[0])
    return cores


def _reached(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes reachable from `start`, itself included: one level per step.

    On a symmetric matrix this is the undirected component of `start`.
    """
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def split_distinct_acs(
    adjacency: np.ndarray,
    names: Sequence[str],
    cores: list[np.ndarray],
    whole_lambda: float,
) -> list[Acs]:
    """Group the cores joined by a directed path in either direction into ACSs.

    One search from one node of each core finds what the core reaches: an SCC
    is reached as a whole, so one node stands for all. A search over the
    cores, following reach in either direction, groups them. Each ACS
    keeps the periphery its cores reach; the list runs from the largest core
    eigenvalue down, then the larger core, then the smallest field code.
    A core that covers every field takes `whole_lambda`, the eigenvalue of
    the whole adjacency, in place of a second pf_eigen on the same matrix.
    """
    n = adjacency.shape[0]
    reach = np.zeros((len(cores), n), dtype=bool)
    for a, comp in enumerate(cores):
        reach[a] = _reached(adjacency, comp[0])
    core_reach = reach[:, [comp[0] for comp in cores]]
    joined = core_reach | core_reach.T
    outside_cores = np.ones(n, dtype=bool)
    outside_cores[[i for comp in cores for i in comp]] = False

    acs_list = []
    grouped = np.zeros(len(cores), dtype=bool)
    for first in range(len(cores)):
        if grouped[first]:
            continue
        in_group = _reached(joined, first)
        grouped |= in_group
        members = np.flatnonzero(in_group)
        idx = np.sort(np.concatenate([cores[a] for a in members]))
        reached = np.flatnonzero(reach[members].any(axis=0) & outside_cores)
        if len(idx) == n:
            lam = whole_lambda
        else:
            lam, _ = pf_eigen(adjacency[np.ix_(idx, idx)])
        periphery = frozenset(names[i] for i in reached)
        acs_list.append(Acs(frozenset(names[i] for i in idx), periphery, core_lambda1=lam))
    acs_list.sort(key=lambda a: (-a.core_lambda1, -len(a.core), min(a.core)))
    return acs_list


def pf_eigen(adjacency: np.ndarray) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and receiver-side eigenvector of a cyclic adjacency.

    The caller handles the acyclic (nilpotent) case, whose eigenvalue is 0
    exactly: from 21 path nodes on, its squarings below underflow to all
    zeros. Here, power iteration on (C^T + I) from a uniform start,
    accelerated by repeated matrix squaring so that defective cases, whose
    plain iteration converges only like 1/k, stabilize as well. The +I shift
    removes periodicity; the eigenvalue of C is the converged value minus one.

    Convergence uses the Collatz-Wielandt bracket: for a nonnegative matrix A
    and positive vector v, min_i (Av)_i / v_i and max_i (Av)_i / v_i enclose
    the leading eigenvalue, so a bracket of width PF_BRACKET_TOL certifies the
    result.
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
    for step in range(PF_MAX_SQUARINGS):
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
        if width <= PF_BRACKET_TOL:
            rho = float(vec @ applied / (vec @ vec))
            return max(rho - 1.0, 0.0), vec
    raise PfConvergenceError(PF_MAX_SQUARINGS, width)


def decompose(net: TechnologyNetwork) -> AcsDecomposition:
    """Full combinatorial + spectral decomposition of one year's network.

    One Tarjan strong-components pass finds the cycle cores (`find_core`).
    One search from each core finds what it reaches, and the periphery is
    everything reached outside the cores. Cores joined by a directed path in
    either direction form one distinct ACS (`split_distinct_acs`), found as
    the components of the cores' reach relation. A periphery node catalysed
    by two path-disconnected cores appears in both: maximality of each ACS
    wins over disjointness of the list. `find_core`, `split_distinct_acs`
    and `pf_eigen` are public so that `perfbench/tracer.py` times each.
    The whole adjacency's eigenpair is computed once, and an ACS whose core
    covers every field takes its eigenvalue from it.

    Without a core the adjacency is nilpotent: lambda1 is exactly 0, the
    vector uniform, and there is no support to check.
    """
    names, adjacency = net.fields, net.adjacency
    cores = find_core(adjacency)
    if cores:
        pf_lambda, pf_vector = pf_eigen(adjacency)
        acs_list = split_distinct_acs(adjacency, names, cores, pf_lambda)
        support = {names[i] for i in np.nonzero(pf_vector > PF_SUPPORT_RTOL * pf_vector.max())[0]}
        consistent = pf_lambda > LAMBDA_POSITIVE_TOL and support <= acs_list[0].nodes
    else:
        pf_lambda, pf_vector = 0.0, np.full(len(names), 1.0 / max(len(names), 1))
        acs_list, consistent = [], True
    core = frozenset().union(*(a.core for a in acs_list))
    periphery = frozenset().union(*(a.periphery for a in acs_list))
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


def decomposition_from_text(
    text: str, fields: Sequence[str], *, year: int | None = None
) -> dict[str, str]:
    """Parse a labels file, one row per field in `fields` order, into field -> label."""
    _year, (row_fields, labels) = artifacts.year_rows_from_text(
        text, 2, year=year, error=LabelError
    )
    if row_fields != list(fields):
        raise LabelError("labels are not over the given fields in their order")
    return dict(zip(row_fields, labels))
