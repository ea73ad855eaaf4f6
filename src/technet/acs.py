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

scipy is imported inside the functions that call it, so that importing the
package, and every stage before this one, runs without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import artifacts
from .fdr import TechnologyNetwork

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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


def find_core(graph: csr_matrix) -> list[np.ndarray]:
    """The cycle cores in index order: SCCs of size >= 2 or with a self-loop (one SCC pass)."""
    from scipy.sparse.csgraph import connected_components

    n_sccs, scc = connected_components(graph, connection="strong")
    cyclic = np.bincount(scc, minlength=n_sccs) >= 2
    cyclic[scc[graph.diagonal() != 0]] = True
    return [np.flatnonzero(scc == c) for c in np.flatnonzero(cyclic)]


def split_distinct_acs(
    graph: csr_matrix, names: Sequence[str], cores: list[np.ndarray]
) -> list[Acs]:
    """Group the cores joined by a directed path in either direction into ACSs.

    One search from one node of each core finds what the core reaches: an SCC
    is reached as a whole, so one node stands for all. Each ACS keeps the
    periphery its cores reach; the list runs from the largest core eigenvalue
    down, then the larger core, then the smallest field code.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = graph.shape[0]
    reach = np.zeros((len(cores), n), dtype=bool)
    for a, comp in enumerate(cores):
        reach[a, breadth_first_order(graph, comp[0], return_predecessors=False)] = True
    core_reach = reach[:, [comp[0] for comp in cores]]
    n_groups, group = connected_components(csr_matrix(core_reach), directed=False)
    outside_cores = np.ones(n, dtype=bool)
    outside_cores[[i for comp in cores for i in comp]] = False

    acs_list = []
    for g in range(n_groups):
        members = np.flatnonzero(group == g)
        idx = np.sort(np.concatenate([cores[a] for a in members]))
        reached = np.flatnonzero(reach[members].any(axis=0) & outside_cores)
        lam, _ = pf_eigen(graph[idx][:, idx])
        periphery = frozenset(names[i] for i in reached)
        acs_list.append(Acs(frozenset(names[i] for i in idx), periphery, core_lambda1=lam))
    acs_list.sort(key=lambda a: (-a.core_lambda1, -len(a.core), min(a.core)))
    return acs_list


def pf_eigen(graph: csr_matrix) -> tuple[float, np.ndarray]:
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
    n = graph.shape[0]
    start = np.full(n, 1.0 / n)
    shifted = graph.toarray().T.astype(np.float64) + np.eye(n)

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

    One strong-components pass finds the cycle cores (`find_core`). One
    search from each core finds what it reaches, and the periphery is
    everything reached outside the cores. Cores joined by a directed path in
    either direction form one distinct ACS (`split_distinct_acs`), found as
    the components of the cores' reach relation. A periphery node catalysed
    by two path-disconnected cores appears in both: maximality of each ACS
    wins over disjointness of the list. `find_core`, `split_distinct_acs`
    and `pf_eigen` are public so that `perfbench/tracer.py` times each.

    Without a core the adjacency is nilpotent: lambda1 is exactly 0, the
    vector uniform, and there is no support to check.
    """
    from scipy.sparse import csr_matrix

    names = net.fields
    graph = csr_matrix(net.adjacency)
    acs_list = split_distinct_acs(graph, names, find_core(graph))
    core = frozenset().union(*(a.core for a in acs_list))
    periphery = frozenset().union(*(a.periphery for a in acs_list))
    if core:
        pf_lambda, pf_vector = pf_eigen(graph)
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


def decomposition_from_text(
    text: str, fields: Sequence[str], *, year: int | None = None
) -> dict[str, str]:
    """Parse a labels file, one row per field in `fields` order, into field -> label."""
    _year, rows = artifacts.year_rows_from_text(text, 2, year=year, error=LabelError)
    if [code for code, _label in rows] != list(fields):
        raise LabelError("labels are not over the given fields in their order")
    return dict(rows)
