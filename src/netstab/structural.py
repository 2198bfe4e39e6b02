"""Structural sets on interaction graphs.

A branch is a path or cycle whose endpoints lie in a vertex set S and
whose interior avoids S.  S is complete when deleting it leaves the
graph acyclic and every vertex lies on some branch; it is basic when,
additionally, no endpoint pair has two distinct branches.  Complete sets
are where restriction and expansion are defined; basic sets are where
the restricted verdict transfers back to the original network.

One topological order of G - S decides a set: it shows G - S acyclic,
and path counts along it give the branches per endpoint pair.  Only
``branch_set`` and ``admissible_sequences`` list branches, of which
there can be exponentially many.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ConvergenceError, NetworkError, _iteration_cap
from .network import REPORT_SCHEMA, InteractionGraph, report_json

__all__ = [
    "Branch",
    "StructuralSetReport",
    "branch_set",
    "is_complete_structural",
    "is_basic_structural",
    "admissible_sequences",
    "find_structural_sets",
]


@dataclass(frozen=True)
class Branch:
    """Vertex sequence l1, ..., lN (N >= 2): endpoints in S, interior
    outside S, vertices distinct except possibly l1 == lN (a cycle)."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a branch has at least two vertices")

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[str, ...]:
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class StructuralSetReport:
    """``counts``: branches per (source, target) pair, sorted; empty unless complete."""
    S: tuple[str, ...]
    complete: bool
    counts: dict[tuple[str, str], int] = field(hash=False)

    @property
    def basic(self) -> bool:  # complete, with at most one branch per endpoint pair
        return self.complete and all(n <= 1 for n in self.counts.values())

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "S": list(self.S),
            "complete": self.complete,
            "basic": self.basic,
            "branch_counts": [[s, t, n] for (s, t), n in self.counts.items()],
        }

    def to_json(self) -> str:
        return report_json(self.to_json_dict())


def _check_subset(graph: InteractionGraph, S) -> tuple[str, ...]:
    S = tuple(sorted(set(S)))
    unknown = [v for v in S if v not in graph.vertices]
    if unknown:
        raise NetworkError(f"not vertices of the graph: {unknown}")
    return S


def branch_set(graph: InteractionGraph, S) -> list[Branch]:
    """All paths/cycles with endpoints in S and no interior vertex in S.

    Depth-first enumeration, with an explicit stack, from each S vertex
    through non-S interiors; output in lexicographic order of the vertex
    sequences.
    """
    S = _check_subset(graph, S)
    in_s = set(S)
    found: list[Branch] = []
    for start in S:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            for nxt in graph.successors(path[-1]):
                if nxt in in_s:
                    found.append(Branch(path + (nxt,)))
                elif nxt not in path:
                    stack.append(path + (nxt,))
    found.sort(key=lambda b: b.vertices)
    return found


def _forced(graph: InteractionGraph) -> set[str]:
    """Vertices every complete set contains: those with a loop, no
    predecessor or no successor, which lie on no branch interior."""
    return {
        v for v in graph.vertices
        if graph.has_edge(v, v) or not graph.predecessors(v) or not graph.successors(v)
    }


def _order(succ: dict[str, tuple[str, ...]], removed) -> list[str] | None:
    """A topological order of the digraph ``succ`` (vertex -> successors)
    once the vertices in ``removed`` are deleted, or None when a cycle is
    left.  Kahn's algorithm."""
    indegree = {v: 0 for v in succ if v not in removed}
    for v in indegree:
        for w in succ[v]:
            if w in indegree:
                indegree[w] += 1
    ready = [v for v, d in indegree.items() if not d]
    for v in ready:  # grows while it is read: the sort's queue
        for w in succ[v]:
            if w in indegree:
                indegree[w] -= 1
                if not indegree[w]:
                    ready.append(w)
    return ready if len(ready) == len(indegree) else None


def _complete(graph: InteractionGraph, S) -> list[str] | None:
    """A topological order of G - S if S is complete, else None; linear time.

    S is complete iff it holds every forced vertex and G - S is acyclic.
    Then every vertex outside S has a predecessor and a successor, so from
    any such v, following predecessors outside S must reach S (G - S has
    no cycle to go round), and so must following successors; the two
    halves share only v, or they would close a cycle outside S, so they
    join into a branch through v.
    """
    in_s = set(S)
    if not _forced(graph) <= in_s:
        return None
    return _order({v: graph.successors(v) for v in graph.vertices}, in_s)


def _report(graph: InteractionGraph, S: tuple[str, ...], order) -> StructuralSetReport:
    """The report on S, given a topological order of G - S when S is
    complete, else None: along it, each vertex outside S sums per source
    the paths into its predecessors, and each S vertex counts branches."""
    counts = Counter()
    if order is not None:
        in_s = set(S)
        paths = {v: Counter() for v in order}  # vertex -> {source: paths into it}
        paths.update((s, Counter({s: 1})) for s in S)
        for v in (*S, *order):
            for w in graph.successors(v):
                if w in in_s:
                    counts.update({(s, w): n for s, n in paths[v].items()})
                else:
                    paths[w].update(paths[v])
    return StructuralSetReport(
        S=S,
        complete=order is not None,
        counts=dict(sorted(counts.items())),
    )


def is_complete_structural(graph: InteractionGraph, S) -> bool:
    """True iff every cycle meets S and every vertex lies on a branch.

    Vertices of S count as their own trivial S-to-S paths; every other
    vertex must appear in some branch interior.
    """
    return _complete(graph, _check_subset(graph, S)) is not None


def is_basic_structural(graph: InteractionGraph, S) -> bool:
    """Complete, and at most one branch per (source, target) pair."""
    return report_for(graph, S).basic


def admissible_sequences(graph: InteractionGraph, S) -> list[Branch]:
    """Branches with more than two vertices; each spawns a delay chain in
    the expansion."""
    return [b for b in branch_set(graph, S) if len(b) > 2]


def report_for(graph: InteractionGraph, S) -> StructuralSetReport:
    S = _check_subset(graph, S)
    return _report(graph, S, _complete(graph, S))


def find_structural_sets(
    graph: InteractionGraph, want_basic: bool = False, max_results: int = 16
) -> list[StructuralSetReport]:
    """Complete (or, with ``want_basic``, basic) structural sets, ordered
    by |S| and then lexicographically: the first ``max_results`` of them.

    The search is exact at every graph size.  Every complete set contains
    the forced vertices F (a loop, no predecessor or no successor), and
    F plus a set C of the other vertices is complete iff deleting it leaves
    the graph acyclic, so the candidates are F + C over C by size and then
    lexicographically, which is the (|S|, lex) order of the sets.  The
    order of G - S that shows a candidate acyclic also counts its branches.
    At most ``NETSTAB_MAX_ITERS`` candidates are tried (default 2^20, every
    C of 20 free vertices); the next one raises ConvergenceError.
    """
    if max_results < 1:
        raise ValueError("max_results must be positive")
    forced = _forced(graph)
    free = sorted(set(graph.vertices) - forced)
    succ = {v: tuple(w for w in graph.successors(v) if w not in forced) for v in free}
    cap = _iteration_cap(1 << 20)
    tried = 0
    results: list[StructuralSetReport] = []
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            if tried == cap:
                raise ConvergenceError(
                    f"structural-set search stopped after {cap} candidate sets at "
                    f"|S| = {len(forced) + size}, with {len(results)} sets found"
                )
            tried += 1
            order = _order(succ, combo)
            if order is None:
                continue
            rep = _report(graph, tuple(sorted(forced.union(combo))), order)
            if want_basic and not rep.basic:
                continue
            results.append(rep)
            if len(results) >= max_results:
                return results
    return results
