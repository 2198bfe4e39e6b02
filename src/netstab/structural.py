"""Structural sets on interaction graphs.

A branch is a path or cycle whose endpoints lie in a vertex set S and
whose interior avoids S.  S is complete when deleting it leaves the
graph acyclic and every vertex lies on some branch; it is basic when,
additionally, no endpoint pair has two distinct branches.  Complete sets
are where restriction and expansion are defined; basic sets are where
the restricted verdict transfers back to the original network.

One topological order of G - S decides a set: it shows G - S acyclic,
and path counts along it give the branches per endpoint pair, of which
there can be exponentially many; no branch is listed.  The search for
sets chooses the non-forced part of S vertex by vertex in lexicographic
order, and skips every choice whose passed-over vertices hold a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import ConvergenceError, NetworkError, _iteration_cap
from .network import REPORT_SCHEMA, InteractionGraph, report_json

__all__ = [
    "StructuralSetReport",
    "is_complete_structural",
    "is_basic_structural",
    "find_structural_sets",
]


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
    """The report on S (sorted), given a topological order of G - S when S
    is complete, else None.  Each S vertex adds its edges: one into S is a
    branch, and one out of S starts a path at its head.  Along the order,
    each vertex outside S holds its paths per source and passes them on to
    its successors, counting those that end in S as branches."""
    counts: dict[tuple[str, str], int] = {}
    if order is not None:
        in_s = set(S)
        successors = graph.successors
        branches: dict[str, dict[str, int]] = {s: {} for s in S}  # source -> {target: branches}
        paths: dict[str, dict[str, int]] = {}  # vertex outside S -> {source: paths into it}
        for s in S:
            for w in successors(s):
                if w in in_s:
                    branches[s][w] = 1
                else:
                    paths.setdefault(w, {})[s] = 1
        for v in order:
            into = paths.pop(v)  # S is complete, so some path reaches v
            for w in successors(v):
                if w in in_s:
                    for s, n in into.items():
                        row = branches[s]
                        row[w] = row.get(w, 0) + n
                    continue
                out = paths.get(w)
                if out is None:
                    paths[w] = dict(into)
                else:
                    for s, n in into.items():
                        out[s] = out.get(s, 0) + n
        counts = {(s, w): row[w] for s, row in branches.items() for w in sorted(row)}
    return StructuralSetReport(S=S, complete=order is not None, counts=counts)


def is_complete_structural(graph: InteractionGraph, S) -> bool:
    """True iff every cycle meets S and every vertex lies on a branch.

    Vertices of S count as their own trivial S-to-S paths; every other
    vertex must appear in some branch interior.
    """
    return _complete(graph, _check_subset(graph, S)) is not None


def is_basic_structural(graph: InteractionGraph, S) -> bool:
    """Complete, and at most one branch per (source, target) pair."""
    return report_for(graph, S).basic


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
    F plus a set C of the other vertices, the free ones, is complete iff
    deleting it leaves the graph acyclic, so the candidates are F + C over
    C by size and then lexicographically, which is the (|S|, lex) order of
    the sets.  Each size's C are chosen by a depth-first search over
    increasing indices into the sorted free vertices, in the order of
    ``itertools.combinations``.  A free vertex passed over is left out of
    every C below that point, so when the vertices passed over induce a
    cycle no C that passes them is acyclic, and the search skips them all.
    The order of G - S that shows a candidate acyclic also counts its
    branches.  At most ``NETSTAB_MAX_ITERS`` candidates are tried (default
    2^20, every C of 20 free vertices), skipped ones included; the next one
    raises ConvergenceError.
    """
    if max_results < 1:
        raise ValueError("max_results must be positive")
    forced = _forced(graph)
    free = sorted(set(graph.vertices) - forced)
    m = len(free)
    succ = {v: tuple(w for w in graph.successors(v) if w not in forced) for v in free}
    cap = _iteration_cap(1 << 20)
    tried = 0
    results: list[StructuralSetReport] = []

    def stop(size: int) -> ConvergenceError:
        return ConvergenceError(
            f"structural-set search stopped after {cap} candidate sets at "
            f"|S| = {len(forced) + size}, with {len(results)} sets found"
        )

    for size in range(m + 1):
        chosen: list[int] = []  # indices into free of C's vertices so far
        i = 0  # the index the search chooses next
        while True:
            left = size - len(chosen)  # choices still to make, this one included
            if left and i <= m - left:
                # the vertices passed over (before i, not chosen) stay out of
                # every C this node reaches from i on.  At the node's first
                # index they are the parent's, tested there, and a cycle
                # among them needs two, as no free vertex has a loop
                first = chosen[-1] + 1 if chosen else 0
                passed = [] if i == first else [free[j] for j in range(i) if j not in chosen]
                if len(passed) < 2 or _order({v: succ[v] for v in passed}, ()) is not None:
                    chosen.append(i)
                    i += 1
                    continue
                # every C left at this node passes over a cycle
                tried += comb(m - i, left)
                if tried > cap:
                    raise stop(size)
            elif not left:
                if tried == cap:
                    raise stop(size)
                tried += 1
                combo = [free[j] for j in chosen]
                order = _order(succ, combo)
                if order is not None:
                    rep = _report(graph, tuple(sorted(forced.union(combo))), order)
                    if not want_basic or rep.basic:
                        results.append(rep)
                        if len(results) >= max_results:
                            return results
            if not chosen:
                break
            i = chosen.pop() + 1
    return results
