"""Structural sets on interaction graphs.

A branch is a path or cycle whose endpoints lie in a vertex set S and
whose interior avoids S.  S is complete when deleting it leaves the
graph acyclic and every vertex lies on some branch; it is basic when,
additionally, no endpoint pair has two distinct branches.  Complete sets
are where restriction and expansion are defined; basic sets are where
the restricted verdict transfers back to the original network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import NetworkError
from .network import REPORT_SCHEMA, InteractionGraph

__all__ = [
    "Branch",
    "StructuralSetReport",
    "branch_set",
    "is_complete_structural",
    "is_basic_structural",
    "admissible_sequences",
    "find_structural_sets",
    "EXHAUSTIVE_LIMIT",
]

EXHAUSTIVE_LIMIT = 20


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

    def __str__(self) -> str:
        return "->".join(self.vertices)


@dataclass(frozen=True)
class StructuralSetReport:
    S: tuple[str, ...]
    complete: bool
    basic: bool
    branches: tuple[Branch, ...]
    admissible: tuple[Branch, ...]
    uncovered: tuple[str, ...] = ()  # vertices on no branch, sorted

    def branches_by_endpoints(self) -> dict[tuple[str, str], tuple[Branch, ...]]:
        grouped: dict[tuple[str, str], list[Branch]] = {}
        for br in self.branches:
            grouped.setdefault((br.source, br.target), []).append(br)
        return {k: tuple(v) for k, v in grouped.items()}

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "S": list(self.S),
            "complete": self.complete,
            "basic": self.basic,
            "branches": [list(b.vertices) for b in self.branches],
            "admissible": [list(b.vertices) for b in self.admissible],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _check_subset(graph: InteractionGraph, S) -> tuple[str, ...]:
    S = tuple(sorted(set(S)))
    unknown = [v for v in S if v not in graph.vertices]
    if unknown:
        raise NetworkError(f"not vertices of the graph: {unknown}")
    return S


def branch_set(graph: InteractionGraph, S) -> list[Branch]:
    """All paths/cycles with endpoints in S and no interior vertex in S.

    Depth-first enumeration from each S vertex through non-S interiors;
    output in lexicographic order of the vertex sequences.
    """
    S = _check_subset(graph, S)
    in_s = set(S)
    found: list[Branch] = []

    def walk(path: list[str], on_path: set[str]):
        for nxt in graph.successors(path[-1]):
            if nxt in in_s:
                found.append(Branch(tuple(path) + (nxt,)))
            elif nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                walk(path, on_path)
                path.pop()
                on_path.discard(nxt)

    for start in S:
        walk([start], set())
    found.sort(key=lambda b: b.vertices)
    return found


def _cycle_outside(graph: InteractionGraph, S) -> bool:
    """Does a cycle survive after deleting S?  (Self-loops count.)"""
    in_s = set(S)
    remaining = [v for v in graph.vertices if v not in in_s]
    succ = {
        v: [w for w in graph.successors(v) if w not in in_s] for v in remaining
    }
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in remaining}
    for root in remaining:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == GRAY:
                    return True
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return False


def is_complete_structural(graph: InteractionGraph, S) -> bool:
    """True iff every cycle meets S and every vertex lies on a branch.

    Vertices of S count as their own trivial S-to-S paths; every other
    vertex must appear in some branch interior.
    """
    return report_for(graph, S).complete


def is_basic_structural(graph: InteractionGraph, S) -> bool:
    """Complete, and at most one branch per (source, target) pair."""
    return report_for(graph, S).basic


def admissible_sequences(graph: InteractionGraph, S) -> list[Branch]:
    """Branches with more than two vertices; each spawns a delay chain in
    the expansion."""
    return [b for b in branch_set(graph, S) if len(b) > 2]


def report_for(graph: InteractionGraph, S) -> StructuralSetReport:
    S = _check_subset(graph, S)
    return _report(graph, S, acyclic=not _cycle_outside(graph, S))


def _report(graph: InteractionGraph, S: tuple[str, ...], acyclic: bool) -> StructuralSetReport:
    """The report of a checked, sorted S whose cycle test gave ``acyclic``."""
    branches = tuple(branch_set(graph, S))
    covered = set(S)
    seen: set[tuple[str, str]] = set()
    duplicated = False
    for br in branches:
        covered.update(br.interior)
        key = (br.source, br.target)
        if key in seen:
            duplicated = True
        seen.add(key)
    uncovered = tuple(sorted(set(graph.vertices) - covered))
    complete = acyclic and not uncovered
    return StructuralSetReport(
        S=S,
        complete=complete,
        basic=complete and not duplicated,
        branches=branches,
        admissible=tuple(b for b in branches if len(b) > 2),
        uncovered=uncovered,
    )


def _greedy_seed(graph: InteractionGraph) -> StructuralSetReport:
    """Greedy feedback vertex set, grown until complete."""
    S: set[str] = set()
    while _cycle_outside(graph, S):
        remaining = [v for v in graph.vertices if v not in S]
        best = max(
            remaining,
            key=lambda v: (
                len([w for w in graph.successors(v) if w not in S])
                * len([w for w in graph.predecessors(v) if w not in S]),
                graph.has_edge(v, v),
            ),
        )
        S.add(best)
    rep = _report(graph, tuple(sorted(S)), acyclic=True)
    while rep.uncovered:
        S.add(rep.uncovered[0])
        rep = _report(graph, tuple(sorted(S)), acyclic=True)
    return rep


def find_structural_sets(
    graph: InteractionGraph, want_basic: bool = False, max_results: int = 16
) -> list[StructuralSetReport]:
    """Search for complete (or basic) structural sets.

    Small graphs (|V| <= 20) are enumerated exhaustively by increasing
    set size with the acyclicity test as an early filter; larger graphs
    get a single greedy feedback-vertex-set candidate, verified exactly.
    Results are ordered by |S|, then lexicographically.
    """
    if max_results < 1:
        raise ValueError("max_results must be positive")
    results: list[StructuralSetReport] = []
    vertices = tuple(sorted(graph.vertices))
    if len(vertices) <= EXHAUSTIVE_LIMIT:
        for size in range(len(vertices) + 1):
            for combo in combinations(vertices, size):
                if _cycle_outside(graph, combo):
                    continue
                rep = _report(graph, combo, acyclic=True)
                if not rep.complete:
                    continue
                if want_basic and not rep.basic:
                    continue
                results.append(rep)
                if len(results) >= max_results:
                    return results
        return results
    rep = _greedy_seed(graph)
    if rep.complete and (rep.basic or not want_basic):
        results.append(rep)
    return results
