"""Seeded random generators shared by the property and acceptance tests.

Updates are built from the bounded-derivative vocabulary (linear leak
plus tanh/sin/cos/sech terms), so stability matrices always assemble and
orbits stay bounded: |leak| < 1 and every nonlinearity is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netstab.expr import BinOp, Call, Const, Expr, Interval, Var
from netstab.network import (
    InteractionGraph,
    TimeDelayedNetwork,
    build_network,
    interaction_graph,
    load_network,
    make_cohen_grossberg,
    network_from_exprs,
)
from netstab.structural import _check_subset, find_structural_sets

BOUNDED_FUNCS = ("tanh", "sin", "cos", "sech")


def _term(rng, coeff: float, func: str, src: str, delay: int, inner_coeff: float) -> Expr:
    inner: Expr = BinOp("*", Const(inner_coeff), Var(src, delay))
    if rng.random() < 0.3:
        inner = BinOp("+", inner, Const(float(rng.uniform(-1.0, 1.0))))
    return BinOp("*", Const(coeff), Call(func, inner))


def random_network(
    rng: np.random.Generator,
    n: int,
    max_delay: int = 0,
    amplitude: float = 0.3,
    non_distributed: bool = False,
    require_delay: bool = False,
    name: str = "",
) -> TimeDelayedNetwork:
    nodes = [f"x{i + 1}" for i in range(n)]
    updates: dict[str, Expr] = {}
    for j, node in enumerate(nodes):
        delay_of: dict[str, int] = {}

        def pick_delay(src: str) -> int:
            d = int(rng.integers(0, max_delay + 1))
            if non_distributed:
                d = delay_of.setdefault(src, d)
            return d

        terms: list[Expr] = []
        if rng.random() < 0.7:
            leak = float(rng.uniform(-0.6, 0.6))
            if leak != 0.0:
                terms.append(BinOp("*", Const(leak), Var(node, pick_delay(node))))
        for _ in range(int(rng.integers(1, 4))):
            src = nodes[int(rng.integers(0, n))]
            func = BOUNDED_FUNCS[int(rng.integers(0, len(BOUNDED_FUNCS)))]
            coeff = amplitude * float(rng.uniform(0.2, 1.0)) * (1 if rng.random() < 0.5 else -1)
            inner_coeff = float(rng.uniform(0.3, 1.5)) * (1 if rng.random() < 0.5 else -1)
            terms.append(_term(rng, coeff, func, src, pick_delay(src), inner_coeff))
        if rng.random() < 0.5:
            terms.append(Const(float(rng.uniform(-0.5, 0.5))))
        update = terms[0]
        for t in terms[1:]:
            update = BinOp("+", update, t)
        updates[node] = update

    net = network_from_exprs(
        tuple(nodes),
        {node: Interval.whole() for node in nodes},
        updates,
        name=name or f"random{n}",
    )
    if require_delay and net.T == 1 and max_delay > 0:
        # force one genuinely delayed read
        node = nodes[int(rng.integers(0, n))]
        src = nodes[int(rng.integers(0, n))]
        extra = _term(rng, 0.1 * amplitude, "tanh", src, max(1, max_delay // 2), 1.0)
        updates[node] = BinOp("+", updates[node], extra)
        net = network_from_exprs(
            tuple(nodes),
            {n_: Interval.whole() for n_ in nodes},
            updates,
            name=name or f"random{n}",
        )
    return net


def network_as_built(nodes, domains, updates) -> TimeDelayedNetwork:
    """The network of ``updates`` exactly as given, not normalized."""
    return TimeDelayedNetwork(tuple(nodes), dict(domains), dict(updates))


def loop_free_graph(rng: np.random.Generator, n: int, reads: int = 2) -> InteractionGraph:
    """Interaction graph on v0..v(n-1) where every vertex reads ``reads``
    distinct other vertices: no loops, so few vertices are forced into a
    structural set and the search has the most to do."""
    vertices = tuple(f"v{i}" for i in range(n))
    edges = {}
    for j in range(n):
        for i in rng.choice([i for i in range(n) if i != j], size=reads, replace=False):
            edges[(vertices[int(i)], vertices[j])] = frozenset({0})
    return InteractionGraph(vertices=vertices, edges=edges)


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


def branch_set(graph: InteractionGraph, S) -> list[Branch]:
    """Oracle: all paths/cycles with endpoints in S and no interior vertex
    in S, which ``structural`` counts without listing.

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


def admissible_sequences(graph: InteractionGraph, S) -> list[Branch]:
    """Oracle: branches with more than two vertices; each spawns a delay
    chain in the expansion."""
    return [b for b in branch_set(graph, S) if len(b) > 2]


def random_complete_set(rng: np.random.Generator, net: TimeDelayedNetwork):
    """A uniformly chosen complete structural set, preferring proper ones."""
    graph = interaction_graph(net)
    reports = find_structural_sets(graph, want_basic=False, max_results=128)
    if not reports:
        return None
    proper = [r for r in reports if len(r.S) < len(graph.vertices)]
    pool = proper if proper else reports
    return pool[int(rng.integers(0, len(pool)))].S


def random_basic_set(rng: np.random.Generator, net: TimeDelayedNetwork):
    """A basic structural set smaller than V, if one exists."""
    graph = interaction_graph(net)
    reports = find_structural_sets(graph, want_basic=True, max_results=128)
    proper = [r for r in reports if len(r.S) < len(graph.vertices)]
    if not proper:
        return None
    return proper[int(rng.integers(0, len(proper)))].S


def diamond_network(rng: np.random.Generator, k: int) -> TimeDelayedNetwork:
    """s -> (a1, b1) -> ... -> (ak, bk) -> s, every read through tanh.

    a_i reads layer i-1 with weights (p_i, q_i) and b_i with (q_i, p_i),
    so restricting onto {s} inlines each layer into both nodes of the next:
    2^k branches through 2k + 1 nodes.  Built from rule text, as a file
    would be.
    """
    p, q = rng.uniform(0.2, 0.4), rng.uniform(0.5, 0.7)
    rules = {"s": [], "a1": [f"{p!r}*tanh(s)"], "b1": [f"{q!r}*tanh(s)"]}
    for i in range(2, k + 1):
        p, q = rng.uniform(0.2, 0.4), rng.uniform(0.5, 0.7)
        a, b = f"a{i - 1}", f"b{i - 1}"
        rules[f"a{i}"] = [f"{p!r}*tanh({a})", f"{q!r}*tanh({b})"]
        rules[f"b{i}"] = [f"{q!r}*tanh({a})", f"{p!r}*tanh({b})"]
    back = rng.uniform(0.4, 0.5)
    rules["s"] = [f"{back!r}*tanh(a{k})", f"{back!r}*tanh(b{k})"]
    lines = ["network diamond"] + [f"node {v} domain [-inf,inf]" for v in rules]
    lines += [f"update {v} = {' + '.join(terms)}" for v, terms in rules.items()]
    return load_network("\n".join(lines) + "\n")


def build_benchmark_network(nodes: int) -> TimeDelayedNetwork:
    """Delayed Cohen-Grossberg ring with leak 0.5 (rng 12345): every node
    reads both neighbours through tanh with weights U(0.05, 0.25) at
    delays 0..3, and itself at delay 1.  The orbit benchmark's ring."""
    rng = np.random.default_rng(12345)
    W = np.zeros((nodes, nodes))
    delays = np.zeros((nodes, nodes), dtype=int)
    for j in range(nodes):
        for i in ((j - 1) % nodes, (j + 1) % nodes):
            W[i, j] = rng.uniform(0.05, 0.25)
            delays[i, j] = int(rng.integers(0, 4))
    return make_cohen_grossberg(
        W, 0.5, b=1.0, c=rng.uniform(-0.2, 0.2, nodes),
        delays=delays, self_delays=np.ones(nodes, dtype=int),
        name="bench_ring",
    )


def rescaled_ring(n: int, max_delay: int, excess: float, seed: int = 12345) -> TimeDelayedNetwork:
    """Linear ring with the weights and delays of ``build_benchmark_network``
    (rng ``seed``, neighbour delays 0..max_delay, self delay 1, leak 0.5),
    scaled so that the spectral radius of its stability matrix is
    1 + excess.

    Its lag blocks A_d are nonnegative, so the Perron root r solves
    r = rho(sum_d A_d r^-d); scaling every block by r / rho(sum_d A_d r^-d)
    puts the root at r.
    """
    rng = np.random.default_rng(seed)
    terms = {j: [(0.5, j, 1)] for j in range(n)}
    for j in range(n):
        for i in ((j - 1) % n, (j + 1) % n):
            terms[j].append((rng.uniform(0.05, 0.25), i, int(rng.integers(0, max_delay + 1))))
    r = 1.0 + excess
    lagged = np.zeros((n, n))
    for j, row in terms.items():
        for w, i, d in row:
            lagged[j, i] += w * r**-d
    s = r / np.max(np.abs(np.linalg.eigvals(lagged)))
    rules = [
        (f"x{j}", " + ".join(f"{float(w * s)!r}*x{i}[-{d}]" for w, i, d in row))
        for j, row in terms.items()
    ]
    return build_network([(f"x{j}", Interval.whole()) for j in range(n)], rules)


def chained_component(rng: np.random.Generator, n: int, kept_share: float,
                      reads: int = 3) -> np.ndarray:
    """An irreducible n x n nonnegative matrix whose chains of single-entry
    rows hold about 1 - ``kept_share`` of its vertices.

    round(kept_share * n) vertices each read the next one on a random cycle
    and ``reads`` random others, with weights U(0.1, 1); the other vertices
    are spliced into those edges as chains (delay lines with weights
    U(0.5, 1.5)), each edge taking a multinomial share of them.
    """
    m = round(kept_share * n)
    perm = rng.permutation(m)
    edges = {(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)}
    for i in range(m):
        edges |= {(i, int(j)) for j in rng.choice(m, size=reads, replace=False) if j != i}
    edges = sorted(edges)
    M = np.zeros((n, n))
    nxt = m
    for (i, j), length in zip(edges, rng.multinomial(n - m, np.full(len(edges), 1 / len(edges)))):
        at, weight = i, rng.uniform(0.1, 1.0)
        for _ in range(length):
            M[at, nxt] = weight
            at, nxt, weight = nxt, nxt + 1, rng.uniform(0.5, 1.5)
        M[at, j] = weight
    return M
