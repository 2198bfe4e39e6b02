"""Seeded random generators shared by the property and acceptance tests,
and the reference oracles they check the library against.

Updates are built from the bounded-derivative vocabulary (linear leak
plus tanh/sin/cos/sech terms), so stability matrices always assemble and
orbits stay bounded: |leak| < 1 and every nonlinearity is bounded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from netstab import engine, sim
from netstab.errors import EvalError, NetworkError, ParseError
from netstab.expr import (FUNCTIONS, MAX_NESTING, OPERATORS, _PREC, BinOp, Call, Const, Expr,
                          Interval, Var, _call, _div, _evaluate, _finite)
from netstab.network import (
    _NODE_ID,
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


# ---------------------------------------------------------------------------
# reference front end: the parser and normalizer as they were before their
# constructors looked keys up first, normalize flattened each additive chain
# once and the parser kept its token in slots.  The oracles of
# ``parse_expression`` and ``normalize``: both must return the very node
# these do, or raise the same error.


_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/()\[\]]))"
)
_REF_GROUP_KEY = 16


class _ReferenceParser:
    """Recursive descent over tokens read lazily from a character position.

    A printed restriction spells every shared node out once per path, so
    its text repeats the same parenthesised groups many times.  The parser
    remembers the inner text, node and nesting height of each group it has
    parsed, keyed by the text's first characters.  At a ``(`` whose text
    goes on with a remembered inner text and then ``)``, it steps over the
    copy: the inner text is balanced, so that ``)`` closes the group.  It
    reads each distinct group once, and never scans the whole text.
    """

    def __init__(self, text: str, declared: set[str]):
        self.text = text
        self.declared = declared
        self.seek(0)
        self.depth = 0
        # deepest nesting reached inside the innermost open group
        self.peak = 0
        # first _REF_GROUP_KEY characters -> (inner text, node, nesting height)
        # of each group parsed so far
        self.groups: dict[str, list[tuple[str, Expr, int]]] = {}

    def seek(self, pos: int):
        """Read the token that starts at or after ``pos`` into ``self.tok``.

        A character no token starts with becomes a ``bad`` token, an error
        only once the parse reaches it.
        """
        text = self.text
        m = _REF_TOKEN_RE.match(text, pos)
        if m is not None:
            kind = m.lastgroup
            self.tok, self.end = (kind, m.group(kind), m.start(kind)), m.end()
            return
        stripped = text[pos:].lstrip()
        at = len(text) - len(stripped)
        self.tok = ("bad", stripped[0], at) if stripped else ("end", "", at)
        self.end = at + 1

    def error(self, message: str, tok) -> ParseError:
        kind, value, pos = tok
        if kind == "bad":
            message = f"unexpected character {value!r}"
        return ParseError(message, pos)

    def nested(self, at: int, open_pos: int) -> Expr:
        """The expression inside the group that opens at ``open_pos``, one
        level deeper, up to and past its closing parenthesis; ``at`` is
        where a nesting error is reported."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        text, start = self.text, open_pos + 1
        for inner, node, height in self.groups.get(text[start:start + _REF_GROUP_KEY], ()):
            close = start + len(inner)
            # a copy of a parsed group parses to the same node, unless it now
            # sits too deep: then it is parsed again and fails where it must
            if (
                text.startswith(inner, start) and text.startswith(")", close)
                and self.depth + 1 + height <= MAX_NESTING
            ):
                self.peak = max(self.peak, self.depth + 1 + height)
                self.seek(close + 1)
                return node
        self.depth += 1
        outer_peak, self.peak = self.peak, self.depth
        e = self.expr()
        height = self.peak - self.depth
        self.peak = max(outer_peak, self.peak)
        self.depth -= 1
        close = self.tok[2]
        self.expect_op(")")
        if close - start >= _REF_GROUP_KEY:
            self.groups.setdefault(text[start:start + _REF_GROUP_KEY], []).append(
                (text[start:close], e, height))
        return e

    def advance(self):
        tok = self.tok
        self.seek(self.end)
        return tok

    def expect_op(self, symbol: str):
        kind, value, _ = self.tok
        if kind != "op" or value != symbol:
            raise self.error(f"expected {symbol!r}", self.tok)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, _ = self.tok
        if kind != "end":
            raise self.error(f"unexpected trailing input {value!r}", self.tok)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.tok
            if kind == "op" and value in ("+", "-"):
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.tok
            if kind == "op" and value in ("*", "/"):
                self.advance()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.tok
        if kind == "op" and value == "-":
            self.advance()
            # a minus sign directly on a numeral is the negative constant
            if self.tok[0] == "num":
                return self.atom(-1.0)
            return Call("neg", self.atom())
        return self.atom()

    def atom(self, sign: float = 1.0) -> Expr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            number = float(value)
            if math.isinf(number):
                raise ParseError(f"numeral {value} is out of the float range", pos)
            return Const(sign * number)
        if kind == "op" and value == "(":
            return self.nested(pos, pos)
        if kind == "ident":
            nxt_kind, nxt_value, nxt_pos = self.tok
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                return Call(value, self.nested(pos, nxt_pos))
            if value not in self.declared:
                raise ParseError(f"undeclared identifier {value!r}", pos)
            delay = 0
            if nxt_kind == "op" and nxt_value == "[":
                self.advance()
                self.expect_op("-")
                dtok = self.advance()
                if dtok[0] != "num" or not dtok[1].isdigit():
                    raise self.error("delay must be a nonnegative integer", dtok)
                delay = int(dtok[1])
                self.expect_op("]")
            return Var(value, delay)
        raise self.error(f"unexpected token {value!r}", tok)


def reference_parse(text: str, declared: set[str] | frozenset[str]) -> Expr:
    """What ``parse_expression(text, declared)`` returns or raises.

    Reads ``declared`` without copying it (the copy was a set per rule,
    which only costs time), so it can check large expanded networks.
    """
    return _ReferenceParser(text, declared).parse()


def _reference_render(e: Expr, shared: dict[Expr, str]) -> str:
    """The text of ``e``, taking the text of every node in ``shared`` from
    there: a node prints the same wherever it sits."""
    pieces: list[str] = []
    stack: list[Expr | str] = [e]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            pieces.append(cur)
        elif cur in shared:
            pieces.append(shared[cur])
        elif isinstance(cur, Const):
            pieces.append(repr(cur.value))
        elif isinstance(cur, Var):
            pieces.append(cur.node if cur.delay == 0 else f"{cur.node}[-{cur.delay}]")
        elif isinstance(cur, Call) and cur.func == "neg":
            if isinstance(cur.arg, (BinOp, Const)) or (
                isinstance(cur.arg, Call) and cur.arg.func == "neg"
            ):
                # so "-" does not merge into a numeral, grab only part of
                # the operand, or stack into the ungrammatical "--"
                stack += [")", cur.arg, "-("]
            else:
                stack += [cur.arg, "-"]
        elif isinstance(cur, Call):
            stack += [")", cur.arg, f"{cur.func}("]
        elif isinstance(cur, BinOp):
            lp = _PREC[cur.op]
            left, right = cur.left, cur.right
            if (isinstance(right, BinOp) and _PREC[right.op] <= lp) or (
                isinstance(right, Call) and right.func == "neg" and cur.op in ("-", "/")
            ):
                stack += [")", right, "("]
            else:
                stack.append(right)
            stack.append(f" {cur.op} ")
            if isinstance(left, BinOp) and _PREC[left.op] < lp:
                stack += [")", left, "("]
            else:
                stack.append(left)
        else:
            raise TypeError(f"not an expression: {cur!r}")
    return "".join(pieces)


def _reference_postorder(e: Expr) -> list[Expr]:
    """Each distinct node below ``e``, once, children before parents, where
    the children of an additive chain are its terms."""
    order: list[Expr] = []
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node is None:  # the node below has all its children in order
            order.append(stack.pop())
            continue
        if node in seen:
            continue
        seen.add(node)
        kind = type(node)
        if kind is BinOp:
            if node.op in ("+", "-"):
                stack += (node, None)
                stack += [term for _, term in reversed(_reference_flatten_add(node))]
            else:
                stack += (node, None, node.right, node.left)
        elif kind is Call:
            stack += (node, None, node.arg)
        else:
            order.append(node)
    return order


def _reference_flatten_add(e: Expr) -> list[tuple[int, Expr]]:
    """The signed terms of the additive chain at ``e``, left to right."""
    terms: list[tuple[int, Expr]] = []
    stack = [(1, e)]
    while stack:
        sign, cur = stack.pop()
        if isinstance(cur, BinOp) and cur.op in ("+", "-"):
            stack.append((-sign if cur.op == "-" else sign, cur.right))
            stack.append((sign, cur.left))
        elif isinstance(cur, Call) and cur.func == "neg":
            stack.append((-sign, cur.arg))
        else:
            terms.append((sign, cur))
    return terms


def _reference_flatten_mul(e: Expr, factors: list[Expr]) -> float:
    """Append the non-constant factors of the product chain at ``e`` to
    ``factors``, left to right, and return its constant coefficient.

    The coefficient is multiplied up in the chain's own grouping, left
    factor times right factor, so it does not depend on how the chain
    was walked.
    """
    if isinstance(e, Const):
        return e.value
    if not (
        isinstance(e, BinOp) and e.op == "*" or isinstance(e, Call) and e.func == "neg"
    ):
        factors.append(e)
        return 1.0
    order: list[Expr] = []
    stack = [e]
    while stack:
        cur = stack.pop()
        order.append(cur)
        if isinstance(cur, BinOp) and cur.op == "*":
            stack += [cur.left, cur.right]
        elif isinstance(cur, Call) and cur.func == "neg":
            stack.append(cur.arg)
    # order is root, right, left: reversed, every node follows its operands
    coeffs: list[float] = []
    for cur in reversed(order):
        if isinstance(cur, BinOp) and cur.op == "*":
            right = coeffs.pop()
            coeffs.append(_finite(coeffs.pop() * right))
        elif isinstance(cur, Call) and cur.func == "neg":
            coeffs.append(-coeffs.pop())
        elif isinstance(cur, Const):
            coeffs.append(cur.value)
        else:
            factors.append(cur)
            coeffs.append(1.0)
    return coeffs[0]


def _reference_key(e: Expr, keys: dict[Expr, str]) -> str:
    """``to_text(e)``, rendered once per :func:`reference_normalize` call from the
    texts of the nodes keyed before it."""
    text = keys.get(e)
    if text is None:
        text = keys[e] = _reference_render(e, keys)
    return text


def _reference_rebuild_product(coeff: float, factors: list[Expr], keys: dict) -> Expr:
    if coeff == 0.0:
        return Const(0.0)
    if len(factors) > 1:
        factors = sorted(factors, key=lambda f: _reference_key(f, keys))
    out: Expr | None = None
    for f in factors:
        out = f if out is None else BinOp("*", out, f)
    if out is None:
        return Const(coeff)
    if coeff == 1.0:
        return out
    if coeff == -1.0:
        return Call("neg", out)
    return BinOp("*", Const(coeff), out)


def _reference_normalize_sum(e: Expr, normal: dict[Expr, Expr], keys: dict) -> Expr:
    const_part = 0.0
    grouped: dict[str, tuple[Expr, float]] = {}
    for sign, term in _reference_flatten_add(e):
        factors: list[Expr] = []
        coeff = sign * _reference_flatten_mul(normal[term], factors)
        if not factors:
            const_part = _finite(const_part + coeff)
            continue
        core = _reference_rebuild_product(1.0, factors, keys)
        key = _reference_key(core, keys)
        prev = grouped.get(key)
        grouped[key] = (core, _finite(coeff + (prev[1] if prev else 0.0)))
    out: Expr | None = None
    for key in sorted(grouped):
        core, coeff = grouped[key]
        piece = _reference_rebuild_product(coeff, [core], keys)
        if isinstance(piece, Const) and piece.value == 0.0:
            continue
        out = piece if out is None else BinOp("+", out, piece)
    if out is None:
        return Const(const_part)
    if const_part != 0.0:
        out = BinOp("+", out, Const(const_part))
    return out


def reference_normalize(e: Expr) -> Expr:
    """What ``normalize(e)`` returns or raises: every additive chain is
    flattened again to be summed, and every normal term is flattened again
    and its core rebuilt to read its coefficient."""
    normal: dict[Expr, Expr] = {}
    keys: dict[Expr, str] = {}
    for cur in _reference_postorder(e):
        if isinstance(cur, (Const, Var)):
            out = cur
        elif isinstance(cur, Call):
            out = _call(cur.func, normal[cur.arg])
        elif not isinstance(cur, BinOp):
            raise TypeError(f"not an expression: {cur!r}")
        elif cur.op == "/":
            out = _div(normal[cur.left], normal[cur.right])
        elif cur.op == "*":
            factors: list[Expr] = []
            coeff = _reference_flatten_mul(normal[cur.left], factors)
            coeff = _finite(coeff * _reference_flatten_mul(normal[cur.right], factors))
            out = _reference_rebuild_product(coeff, factors, keys)
        else:
            out = _reference_normalize_sum(cur, normal, keys)
        normal[cur] = out
    return normal[e]


def reference_build_network(declarations, rules, name: str = "") -> TimeDelayedNetwork:
    """What ``build_network`` returns or raises: every rule read whole by
    :func:`reference_parse` first, then each normalized by
    :func:`reference_normalize`, as before rules were read straight into
    their normal form.  Node ids are checked before any rule is read."""
    nodes = tuple(n for n, _ in declarations)
    if len(set(nodes)) != len(nodes):
        raise NetworkError("duplicate node declaration")
    for node in nodes:
        if not _NODE_ID.fullmatch(node):
            raise NetworkError(f"node id {node!r} is not an identifier")
    declared = frozenset(nodes)
    updates: dict[str, Expr] = {}
    for node, text in rules:
        if node not in declared:
            raise NetworkError(f"rule for undeclared node {node!r}")
        if node in updates:
            raise NetworkError(f"duplicate rule for node {node!r}")
        try:
            updates[node] = reference_parse(text, declared)
        except ParseError as err:
            raise NetworkError(f"rule for {node!r}: {err}") from err
    missing = declared - set(updates)
    if missing:
        raise NetworkError(f"missing rules for nodes {sorted(missing)}")
    normal = {}
    for node, update in updates.items():
        try:
            normal[node] = reference_normalize(update)
        except EvalError as err:
            raise NetworkError(f"update of {node!r}: {err}") from err
    return network_from_exprs(nodes, dict(declarations), normal, name=name)


# ---------------------------------------------------------------------------
# orbit oracles


def eval_interval(e: Expr, box: dict[tuple[str, int], Interval]) -> Interval:
    """Enclose the range of ``e`` over a box of variable intervals: the one
    evaluator's interval kernel on a single root.

    Sound: for every assignment drawn from the box, ``eval_point`` lands
    inside the result.  Bounded primitives give bounded output even over
    unbounded boxes; polynomial growth over an unbounded box yields
    infinite endpoints.
    """
    return _evaluate((e,), box, "interval")[0]


def full_orbit_batch(program, histories, steps, stop_delta=0.0, path=None):
    """``engine.run_orbit_batch`` keeping every state: (states, steps_done,
    diverged), state r of trial t in ``states[t, r]``, zeros past its end."""
    trials, T, n = np.shape(histories)
    states = np.zeros((trials, T + steps, n))

    def reduce(ids, lengths, tails):
        # every state is kept, so row r of ``tails`` is state r
        for i, (t, length) in enumerate(zip(ids.tolist(), lengths.tolist())):
            states[t, :length] = tails[:length, :, i]

    done, diverged = engine.run_orbit_batch(
        program, histories, steps, stop_delta, path, (lambda lengths: lengths, reduce)
    )
    return states, done, diverged


def _reference_registers(program, trials):
    regs = np.zeros((program.n_regs, trials))
    c = program.const_offset
    regs[c : c + program.consts.shape[0], :] = program.consts[:, None]
    rows = tuple(OPERATORS.values())
    tape = [
        (rows[op].array, (regs[a],) if b < 0 else (regs[a], regs[b]), regs[dst])
        for op, dst, a, b in program.ops.tolist()
    ]
    return regs, tape


def _reference_run(tape):
    for kernel, args, out in tape:
        kernel(*args, out=out)


def reference_orbit_batch(program, histories, steps, stop_delta=0.0):
    """The orbit loop run one instruction of ``Program.ops`` at a time."""
    histories = np.asarray(histories, dtype=np.float64)
    trials, T, n = histories.shape
    hist = np.zeros((trials, T + steps, n))
    hist[:, :T, :] = histories
    regs, tape = _reference_registers(program, trials)
    steps_done = np.full(trials, steps, dtype=np.int64)
    diverged = np.zeros(trials, dtype=bool)
    active = np.ones(trials, dtype=bool)
    streak = np.zeros(trials, dtype=np.int64)
    with np.errstate(all="ignore"):
        for k in range(steps):
            if not active.any():
                break
            r = T + k
            # the window, oldest state first: delay d of node i is row (T - 1 - d) * n + i
            regs[: T * n] = hist[:, r - T : r, :].transpose(1, 2, 0).reshape(T * n, trials)
            _reference_run(tape)
            out = regs[program.out_regs, :]
            finite = np.isfinite(out).all(axis=0)
            delta = np.max(np.abs(out - hist[:, r - 1, :].T), axis=0)
            newly_diverged = active & ~finite
            steps_done[newly_diverged] = k
            diverged[newly_diverged] = True
            active &= finite
            write = np.nonzero(active)[0]
            hist[write, r, :] = out[:, write].T
            if stop_delta > 0.0:
                streak = np.where(delta <= stop_delta, streak + 1, 0)
                stopping = active & (streak >= engine.STOP_STREAK)
                steps_done[stopping] = k + 1
                active &= ~stopping
    return hist, steps_done, diverged


def reference_apply_undelayed(program, x):
    regs, tape = _reference_registers(program, 1)
    regs[: program.T * program.n_nodes, 0] = np.tile(x, program.T)
    with np.errstate(all="ignore"):
        _reference_run(tape)
    return regs[program.out_regs, 0]


def _ring_orbit_batch(program, histories, steps, stop_delta, keep, path):
    """The block-stepping batch keeping each trial's last ``keep`` states in
    a trial-major ring, (keep, trials, n), written every block: state r of
    a trial in row ``r % keep`` of the returned (trials, keep, n)."""
    histories = np.asarray(histories, dtype=np.float64)
    trials, T, n = histories.shape
    ring = np.zeros((keep, trials, n), dtype=np.float64)
    first = max(0, T - keep)
    ring[np.arange(first, T) % keep] = histories[:, first:].transpose(1, 0, 2)
    if path is not None:
        path[:T] = histories[0]
    regs = engine._registers(program, trials)
    width = engine.STOP_STREAK
    block = regs[: (T + width) * n].reshape(T + width, n, trials)
    block[:T] = histories.transpose(1, 2, 0)
    phases = engine._bind(program.plan, regs)
    ids = np.arange(trials)
    steps_done = np.full(trials, steps, dtype=np.int64)
    diverged = np.zeros(trials, dtype=bool)
    streak = np.zeros(trials, dtype=np.int64)
    with np.errstate(all="ignore"):
        for k in range(0, steps, width):
            if ids.size == 0:
                break
            b = min(width, steps - k)
            for tape in phases[:b]:
                engine._run(tape, regs)
            states = block[T : T + b]
            change = engine._change(states, block[T - 1 : T - 1 + b])
            bad = stop = np.full(ids.size, b)
            if not np.isfinite(change).all():
                finite = np.isfinite(states).all(axis=1)
                bad = np.where(finite.all(axis=0), b, finite.argmin(axis=0))
            if stop_delta > 0.0:
                at = np.arange(1, b + 1)[:, None]
                last = np.where(change <= stop_delta, -streak, at)
                run = at - np.maximum.accumulate(last, axis=0)
                complete = run >= engine.STOP_STREAK
                stop = np.where(complete.any(axis=0), complete.argmax(axis=0), b)
                streak = run[-1]
            if path is not None:
                length = min(int(bad[0]), int(stop[0]), b - 1) + 1
                path[T + k : T + k + length] = states[:length, :, 0]
            live = (bad == b) & (stop == b)
            if not live.all():
                gone = bad < stop
                written = np.where(gone, bad, stop + 1)
                at = np.arange(b)[:, None]
                js, ts = np.nonzero((at < written) & (at >= written - keep) & ~live)
                ring[(T + k + js) % keep, ids[ts]] = states[js, :, ts]
                diverged[ids[gone]] = True
                steps_done[ids[gone]] = k + bad[gone]
                stopped = ~gone & ~live
                steps_done[ids[stopped]] = k + stop[stopped] + 1
                if not live[0]:
                    path = None
                ids = ids[live]
                streak = streak[live]
                regs = engine._compress(regs, live)
                block = regs[: (T + width) * n].reshape(T + width, n, ids.size)
                phases = engine._bind(program.plan, regs)
                states = block[T : T + b]
            rows = (T + k + np.arange(max(0, b - keep), b)) % keep
            ring[rows[:, None], ids] = states[b - rows.size :].transpose(0, 2, 1)
            block[:T] = block[b : b + T]
    return ring.transpose(1, 0, 2), steps_done, diverged


def _ring_tail_diameters(states, lo, hi):
    """The box diameter of states ``lo[t] .. hi[t] - 1`` of each trial t of
    a ring ``states`` (state r in row ``r % keep``), 0 where empty."""
    width = max(1, int((hi - lo).max()))
    rows = np.minimum(lo[:, None] + np.arange(width), hi[:, None] - 1) % states.shape[1]
    segment = states[np.arange(states.shape[0])[:, None], rows]
    diameter = (segment.max(axis=1) - segment.min(axis=1)).max(axis=1)
    return np.where(hi > lo, diameter, 0.0)


def reference_attraction(net, trials, steps, sample_box=None, tol=1e-8, seed=0, record=False):
    """What ``sim._attraction`` returns: the attraction check read off a
    ring of each trial's last max(8, (T + steps) // 4) states, which the
    batch fills as it runs, and trial 0's trajectory when ``record``."""
    lo, hi = sim.sampling_box(net, sample_box)
    rng = np.random.default_rng(seed)
    program = engine.compile_network(net)
    keep = max(8, (net.T + steps) // 4)
    path = np.empty((net.T + steps, net.size)) if record else None
    states, steps_done, diverged = _ring_orbit_batch(
        program, rng.uniform(lo, hi, size=(trials, net.T, net.size)),
        steps, tol * 1e-3, keep, path,
    )
    notes = []
    n_div = int(diverged.sum())
    lengths = net.T + steps_done
    endpoints = states[np.arange(trials), (lengths - 1) % keep]
    tail = np.minimum(lengths, np.maximum(8, lengths // 4))
    middle = lengths - tail + tail // 2
    d1 = _ring_tail_diameters(states, lengths - tail, middle)
    d2 = _ring_tail_diameters(states, middle, lengths)
    shrinking = not (d2 > d1 * (1.0 + 1e-9) + 1e-15).any()
    spread = sim._box_diameter(endpoints) if n_div == 0 else np.inf
    converged = n_div == 0 and shrinking and spread <= tol
    if n_div:
        notes.append(f"{n_div} trial(s) diverged to non-finite values")
    if not shrinking:
        notes.append("tail diameter increased in at least one trial")
    verdict = sim.AttractionVerdict(
        converged=converged,
        witness=endpoints.mean(axis=0) if converged else None,
        final_diameter=float(spread),
        iterations_used=int(steps_done.max()),
        trials=trials,
        seed=seed,
        diverged_trials=n_div,
        trial_steps=int(steps_done.sum()),
        notes=tuple(notes),
    )
    if path is None:
        return verdict, None
    done, gone = int(steps_done[0]), bool(diverged[0])
    if done < steps and not gone:
        _, more, alone = _ring_orbit_batch(
            program, path[None, done : net.T + done], steps - done, 0.0, 1, path[done:]
        )
        done, gone = done + int(more[0]), bool(alone[0])
    return verdict, sim._trajectory(net, path, done, gone)
