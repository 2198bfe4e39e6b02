"""Network model: nodes with domains, delayed update rules, and the
derived interaction graph.

A network holds one update expression per node.  What each rule reads,
its (source, delay) pairs, is decided once, in ``TimeDelayedNetwork.reads``;
``T`` (``1 + max read delay``), the lag coordinates, the interaction graph,
the restriction's branches and the stability partials all follow from it.
A network with ``T == 1`` is undelayed.  Networks are immutable after
construction and all queries are pure.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from . import expr as ex
from .errors import EvalError, NetworkError, ParseError
from .expr import Const, Expr, Interval, Var

__all__ = [
    "TimeDelayedNetwork",
    "InteractionGraph",
    "CohenGrossbergParams",
    "build_network",
    "network_from_exprs",
    "make_cohen_grossberg",
    "interaction_graph",
    "is_non_distributed",
    "max_delay_profile",
    "load_network",
    "dump_network",
    "REPORT_SCHEMA",
    "report_json",
]

# the "schema" tag of every JSON report: analyze, sets and simulate
REPORT_SCHEMA = "netstab-report/5"


def report_json(obj) -> str:
    """The text of every JSON report: one line with sorted keys.  Without
    ``indent``, ``json`` encodes in C; ``python -m json.tool`` pretty-prints."""
    return json.dumps(obj, sort_keys=True)


# Largest delay a rule may read: de-delaying adds one coordinate per
# delay step of a node, so the cap bounds the state a rule can ask for.
MAX_DELAY = 64


@dataclass(frozen=True)
class CohenGrossbergParams:
    """Parameters a Cohen-Grossberg builder call was made with.

    Kept on the network so the analyzer can also report the closed-form
    criterion |1 - eps| + L * rho(|W|).
    """

    weights: tuple[tuple[float, ...], ...]
    epsilon: float
    lipschitz: float


@dataclass(frozen=True)
class TimeDelayedNetwork:
    nodes: tuple[str, ...]
    domains: dict[str, Interval]
    updates: dict[str, Expr]
    name: str = ""
    cg: CohenGrossbergParams | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def reads(self) -> dict[str, frozenset[tuple[str, int]]]:
        """Node -> the (source, delay) pairs its update reads.

        A rule that is one read, as every delay line's is, is not walked.
        """
        reads = {}
        for node in self.nodes:
            e = self.updates[node]
            reads[node] = frozenset({(e.node, e.delay)} if type(e) is ex.Var else ex.references(e))
        return reads

    @cached_property
    def T(self) -> int:
        """1 + the largest delay any update reads."""
        return 1 + max((d for refs in self.reads.values() for _, d in refs), default=0)


@dataclass(frozen=True)
class InteractionGraph:
    """Directed dependency graph; edge (i, j) means update j reads node i,
    labeled with the set of delays at which it does."""

    vertices: tuple[str, ...]
    edges: dict[tuple[str, str], frozenset[int]]

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        return _sorted_adjacency(self.edges)

    @cached_property
    def _predecessors(self) -> dict[str, tuple[str, ...]]:
        return _sorted_adjacency((t, s) for s, t in self.edges)

    def successors(self, v: str) -> tuple[str, ...]:
        return self._successors.get(v, ())

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._predecessors.get(v, ())

    def has_edge(self, src: str, tgt: str) -> bool:
        return (src, tgt) in self.edges


def _sorted_adjacency(pairs) -> dict[str, tuple[str, ...]]:
    """Map each vertex to the sorted tuple of vertices it points to."""
    adjacent: dict[str, list[str]] = {}
    for v, w in pairs:
        adjacent.setdefault(v, []).append(w)
    return {v: tuple(sorted(ws)) for v, ws in adjacent.items()}


# a node id is an identifier of the expression grammar, so that every rule
# that reads it prints as text that reads it back
_NODE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def network_from_exprs(
    nodes: tuple[str, ...] | list[str],
    domains: dict[str, Interval],
    updates: dict[str, Expr],
    name: str = "",
    cg: CohenGrossbergParams | None = None,
) -> TimeDelayedNetwork:
    """Assemble a network from already-built expression trees.

    Node ids must be identifiers of the expression grammar
    (``[A-Za-z_][A-Za-z0-9_]*``).  Updates are normalized so that terms multiplied by a literal zero
    (and exactly cancelling terms) drop out and the interaction graph
    reflects true dependence; a division by a literal zero is an error.
    """
    nodes = tuple(nodes)
    declared = set(nodes)
    for node in nodes:
        _check_id(node)
        if node not in updates:
            raise NetworkError(f"no update for node {node!r}")
        if node not in domains:
            raise NetworkError(f"no domain for node {node!r}")
    extra = set(updates) - declared
    if extra:
        raise NetworkError(f"updates for undeclared nodes {sorted(extra)}")
    rules = ((node, ex._normal_form(update)) for node, update in updates.items())
    return _assembled(nodes, domains, rules, name, cg)


def _check_id(node) -> None:
    if not (isinstance(node, str) and _NODE_ID.fullmatch(node)):
        raise NetworkError(f"node id {node!r} is not an identifier")


def _normal_rules(rules) -> dict[str, Expr]:
    """The (node, normal form) pairs ``rules`` as a dict, read in rule order;
    the first folding failure in place of a form is raised, naming its rule."""
    normal = {}
    for node, rule in rules:
        if type(rule) is EvalError:
            raise NetworkError(f"update of {node!r}: {rule}") from rule
        normal[node] = rule
    return normal


def _assembled(nodes: tuple[str, ...], domains: dict[str, Interval], rules,
               name: str, cg: CohenGrossbergParams | None) -> TimeDelayedNetwork:
    """The network of the :func:`_normal_rules` ``rules`` of ``nodes``, once
    each reads only declared nodes at delays up to ``MAX_DELAY``."""
    declared = set(nodes)
    net = TimeDelayedNetwork(nodes=nodes, domains=dict(domains), updates=_normal_rules(rules),
                             name=name, cg=cg)
    for node, refs in net.reads.items():
        for ref_node, delay in refs:
            if ref_node not in declared:
                raise NetworkError(
                    f"update of {node!r} references undeclared node {ref_node!r}"
                )
            if delay > MAX_DELAY:
                raise NetworkError(
                    f"update of {node!r} references {ref_node!r} at delay "
                    f"{delay}, above the cap {MAX_DELAY}"
                )
    return net


def build_network(
    declarations: list[tuple[str, Interval]],
    rules: list[tuple[str, str]],
    name: str = "",
) -> TimeDelayedNetwork:
    """Parse and validate a network from per-node rule text.

    ``declarations`` lists (node id, domain) in order; ``rules`` must
    cover each declared node exactly once.  Node ids are checked before
    any rule is read.  Each rule is read once, straight into its normal
    form or the folding failure ``normalize`` would raise on its parse.
    Errors come in this order: the first bad rule as rules are read (a
    syntax error, a duplicate or an undeclared node); missing rules; the
    first rule, in rule order, whose folding failed.
    """
    nodes = tuple(n for n, _ in declarations)
    if len(set(nodes)) != len(nodes):
        raise NetworkError("duplicate node declaration")
    for node in nodes:
        _check_id(node)
    domains = {n: dom for n, dom in declarations}
    declared = frozenset(nodes)  # the parser takes it without a copy

    updates: dict[str, Expr | EvalError] = {}
    for node, text in rules:
        if node not in declared:
            raise NetworkError(f"rule for undeclared node {node!r}")
        if node in updates:
            raise NetworkError(f"duplicate rule for node {node!r}")
        try:
            updates[node] = ex._parse_normal(text, declared)
        except ParseError as err:
            raise NetworkError(f"rule for {node!r}: {err}") from err
    missing = declared.difference(updates)
    if missing:
        raise NetworkError(f"missing rules for nodes {sorted(missing)}")
    return _assembled(nodes, domains, updates.items(), name, None)


def make_cohen_grossberg(
    W,
    epsilon: float,
    activation: str = "tanh",
    b: float = 1.0,
    c=None,
    delays=None,
    self_delays=None,
    name: str = "",
) -> TimeDelayedNetwork:
    """Discrete-time Cohen-Grossberg network, optionally with delays.

    Node j updates to ``(1-eps)*xj[-sj] + sum_i W[i,j]*phi(xi[-tau[i,j]]) + cj``
    where phi is ``tanh(b*.)`` or the scaled identity ``b*.`` and ``sj`` is
    the j-th self-delay.  Terms with zero weight are omitted, so the
    interaction graph matches the mathematical dependency set.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise NetworkError(f"weight matrix must be square, got shape {W.shape}")
    n = W.shape[0]
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    delays = np.zeros((n, n), dtype=int) if delays is None else np.asarray(delays, dtype=int)
    self_delays = (
        np.zeros(n, dtype=int) if self_delays is None else np.asarray(self_delays, dtype=int)
    )
    if c.shape != (n,) or delays.shape != (n, n) or self_delays.shape != (n,):
        raise NetworkError("c, delays and self_delays must match the weight shape")
    if activation not in ("tanh", "identity"):
        raise NetworkError(f"unknown activation {activation!r}")

    def phi(arg: Expr) -> Expr:
        scaled = ex.BinOp("*", Const(b), arg) if b != 1.0 else arg
        if activation == "tanh":
            return ex.Call("tanh", scaled)
        return scaled

    nodes = tuple(f"x{j + 1}" for j in range(n))
    updates: dict[str, Expr] = {}
    for j in range(n):
        terms: list[Expr] = []
        leak = 1.0 - epsilon
        if leak != 0.0:
            terms.append(
                ex.BinOp("*", Const(leak), Var(nodes[j], int(self_delays[j])))
            )
        for i in range(n):
            if W[i, j] == 0.0:
                continue
            terms.append(
                ex.BinOp(
                    "*", Const(W[i, j]), phi(Var(nodes[i], int(delays[i, j])))
                )
            )
        if c[j] != 0.0:
            terms.append(Const(c[j]))
        # summed left to right
        updates[nodes[j]] = reduce(partial(ex.BinOp, "+"), terms) if terms else Const(0.0)

    domains = {node: Interval.whole() for node in nodes}
    cg = CohenGrossbergParams(
        weights=tuple(tuple(row) for row in W),
        epsilon=float(epsilon),
        lipschitz=abs(b),
    )
    return network_from_exprs(nodes, domains, updates, name=name, cg=cg)


def interaction_graph(net: TimeDelayedNetwork) -> InteractionGraph:
    """Edge (i, j) with its exact delay set, for every read of i by j."""
    edges: dict[tuple[str, str], set[int]] = {}
    for target, refs in net.reads.items():
        for source, delay in refs:
            edges.setdefault((source, target), set()).add(delay)
    return InteractionGraph(
        vertices=net.nodes,
        edges={k: frozenset(v) for k, v in edges.items()},
    )


def is_non_distributed(net: TimeDelayedNetwork) -> bool:
    """True iff every update reads each source node at a single delay."""
    return all(
        len({source for source, _ in refs}) == len(refs) for refs in net.reads.values()
    )


def max_delay_profile(net: TimeDelayedNetwork) -> dict[str, int]:
    """Per source node, the maximum delay at which anything reads it."""
    profile = {node: 0 for node in net.nodes}
    for refs in net.reads.values():
        for source, delay in refs:
            profile[source] = max(profile[source], delay)
    return profile


# ---------------------------------------------------------------------------
# network file format


def _fmt_bound(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return repr(v)


def dump_network(net: TimeDelayedNetwork) -> str:
    """Serialize to the text format accepted by :func:`load_network`."""
    lines = [f"network {net.name or 'unnamed'}"]
    for node in net.nodes:
        dom = net.domains[node]
        lines.append(f"node {node} domain [{_fmt_bound(dom.lo)},{_fmt_bound(dom.hi)}]")
    for node in net.nodes:
        lines.append(f"update {node} = {ex.to_text(net.updates[node])}")
    return "\n".join(lines) + "\n"


def _parse_bound(text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise NetworkError(f"line {lineno}: bad domain bound {text!r}") from None


def load_network(text: str, name_hint: str = "") -> TimeDelayedNetwork:
    """Parse the network file format.

    Lines: ``network <name>``, then ``node <id> domain [<lo>,<hi>]`` per
    node (``-inf``/``inf`` allowed), then ``update <id> = <expression>``.
    ``#`` starts a comment.
    """
    name = name_hint
    declarations: list[tuple[str, Interval]] = []
    rules: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "network":
            name = rest.strip()
        elif keyword == "node":
            fields = rest.split()
            if len(fields) != 3 or fields[1] != "domain":
                raise NetworkError(f"line {lineno}: expected 'node <id> domain [lo,hi]'")
            ident, _, dom_text = fields
            dom_text = dom_text.strip()
            if not (dom_text.startswith("[") and dom_text.endswith("]")):
                raise NetworkError(f"line {lineno}: domain must look like [lo,hi]")
            bounds = dom_text[1:-1].split(",")
            if len(bounds) != 2:
                raise NetworkError(f"line {lineno}: domain must have two bounds")
            lo = _parse_bound(bounds[0].strip(), lineno)
            hi = _parse_bound(bounds[1].strip(), lineno)
            try:
                declarations.append((ident, Interval(lo, hi)))
            except ValueError as err:
                raise NetworkError(f"line {lineno}: {err}") from None
        elif keyword == "update":
            if "=" not in rest:
                raise NetworkError(f"line {lineno}: expected 'update <id> = <expr>'")
            ident, expr_text = rest.split("=", 1)
            rules.append((ident.strip(), expr_text.strip()))
        else:
            raise NetworkError(f"line {lineno}: unknown keyword {keyword!r}")
    if not declarations:
        raise NetworkError("no node declarations found")
    return build_network(declarations, rules, name=name)
