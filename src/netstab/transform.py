"""Restriction and expansion of undelayed networks over a structural set.

All three transforms inline: starting from the update of an S node, every
read of a non-S node is replaced by that node's update until only
S-variable leaves remain.  Each leaf then carries the branch (the S-to-S
dependency chain) it came through, and the transforms differ only in what
the leaf reads:

* restrict: the source node directly (delay 0),
* delayed expansion: the source node at delay |branch| - 2,
* expand: a chain of identity coordinates keyed by the full branch.

For the first two a leaf depends only on the length of its branch, so each
non-S node is inlined once per depth and the result is a DAG whose size is
linear in the network, although its printed text counts every branch.
``expand`` and ``inline_traces`` work branch by branch, as their output
does.  Every transform first checks that S is complete, in time linear in
the network; only ``expand``, whose coordinates are per branch, lists the
admissible branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delays import AugmentedNetwork, StateIndex, _fresh, _with_lines
from .errors import TransformError
from .expr import BinOp, Call, Expr, Var, normalize, references, substitute
from .network import InteractionGraph, TimeDelayedNetwork, interaction_graph, network_from_exprs
from .structural import admissible_sequences, is_complete_structural

__all__ = ["InlineTrace", "inline_traces", "restrict", "expand", "delayed_expansion"]


@dataclass(frozen=True)
class InlineTrace:
    """Branch carried by each leaf of one inlined component, in
    depth-first traversal order."""

    component: str
    leaves: tuple[tuple[str, ...], ...]


def _check_preconditions(
    net: TimeDelayedNetwork, S
) -> tuple[tuple[str, ...], InteractionGraph]:
    """S in network order, checked complete, and the interaction graph."""
    if net.T != 1:
        raise TransformError(
            f"network has T = {net.T}; restriction and expansion are defined "
            "for undelayed networks (undelay or dedelay first)"
        )
    requested = set(S)
    unknown = requested - set(net.nodes)
    if unknown:
        raise TransformError(f"not nodes of the network: {sorted(unknown)}")
    S = tuple(n for n in net.nodes if n in requested)
    graph = interaction_graph(net)
    if not is_complete_structural(graph, S):
        raise TransformError(
            f"{{{', '.join(S)}}} is not a complete structural set; inlining "
            "would not terminate"
        )
    return S, graph


def _inline_component(
    net: TimeDelayedNetwork,
    in_s: set[str],
    target: str,
    leaf_reader,
    leaves: list[tuple[str, ...]],
) -> Expr:
    """``target``'s update inlined branch by branch: every read of a
    non-S node is replaced by its own copy of that node's inlined update,
    and each S leaf reads ``leaf_reader(branch)``."""
    done: list[Expr] = []  # finished subexpressions, in post-order
    stack: list[tuple[Expr, tuple[str, ...], bool]] = [
        (net.updates[target], (target,), False)
    ]
    while stack:
        e, chain, operands_done = stack.pop()
        if operands_done and isinstance(e, Call):
            done.append(Call(e.func, done.pop()))
        elif operands_done:
            right = done.pop()
            done.append(BinOp(e.op, done.pop(), right))
        elif isinstance(e, Var) and e.node in in_s:
            branch = (e.node,) + chain
            leaves.append(branch)
            done.append(leaf_reader(branch))
        elif isinstance(e, Var):
            if e.node in chain:
                raise TransformError(
                    f"cycle through {e.node!r} avoids S; set is not complete"
                )
            stack.append((net.updates[e.node], (e.node,) + chain, False))
        elif isinstance(e, Call):
            stack += [(e, chain, True), (e.arg, chain, False)]
        elif isinstance(e, BinOp):
            stack += [
                (e, chain, True), (e.right, chain, False), (e.left, chain, False)
            ]
        else:
            done.append(e)
    return done[0]


def _inline_shared(
    net: TimeDelayedNetwork, in_s: set[str], target: str, leaf_delay
) -> Expr:
    """``target``'s update with every non-S read inlined, when an S leaf
    reached through a branch of length L reads its source at delay
    ``leaf_delay(L)``.  The inlined update of a non-S node then depends
    only on its depth in the branch, so each (node, depth) is inlined once
    and shared by all its readers."""
    inlined: dict[tuple[str, int], Expr] = {}
    stack = [(target, 1)]
    while stack:
        node, depth = stack[-1]
        if (node, depth) in inlined:
            stack.pop()
            continue
        sources = {src for src, _ in references(net.updates[node])}
        pending = [
            (src, depth + 1)
            for src in sorted(sources - in_s)
            if (src, depth + 1) not in inlined
        ]
        if pending:
            if depth >= len(net.nodes):
                raise TransformError(
                    f"cycle through {node!r} avoids S; set is not complete"
                )
            stack += pending
            continue
        stack.pop()
        inlined[(node, depth)] = substitute(
            net.updates[node],
            {
                (src, 0): Var(src, leaf_delay(depth + 1))
                if src in in_s
                else inlined[(src, depth + 1)]
                for src in sources
            },
        )
    return inlined[(target, 1)]


def inline_traces(net: TimeDelayedNetwork, S) -> tuple[InlineTrace, ...]:
    """Branches encountered while inlining each S component."""
    S, _ = _check_preconditions(net, S)
    in_s = set(S)
    traces = []
    for target in S:
        leaves: list[tuple[str, ...]] = []
        _inline_component(net, in_s, target, lambda br: Var(br[0], 0), leaves)
        traces.append(InlineTrace(component=target, leaves=tuple(leaves)))
    return tuple(traces)


def _inline_over(net: TimeDelayedNetwork, S, leaf_delay, suffix: str):
    S, _ = _check_preconditions(net, S)
    in_s = set(S)
    updates = {target: _inline_shared(net, in_s, target, leaf_delay) for target in S}
    domains = {n: net.domains[n] for n in S}
    return network_from_exprs(
        S, domains, updates, name=f"{net.name}|{suffix}" if net.name else ""
    )


def restrict(net: TimeDelayedNetwork, S) -> TimeDelayedNetwork:
    """Inline every non-S node away; the result lives on S with T = 1."""
    return _inline_over(net, S, lambda length: 0, "restricted")


def delayed_expansion(net: TimeDelayedNetwork, S) -> TimeDelayedNetwork:
    """Like restrict, but each leaf reads its source |branch| - 2 steps in
    the past (length-2 branches read the present).  Removing these delays
    again recovers the restriction exactly."""
    return _inline_over(net, S, lambda length: length - 2, "delayed")


def expand(net: TimeDelayedNetwork, S) -> AugmentedNetwork:
    """Inlined network on S plus identity delay chains, one chain of
    |branch| - 2 coordinates per admissible branch.

    Distinct branches with the same source get distinct chains, so the
    state dimension is |S| + sum over admissible branches of (length - 2).
    """
    S, graph = _check_preconditions(net, S)
    in_s = set(S)

    taken = set(net.nodes)
    lines: list[tuple[str, StateIndex]] = []
    coord_name: dict[tuple[str, ...], str] = {}
    for br in admissible_sequences(graph, S):
        gamma = br.vertices
        for i in range(2, len(gamma)):
            # leaves inlined through gamma read the deepest coordinate
            coord_name[gamma] = _fresh("_".join(gamma) + f"_s{i}", taken)
            lines.append((coord_name[gamma], StateIndex(gamma[0], i - 1)))

    def leaf_reader(branch: tuple[str, ...]) -> Expr:
        if len(branch) == 2:
            return Var(branch[0], 0)
        if branch not in coord_name:
            raise TransformError(
                f"inlining produced branch {'->'.join(branch)} outside the "
                "admissible set"
            )
        return Var(coord_name[branch], 0)

    updates = {
        target: normalize(_inline_component(net, in_s, target, leaf_reader, []))
        for target in S
    }
    return _with_lines(
        S, net.domains, updates, lines, f"{net.name}|expanded" if net.name else ""
    )
