"""Restriction and expansion of undelayed networks over a structural set.

All three transforms inline: starting from the update of an S node, every
read of a non-S node is replaced by that node's update until only
S-variable leaves remain.  Each leaf then carries the branch (the S-to-S
dependency chain) it came through, and the transforms differ only in what
the leaf reads:

* restrict: the source node directly (delay 0),
* delayed expansion: the source node at delay |branch| - 2,
* expand: a chain of identity coordinates keyed by the full branch.

One walker, ``_inline``, does all three.  It inlines each non-S node once
per key of the chain that reaches it, and the key is what the leaves
below the node depend on: the chain's length for the first two, so the
result is a DAG whose size is linear in the network although its printed
text counts every branch; the whole chain for ``expand``, whose
coordinates are per branch, so it inlines once per branch and names a
delay chain for each branch a leaf meets.  Every transform first checks
that S is complete, in time linear in the network.
"""

from __future__ import annotations

from .delays import AugmentedNetwork, _fresh, _with_lines
from .errors import TransformError
from .expr import Expr, Var, _normal_form, substitute
from .network import TimeDelayedNetwork, _normal_rules, interaction_graph, network_from_exprs
from .structural import is_complete_structural

__all__ = ["restrict", "expand", "delayed_expansion"]


def _check_preconditions(net: TimeDelayedNetwork, S) -> tuple[str, ...]:
    """S in network order, checked complete."""
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
    if not is_complete_structural(interaction_graph(net), S):
        raise TransformError(
            f"{{{', '.join(S)}}} is not a complete structural set; inlining "
            "would not terminate"
        )
    return S


def _inline(net: TimeDelayedNetwork, in_s: set[str], target: str, leaf, key) -> Expr:
    """``target``'s update with every non-S read inlined.

    The walk follows chains ``(node, ..., target)``: an S read of ``src``
    by the head of a chain reads ``leaf((src,) + chain)``, its branch.
    Each non-S node is inlined once per ``key(chain)`` and the result
    shared by every reader whose chain has that key, so ``key`` must
    determine every leaf below the node.
    """
    inlined: dict[tuple, Expr] = {}
    stack = [(target,)]
    while stack:
        chain = stack[-1]
        node = chain[0]
        # the network is undelayed, so every read is (source, 0)
        reads = net.reads[node]
        pending = [
            (src,) + chain
            for src, _ in sorted(reads)
            if src not in in_s and (src, key((src,) + chain)) not in inlined
        ]
        if pending:
            if len(chain) >= len(net.nodes):
                raise TransformError(
                    f"cycle through {node!r} avoids S; set is not complete"
                )
            stack += pending
            continue
        stack.pop()
        inlined[(node, key(chain))] = substitute(
            net.updates[node],
            {
                (src, 0): leaf((src,) + chain)
                if src in in_s
                else inlined[(src, key((src,) + chain))]
                for src, _ in reads
            },
        )
    return inlined[(target, key((target,)))]


def _inline_over(net: TimeDelayedNetwork, S, leaf, suffix: str):
    S = _check_preconditions(net, S)
    in_s = set(S)
    updates = {target: _inline(net, in_s, target, leaf, len) for target in S}
    domains = {n: net.domains[n] for n in S}
    return network_from_exprs(
        S, domains, updates, name=f"{net.name}|{suffix}" if net.name else ""
    )


def restrict(net: TimeDelayedNetwork, S) -> TimeDelayedNetwork:
    """Inline every non-S node away; the result lives on S with T = 1."""
    return _inline_over(net, S, lambda branch: Var(branch[0], 0), "restricted")


def delayed_expansion(net: TimeDelayedNetwork, S) -> TimeDelayedNetwork:
    """Like restrict, but each leaf reads its source |branch| - 2 steps in
    the past (length-2 branches read the present).  Removing these delays
    again recovers the restriction exactly."""
    return _inline_over(
        net, S, lambda branch: Var(branch[0], len(branch) - 2), "delayed"
    )


def expand(net: TimeDelayedNetwork, S) -> AugmentedNetwork:
    """Inlined network on S plus identity delay chains, one chain of
    |branch| - 2 coordinates per admissible branch.

    Distinct branches with the same source get distinct chains, so the
    state dimension is |S| + sum over admissible branches of (length - 2).
    Chains are named as the inliner meets their branches and laid out in
    the lexicographic order of the branches' vertex sequences.
    """
    S = _check_preconditions(net, S)
    in_s = set(S)
    taken = set(net.nodes)
    chains: dict[tuple[str, ...], list[str]] = {}

    def leaf(branch: tuple[str, ...]) -> Expr:
        if len(branch) == 2:
            return Var(branch[0], 0)
        # _inline meets each branch once; its leaf reads the deepest coordinate
        chain = [_fresh("_".join(branch) + f"_s{i}", taken) for i in range(2, len(branch))]
        chains[branch] = chain
        return Var(chain[-1], 0)

    updates = _normal_rules(
        (target, _normal_form(_inline(net, in_s, target, leaf, lambda chain: chain)))
        for target in S
    )
    lines = [(name, (branch[0], depth)) for branch in sorted(chains)
             for depth, name in enumerate(chains[branch], 1)]
    return _with_lines(
        S, net.domains, updates, lines, f"{net.name}|expanded" if net.name else ""
    )
