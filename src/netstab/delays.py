"""Delay transformations.

``dedelay`` rewrites a delayed network as an undelayed one over an
augmented state: one extra coordinate per (node, depth) holding that
node's value ``depth`` steps in the past.  The delay lines are canonical,
i.e. merged across all readers: coordinates that would always carry the
same value are represented once.  ``undelay`` sets every delay to zero,
and ``shift_delay`` moves a single reference one step toward the present.

This module alone fixes the augmented coordinates.  A coordinate is the
(node, depth) pair of the read whose value it carries, the key that
``TimeDelayedNetwork.reads`` uses (depth 0 is the node's current value);
``state_indices`` gives their order (the stability matrix of a delayed
network is indexed by it without building the de-delayed network),
``label`` writes the ``x`` and ``x@d`` labels of matrices and reports, and
``_with_lines`` appends the identity delay chains that ``dedelay`` and
``transform.expand`` add.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import TransformError
from .expr import Expr, Interval, Var
from .network import TimeDelayedNetwork, max_delay_profile, network_from_exprs

__all__ = [
    "AugmentedNetwork", "state_indices", "label", "dedelay", "undelay", "shift_delay",
]


@dataclass(frozen=True)
class AugmentedNetwork:
    """An undelayed network over augmented coordinates.

    ``projection`` maps each coordinate name back to the (node, delay)
    of the original network whose value it carries.
    """

    net: TimeDelayedNetwork
    projection: dict[str, tuple[str, int]]

    @property
    def coords(self) -> tuple[str, ...]:
        return self.net.nodes


def state_indices(net: TimeDelayedNetwork) -> tuple[tuple[str, int], ...]:
    """The de-delayed coordinates of ``net`` in order, as (node, depth)
    pairs: every node at depth 0, then each node's depths 1 .. the largest
    delay it is read at."""
    profile = max_delay_profile(net)
    return tuple((n, 0) for n in net.nodes) + tuple(
        (n, d) for n in net.nodes for d in range(1, profile[n] + 1)
    )


def label(node: str, depth: int) -> str:
    """A coordinate's label: ``x`` at depth 0, else ``x@depth``."""
    return node if depth == 0 else f"{node}@{depth}"


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    taken.add(name)
    return name


def _with_lines(
    nodes: tuple[str, ...],
    domains: dict[str, Interval],
    updates: dict[str, Expr],
    lines: list[tuple[str, tuple[str, int]]],
    name: str,
) -> AugmentedNetwork:
    """``nodes`` with their ``updates``, plus identity delay lines.

    ``lines`` lists (coordinate name, (node, depth)) in chain order: a
    coordinate at depth 1 reads its source node, a deeper one the
    coordinate listed just before it.  Every coordinate takes its source's
    domain.  Updates are taken as given, without renormalizing, and must
    read only present values, so the result has T = 1.
    """
    projection = {n: (n, 0) for n in nodes}
    updates = dict(updates)
    previous = ""
    for cname, (node, depth) in lines:
        projection[cname] = (node, depth)
        updates[cname] = Var(node if depth == 1 else previous, 0)
        previous = cname
    aug_net = TimeDelayedNetwork(
        nodes=tuple(projection),
        domains={c: domains[node] for c, (node, _) in projection.items()},
        updates=updates,
        name=name,
    )
    return AugmentedNetwork(net=aug_net, projection=projection)


def dedelay(net: TimeDelayedNetwork) -> AugmentedNetwork:
    """Equivalent undelayed network on base nodes plus delay lines.

    Coordinates follow :func:`state_indices`; the line of ``x`` at depth
    3 is named ``x_d3``, or ``x_d3_2`` (``_3`` ...) if that name is taken.
    Base node updates keep their expression with each delayed read
    ``x[-m]`` rewired to the depth-m line coordinate; line coordinates
    shift by one: line(i, d) updates to line(i, d-1), and line(i, 1) to
    the base value.  Orbits of the result project onto orbits of ``net``.
    """
    taken = set(net.nodes)
    lines = [
        (_fresh(f"{node}_d{depth}", taken), (node, depth))
        for node, depth in state_indices(net)[net.size:]
    ]
    rewiring = {read: Var(cname, 0) for cname, read in lines}
    # leaf renaming preserves the input's normal form, so _with_lines
    # does not renormalize: orbits of net and of the augmentation then
    # agree bit for bit under projection
    updates = {n: ex.substitute(net.updates[n], rewiring) for n in net.nodes}
    return _with_lines(
        net.nodes, net.domains, updates, lines, f"{net.name}+lines" if net.name else ""
    )


def undelay(net: TimeDelayedNetwork) -> TimeDelayedNetwork:
    """Set every delay to zero.  The result has T = 1; references that
    coincide after the shift merge (and may cancel) under normalization."""
    if net.T == 1:
        return net
    updates: dict[str, Expr] = {}
    for node, refs in net.reads.items():
        mapping = {(src, d): Var(src, 0) for src, d in refs if d > 0}
        updates[node] = ex.substitute(net.updates[node], mapping)
    return network_from_exprs(
        net.nodes, net.domains, updates, name=net.name, cg=net.cg
    )


def shift_delay(
    net: TimeDelayedNetwork, target: str, source: str, tau: int
) -> TimeDelayedNetwork:
    """Replace the read of ``source`` at delay ``tau`` in ``target``'s
    update by a read at delay ``tau - 1``.

    If the update already reads ``source`` at ``tau - 1`` the two
    references merge; repeated shifting until all delays vanish
    reproduces :func:`undelay`.
    """
    if tau < 1:
        raise TransformError("tau must be a positive delay")
    if target not in net.updates:
        raise TransformError(f"unknown node {target!r}")
    if (source, tau) not in net.reads[target]:
        raise TransformError(
            f"update of {target!r} does not reference {source!r} at delay {tau}"
        )
    updates = dict(net.updates)
    updates[target] = ex.substitute(
        net.updates[target], {(source, tau): Var(source, tau - 1)}
    )
    return network_from_exprs(net.nodes, net.domains, updates, name=net.name)
