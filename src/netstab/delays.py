"""Delay transformations.

``dedelay`` rewrites a delayed network as an undelayed one over an
augmented state: one extra coordinate per (node, depth) holding that
node's value ``depth`` steps in the past.  The delay lines are canonical,
i.e. merged across all readers: coordinates that would always carry the
same value are represented once.  ``undelay`` sets every delay to zero,
and ``shift_delay`` moves a single reference one step toward the present.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import NetworkError, TransformError
from .expr import Expr, Var
from .network import TimeDelayedNetwork, max_delay_profile, network_from_exprs

__all__ = ["StateIndex", "AugmentedNetwork", "dedelay", "undelay", "shift_delay"]


@dataclass(frozen=True, order=True)
class StateIndex:
    """Coordinate of the augmented state: a node's value ``depth`` steps
    back.  ``depth == 0`` is the node's current value."""

    node: str
    depth: int = 0

    def label(self) -> str:
        return self.node if self.depth == 0 else f"{self.node}@{self.depth}"


@dataclass(frozen=True)
class AugmentedNetwork:
    """An undelayed network over augmented coordinates.

    ``projection`` maps each coordinate name back to the (node, delay)
    of the original network whose value it carries.
    """

    net: TimeDelayedNetwork
    coords: tuple[str, ...]
    indices: tuple[StateIndex, ...]
    projection: dict[str, tuple[str, int]]


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    taken.add(name)
    return name


def line_names(net: TimeDelayedNetwork) -> dict[tuple[str, int], str]:
    """Deterministic identifiers for the delay-line coordinates of ``net``."""
    profile = max_delay_profile(net)
    taken = set(net.nodes)
    names: dict[tuple[str, int], str] = {}
    for node in net.nodes:
        for depth in range(1, profile[node] + 1):
            names[(node, depth)] = _fresh(f"{node}_d{depth}", taken)
    return names


def dedelay(net: TimeDelayedNetwork) -> AugmentedNetwork:
    """Equivalent undelayed network on base nodes plus delay lines.

    Base node updates keep their expression with each delayed read
    ``x[-m]`` rewired to the depth-m line coordinate; line coordinates
    shift by one: line(i, d) updates to line(i, d-1), and line(i, 1) to
    the base value.  Orbits of the result project onto orbits of ``net``.
    """
    profile = max_delay_profile(net)
    names = line_names(net)

    coords: list[str] = list(net.nodes)
    indices: list[StateIndex] = [StateIndex(n, 0) for n in net.nodes]
    projection: dict[str, tuple[str, int]] = {n: (n, 0) for n in net.nodes}
    for node in net.nodes:
        for depth in range(1, profile[node] + 1):
            cname = names[(node, depth)]
            coords.append(cname)
            indices.append(StateIndex(node, depth))
            projection[cname] = (node, depth)

    rewiring = {
        (node, depth): Var(names[(node, depth)], 0)
        for (node, depth) in names
    }
    updates: dict[str, Expr] = {}
    domains = {}
    for node in net.nodes:
        updates[node] = ex.substitute(net.updates[node], rewiring)
        domains[node] = net.domains[node]
    for node in net.nodes:
        for depth in range(1, profile[node] + 1):
            cname = names[(node, depth)]
            source = node if depth == 1 else names[(node, depth - 1)]
            updates[cname] = Var(source, 0)
            domains[cname] = net.domains[node]

    # leaf renaming preserves the input's normal form, so skip
    # renormalizing: orbits of net and of the augmentation then agree
    # bit for bit under projection
    aug_net = network_from_exprs(
        tuple(coords),
        domains,
        updates,
        name=f"{net.name}+lines" if net.name else "",
        run_normalize=False,
    )
    if aug_net.T != 1:
        raise NetworkError("internal error: dedelayed network is not undelayed")
    return AugmentedNetwork(
        net=aug_net,
        coords=tuple(coords),
        indices=tuple(indices),
        projection=projection,
    )


def undelay(net: TimeDelayedNetwork) -> TimeDelayedNetwork:
    """Set every delay to zero.  The result has T = 1; references that
    coincide after the shift merge (and may cancel) under normalization."""
    if net.T == 1:
        return net
    updates: dict[str, Expr] = {}
    for node in net.nodes:
        mapping = {
            (src, d): Var(src, 0)
            for src, d in ex.references(net.updates[node])
            if d > 0
        }
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
    refs = ex.references(net.updates[target])
    if (source, tau) not in refs:
        raise TransformError(
            f"update of {target!r} does not reference {source!r} at delay {tau}"
        )
    updates = dict(net.updates)
    updates[target] = ex.substitute(
        net.updates[target], {(source, tau): Var(source, tau - 1)}
    )
    return network_from_exprs(net.nodes, net.domains, updates, name=net.name)
