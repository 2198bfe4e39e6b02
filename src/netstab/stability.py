"""Stability matrices and verdicts.

The stability matrix of a network bounds |dF_j / dx_i| over the domain
box, entry (row j, column i); its spectral radius below 1 certifies a
globally attracting fixed point.  For a delayed network the matrix lives
over the lag coordinates of ``delays.state_indices``, the (node, depth)
pairs that ``net.reads`` keys reads by, in the de-delayed coordinate
order: each node's own update is differentiated in one walk
(``expr.gradient``), its partial for each (source, delay) it reads lands
at column (source, delay), and delay-line rows carry a single exact 1.
Positions, the domain box and a point's assignment are all keyed by
those pairs, and ``delays.label`` writes the matrix's index from them.
The de-delayed network itself is never built, and neither is a dense
array: the matrix is assembled as its (row, col, value) entries, and
``spectral.spectral_bracket`` folds the delay-line rows back into lag
blocks over the base nodes.

``jacobian_matrix``/``local_spectral_radius`` evaluate the same entries
at a single point (one point walk) instead of bounding them over the box
(one interval walk); that is the local linearization used to certify that
a fixed point repels (a spectral radius below 1 here proves nothing
global).  Only ``analyze`` renders the partials, as provenance text.

The entries' order is decided once: ``_partials`` yields them by (row,
column), the order ``NonnegMatrix`` keeps, and ``_bounded`` drops the zero
bounds, so a report's provenance is a tuple aligned with the entries, which
the JSON writes as ``[row, col, bound, provenance]`` (positions in ``indices``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .delays import _fresh, label, state_indices
from .errors import EvalError, UnboundedDerivativeError
from .network import REPORT_SCHEMA, TimeDelayedNetwork, report_json
from .spectral import NonnegMatrix, spectral_bracket, spectral_radius

__all__ = [
    "StabilityReport",
    "stability_matrix",
    "analyze",
    "jacobian_matrix",
    "local_spectral_radius",
]


@dataclass(frozen=True)
class StabilityReport:
    matrix: NonnegMatrix
    rho_lower: float  # the certified bracket [rho_lower, rho_upper]
    rho_upper: float
    # the text of each entry's partial, aligned with matrix.rows/cols/values
    provenance: tuple[str, ...]
    # name -> text of each node the whole provenance shares and names, one
    # name per node, in definition order: a text uses only names before it
    shared: dict[str, str]
    cg_criterion: float | None = None
    network_name: str = ""

    @property
    def rho(self) -> float:  # the bracket's midpoint
        return 0.5 * (self.rho_lower + self.rho_upper)

    @property
    def verdict(self) -> str:
        return "stable" if self.rho_upper < 1.0 else "inconclusive"

    @property
    def boundary(self) -> bool:  # the bracket contains 1
        return self.rho_lower <= 1.0 <= self.rho_upper

    def to_json_dict(self) -> dict:
        m = self.matrix
        out = {
            "schema": REPORT_SCHEMA,
            "name": self.network_name,
            "rho": self.rho,
            "rho_lower": self.rho_lower,
            "rho_upper": self.rho_upper,
            "verdict": self.verdict,
            "boundary": self.boundary,
            "indices": list(m.index),
            "entries": list(map(list, zip(m.rows.tolist(), m.cols.tolist(),
                                          m.values.tolist(), self.provenance))),
            # pairs, since the sorted keys of an object would lose the order
            "shared": [[name, text] for name, text in self.shared.items()],
        }
        if self.cg_criterion is not None:
            out["cg_criterion"] = self.cg_criterion
        return out

    def to_json(self) -> str:
        return report_json(self.to_json_dict())


def stability_matrix(net: TimeDelayedNetwork) -> NonnegMatrix:
    """Bound |dF_j/dx_i| entrywise over the domain box.

    Every variable ranges over its node's declared domain at every delay.
    Raises when a required sup is not finite, naming the offending term.
    """
    return _bounded(net)[0]


def _partials(net: TimeDelayedNetwork, indices):
    """(row, column, partial) for each entry that can be nonzero, in that order.

    Row j < n holds, at each (source, delay) node j's update reads, that
    read's partial from one gradient walk of the update; a delay-line row
    holds the exact 1.0 from the coordinate one step shallower.  A
    gradient walk that fails names the update it walked.
    """
    pos = {read: k for k, read in enumerate(indices)}
    zero = ex.Const(0.0)
    for j, target in enumerate(net.nodes):
        try:
            grad = ex.gradient(net.updates[target])
        except EvalError as err:
            raise EvalError(f"differentiating the update of {target}: {err}") from err
        for ref in sorted(net.reads[target], key=pos.__getitem__):
            yield j, pos[ref], grad.get(ref, zero)
    for j in range(net.size, len(indices)):
        node, depth = indices[j]
        yield j, pos[(node, depth - 1)], ex.Const(1.0)


def _entry(net: TimeDelayedNetwork, indices, j: int, i: int) -> str:
    """The derivative an entry holds, as ``d(x1)/d(x2[-1])``."""
    return f"d({net.nodes[j]})/d({ex.to_text(ex.Var(*indices[i]))})"


def _evaluated(net: TimeDelayedNetwork, indices, entries, values: dict, kind: str) -> list:
    """Every entry's partial under ``kind``'s kernels in one walk.

    An :class:`EvalError` is raised again naming the first entry whose
    partial raises it alone, and that partial.
    """
    try:
        return ex._evaluate([partial for _, _, partial in entries], values, kind)
    except EvalError as err:
        for j, i, partial in entries:
            try:
                ex._evaluate([partial], values, kind)
            except EvalError:
                raise EvalError(
                    f"{_entry(net, indices, j, i)}: {err} (term: {ex.to_text(partial)})"
                ) from err
        raise


def _bounded(net: TimeDelayedNetwork):
    """The stability matrix and the partial of each of its entries, aligned
    with its ``rows``, ``cols`` and ``values``: all partials are bounded in
    one interval walk, and those bounded by 0 are dropped."""
    indices = state_indices(net)
    box = {read: net.domains[read[0]] for read in indices}
    entries = list(_partials(net, indices))
    values = [bound.sup_abs() for bound in _evaluated(net, indices, entries, box, "interval")]
    for (j, i, partial), sup in zip(entries, values):
        if not math.isfinite(sup):
            raise UnboundedDerivativeError(
                f"|{_entry(net, indices, j, i)}| is unbounded over the domain box "
                f"(term: {ex.to_text(partial)})"
            )
    kept = [(j, i, partial, sup) for (j, i, partial), sup in zip(entries, values) if sup]
    rows, cols, partials, sups = zip(*kept) if kept else ((),) * 4
    return NonnegMatrix((label(*read) for read in indices), rows, cols, sups), partials


def _provenance(net: TimeDelayedNetwork, partials):
    """The text of each of ``partials``, and the shared subexpressions
    those texts name.

    All distinct partials are rendered in one walk, which names what the
    whole report shares.  Names are fresh identifiers ``t1``, ``t2``, ...
    (neither node names nor functions), one per named node.
    """
    shared: dict[str, str] = {}  # name -> text, in definition order
    taken = set(net.nodes) | set(ex.FUNCTIONS)

    def name(text: str) -> str:
        fresh = _fresh(f"t{len(shared) + 1}", taken)
        shared[fresh] = text
        return fresh

    distinct = list(dict.fromkeys(partials))
    texts = dict(zip(distinct, ex._text(distinct, name)))
    return tuple(texts[partial] for partial in partials), shared


def analyze(net: TimeDelayedNetwork) -> StabilityReport:
    """Assemble the stability matrix and render the rho < 1 verdict.

    ``stable`` needs the certified upper bound rho_upper < 1; anything else
    is inconclusive by design: it does not certify instability.  A bracket
    that contains 1 is flagged as a boundary case.  Networks built by the
    Cohen-Grossberg constructor also report the closed-form criterion
    |1 - eps| + L * rho(|W|).
    """
    matrix, partials = _bounded(net)
    provenance, shared = _provenance(net, partials)
    rho_lower, rho_upper = spectral_bracket(matrix)
    cg_criterion = None
    if net.cg is not None:
        absW = np.abs(np.array(net.cg.weights))
        cg_criterion = abs(1.0 - net.cg.epsilon) + net.cg.lipschitz * spectral_radius(absW)
    return StabilityReport(
        matrix=matrix,
        rho_lower=rho_lower,
        rho_upper=rho_upper,
        provenance=provenance,
        shared=shared,
        cg_criterion=cg_criterion,
        network_name=net.name,
    )


def jacobian_matrix(net: TimeDelayedNetwork, point) -> tuple[np.ndarray, tuple[str, ...]]:
    """Signed Jacobian of the (de-delayed) map at a constant state.

    ``point`` assigns one value per base node; every delayed read of a
    node takes the same value, which is exactly the augmented image of a
    fixed point.  Returns (J, labels) with J[j, i] = dF_j/dx_i at the
    point, over the coordinates of :func:`~netstab.delays.state_indices`.
    """
    base = np.asarray(point, dtype=np.float64)
    if base.shape != (net.size,):
        raise ValueError(f"point must have {net.size} entries")
    indices = state_indices(net)
    value = dict(zip(net.nodes, base))
    assignment = {read: value[read[0]] for read in indices}
    entries = list(_partials(net, indices))
    J = np.zeros((len(indices), len(indices)))
    J[[j for j, _, _ in entries], [i for _, i, _ in entries]] = _evaluated(
        net, indices, entries, assignment, "point")
    return J, tuple(label(*read) for read in indices)


def local_spectral_radius(net: TimeDelayedNetwork, point) -> float:
    """Max eigenvalue modulus of the signed Jacobian at ``point``."""
    J, _ = jacobian_matrix(net, point)
    return float(np.max(np.abs(np.linalg.eigvals(J))))
