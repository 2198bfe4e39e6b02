"""Nonnegative-matrix spectral machinery.

Spectral radii are bracketed per strongly connected component by one
power iteration, which also gives the Perron vector: the component matrix
is shifted by the identity so its Perron root becomes strictly dominant
(delay cycles make these matrices periodic), and the Collatz-Wielandt
bracket at the converged vector is rounded outward so it holds for the
exact root.  Trivial components (single vertex, no loop) contribute 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NetstabError

__all__ = [
    "NonnegMatrix",
    "Component",
    "strongly_connected_components",
    "spectral_bracket",
    "spectral_radius",
    "is_irreducible",
    "perron_eigenvector",
    "theta_extension",
]


def _iteration_cap(default: int = 100_000) -> int:
    raw = os.environ.get("NETSTAB_MAX_ITERS", "")
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise NetstabError(f"NETSTAB_MAX_ITERS must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class NonnegMatrix:
    """Square nonnegative matrix over an ordered index list."""

    data: np.ndarray
    index: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {data.shape}")
        if data.shape[0] != len(self.index):
            raise ValueError("index list length must match the dimension")
        if not np.isfinite(data).all():
            raise ValueError("entries must be finite")
        if (data < 0).any():
            raise ValueError("entries must be nonnegative")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def entry(self, row_label: str, col_label: str) -> float:
        return float(self.data[self.index.index(row_label), self.index.index(col_label)])

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.index),
            "matrix": [[float(v) for v in row] for row in self.data],
        }


def _as_array(M) -> np.ndarray:
    if isinstance(M, NonnegMatrix):
        return M.data
    arr = np.asarray(M, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Component:
    indices: tuple[int, ...]
    trivial: bool


def strongly_connected_components(M) -> list[Component]:
    """SCCs of the digraph with edge i -> j iff M_ij > 0.

    Returned in reverse-topological order of the condensation (sinks
    first); a component is trivial when it is a single vertex without a
    loop.
    """
    A = _as_array(M)
    n = A.shape[0]
    adjacency = [np.nonzero(A[i] > 0)[0] for i in range(n)]

    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = [0]
    components: list[Component] = []

    for start in range(n):
        if index_of[start] != -1:
            continue
        # iterative Tarjan: (vertex, next-child position)
        work = [(start, 0)]
        while work:
            v, child = work[-1]
            if child == 0:
                index_of[v] = lowlink[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adjacency[v]
            while child < len(neighbors):
                w = int(neighbors[child])
                child += 1
                if index_of[w] == -1:
                    work[-1] = (v, child)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp = tuple(sorted(comp))
                trivial = bool(len(comp) == 1 and A[comp[0], comp[0]] == 0.0)
                components.append(Component(indices=comp, trivial=trivial))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def _perron(A: np.ndarray, cap: int) -> tuple[float, float, np.ndarray]:
    """(lower, upper, v): v > 0 with max entry 1 and lower <= rho(A) <= upper
    for irreducible nonnegative A.

    Iterates P = (B / max B)^4, B = A + I (A's Perron vector, four steps
    of B per step) until P's bracket is 1e-12 relative wide.  The bracket
    of A at v is rounded outward: barring underflow, fl(Av) is within
    gamma_n * Av, and one more gamma term covers the division and the
    rounding of 1 - gamma.
    """
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0]), float(A[0, 0]), np.ones(1)
    B = A + np.eye(n)
    scale = B.max()
    P = np.linalg.matrix_power(B / scale, 4)
    v = np.ones(n)
    for _ in range(cap):
        w = P @ v
        ratios = w / v
        lower, upper = ratios.min(), ratios.max()
        v = w / w.max()
        if upper - lower <= 1e-12 * upper:
            break
    else:
        lo, hi = scale * np.array([lower, upper]) ** 0.25 - 1.0
        raise ConvergenceError(f"power iteration did not converge within {cap} "
                               f"iterations (rho in [{lo:.17g}, {hi:.17g}])")
    u = np.finfo(np.float64).eps / 2
    shrink = 1.0 - (n + 2) * u / (1.0 - (n + 2) * u)
    ratios = (A @ v) / v
    lower = float(np.nextafter(ratios.min() * shrink, 0.0))
    upper = float(np.nextafter(ratios.max() / shrink, np.inf))
    return lower, upper, v


def spectral_bracket(M) -> tuple[float, float]:
    """(lower, upper) with lower <= rho(M) <= upper for nonnegative M,
    rounding included: the max of the nontrivial components' brackets."""
    A = _as_array(M)
    if not np.isfinite(A).all() or (A < 0).any():
        raise ValueError("spectral_bracket requires a finite nonnegative matrix")
    cap = _iteration_cap()
    lower = upper = 0.0
    for comp in strongly_connected_components(A):
        if comp.trivial:
            continue
        lo, hi, _ = _perron(A[np.ix_(comp.indices, comp.indices)], cap)
        lower, upper = max(lower, lo), max(upper, hi)
    return lower, upper


def spectral_radius(M) -> float:
    """rho(M) for nonnegative M: the midpoint of :func:`spectral_bracket`."""
    lower, upper = spectral_bracket(M)
    return 0.5 * (lower + upper)


def is_irreducible(M) -> bool:
    """True iff the dependency digraph is strongly connected (a single
    vertex counts as strongly connected, loop or not)."""
    return len(strongly_connected_components(M)) == 1


def perron_eigenvector(M) -> tuple[float, np.ndarray]:
    """(rho, v) with v > 0 and max entry 1; rho equals spectral_radius(M)
    and |Mv - rho v| <= v * (upper - lower) / 2.  Requires irreducible M.
    """
    A = _as_array(M)
    if not is_irreducible(A):
        raise ValueError("perron_eigenvector requires an irreducible matrix")
    lower, upper, v = _perron(A, _iteration_cap())
    if (v <= 0).any():
        raise ConvergenceError("Perron vector failed to stay positive")
    return 0.5 * (lower + upper), v


def theta_extension(M, row: int, col: int, alpha: float, lip: float, theta: float):
    """Split entry (row, col) through a fresh vertex.

    The new vertex is prepended at position 0: it receives weight theta
    from ``row``, forwards alpha to ``col``, and the original entry drops
    to ``lip``; alpha + lip must equal the original entry.  The sign of
    rho(result) - theta matches the sign of rho(M) - theta.
    """
    labeled = isinstance(M, NonnegMatrix)
    A = _as_array(M)
    n = A.shape[0]
    if not (0 <= row < n and 0 <= col < n):
        raise ValueError("row/col out of range")
    if alpha < 0 or lip < 0:
        raise ValueError("alpha and lip must be nonnegative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if abs(alpha + lip - A[row, col]) > 1e-12:
        raise ValueError(
            f"alpha + lip = {alpha + lip} does not match entry {A[row, col]}"
        )
    out = np.zeros((n + 1, n + 1))
    out[1:, 1:] = A
    out[1 + row, 1 + col] = lip
    out[0, 1 + col] = alpha
    out[1 + row, 0] = theta
    if labeled:
        taken = set(M.index)
        aux = "aux"
        k = 0
        while aux in taken:
            k += 1
            aux = f"aux{k}"
        return NonnegMatrix(out, (aux,) + M.index)
    return NonnegMatrix(out, tuple(["aux"] + [str(i) for i in range(n)]))
