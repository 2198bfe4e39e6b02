"""Nonnegative-matrix spectral machinery.

Spectral radii are bracketed per strongly connected component by one
power iteration, which also gives the Perron vector: the component matrix
is scaled by its largest entry and shifted by the identity so its Perron
root becomes strictly dominant (delay cycles make these matrices
periodic), and the Collatz-Wielandt bracket at the converged vector is
rounded outward so it holds for the exact root.  Trivial components (single vertex, no loop) contribute 0.

The iteration starts from the Perron vector of the component's lag-block
reduction: the chains of vertices with a single in-edge (the delay lines
of a de-delayed network) fold into blocks C_k over the other vertices,
rho = r solves rho(sum_k C_k r^-k) = r on that small matrix, and the
small Perron vector lifts back along the chains (where nothing folds,
the iteration starts from ones).  The certificate does not rest on it:
the Collatz-Wielandt bracket holds at any positive vector, and the power
iteration runs only where the start's bracket is wider than its exit
width.
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
        """``indices`` in order, and ``entries``: each nonzero entry keyed
        ``"row<-col"`` by its labels."""
        rows, cols = np.nonzero(self.data)
        values = self.data[rows, cols].tolist()
        labels = self.index
        return {
            "indices": list(labels),
            "entries": {
                f"{labels[j]}<-{labels[i]}": value
                for j, i, value in zip(rows.tolist(), cols.tolist(), values)
            },
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
    rows, cols = np.nonzero(A > 0)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    targets = cols.tolist()
    adjacency = [targets[bounds[i]:bounds[i + 1]] for i in range(n)]

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
                w = neighbors[child]
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


@dataclass(frozen=True)
class _LagReduction:
    """A nonnegative matrix A folded onto its ``size`` kept vertices.

    Every other vertex v has in-degree 1: its row holds one nonzero entry,
    A[v, parent] (v is computed from that one coordinate), so an eigenpair
    A x = r x has x_v = A[v, parent] x_parent / r.  Following parents from
    v reaches kept vertex number ``origin[v]`` after ``depth[v]`` steps,
    with ``weight[v]`` the product of the entries on the way, so
    x_v = weight[v] x_origin / r^depth.  On the kept vertices
    the eigen-equation becomes r x = R(r) x, R(r) = sum_k C_k r^-k, the sum
    over terms ``coef * r^-lag`` at (``row``, ``col``): rho(A) = r iff
    rho(R(r)) = r.  For the stability matrix of a delayed network with the
    base nodes kept, the chains are the delay lines and C_d is the lag
    block A_d.
    """

    size: int
    origin: np.ndarray
    depth: np.ndarray
    weight: np.ndarray
    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    lag: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray, keep) -> "_LagReduction":
        """Fold A onto ``keep`` (increasing); every chain of other vertices
        must start in it."""
        n = A.shape[0]
        rows, cols = np.nonzero(A)
        keep = np.asarray(keep, dtype=np.intp)
        kept = np.zeros(n, dtype=bool)
        kept[keep] = True
        parent = np.zeros(n, dtype=np.intp)
        chained = ~kept[rows]
        parent[rows[chained]] = cols[chained]
        depth = np.where(kept, 0, -1)
        origin = np.cumsum(kept) - 1
        weight = np.ones(n)
        todo = np.flatnonzero(~kept)
        while todo.size:  # one chain step per pass
            ready = depth[parent[todo]] >= 0
            if not ready.any():
                raise ValueError("a chain of single-entry rows misses the kept set")
            v = todo[ready]
            p = parent[v]
            depth[v] = depth[p] + 1
            origin[v] = origin[p]
            weight[v] = A[v, p] * weight[p]
            todo = todo[~ready]
        fold = kept[rows]
        src, dst = rows[fold], cols[fold]
        return cls(keep.size, origin, depth, weight, row=origin[src], col=origin[dst],
                   coef=A[src, dst] * weight[dst], lag=depth[dst])

    def _sum(self, terms: np.ndarray) -> np.ndarray:
        s = self.size
        return np.bincount(self.row * s + self.col, weights=terms, minlength=s * s).reshape(s, s)

    def matrix(self, r: float) -> np.ndarray:
        """R(r) over the kept vertices."""
        return self._sum(self.coef * r ** -self.lag)

    def log_slope(self, r: float) -> np.ndarray:
        """dR/d(log r) = -sum_k k C_k r^-k."""
        return self._sum(-self.lag * (self.coef * r ** -self.lag))

    def lift(self, x: np.ndarray, r: float) -> np.ndarray:
        """The full vector whose kept entries are ``x``."""
        return self.weight * x[self.origin] / r ** self.depth


def _reduced_perron(red: _LagReduction) -> tuple[float, np.ndarray]:
    """(r, x): r solves rho(R(r)) = r and x >= 0, largest entry 1, solves
    R(r) x = r x.

    log rho(R(e^t)) is convex in t (every entry of R is a sum of
    exponentials in t), so Newton's method on log rho(R(e^t)) = t, with the
    Perron derivative u^T R' v / u^T v, converges from r = 1.  x then comes
    from one linear solve: with its largest entry fixed at 1 the others
    solve a nonsingular M-matrix system, which keeps the tiny entries of
    localized Perron vectors that eig's eigenvector loses.
    """
    t = 0.0
    for _ in range(50):
        r = np.exp(t)
        R = red.matrix(r)
        lam, V = np.linalg.eig(R)
        k = np.argmax(lam.real)  # the Perron root has the largest real part
        rho = lam[k].real
        v = np.abs(V[:, k])
        lam_left, U = np.linalg.eig(R.T)
        u = np.abs(U[:, np.argmax(lam_left.real)])
        slope = u @ red.log_slope(r) @ v / (rho * (u @ v))
        step = (np.log(rho) - t) / (slope - 1.0)
        t -= step
        # eig's rho is noisy near 1e-15; a nan step also stops here
        if not abs(step) > 1e-13 * max(1.0, abs(t)):
            break
    r = np.exp(t)
    R = red.matrix(r)
    top = np.argmax(v)
    rest = np.arange(R.shape[0]) != top
    x = np.ones(R.shape[0])
    x[rest] = np.linalg.solve(r * np.eye(R.shape[0] - 1) - R[np.ix_(rest, rest)], R[rest, top])
    return r, x


def _perron_start(A: np.ndarray) -> np.ndarray:
    """Start vector for irreducible A: the Perron vector of its lag-block
    reduction lifted back, scaled to max 1, or ones where that is not
    finite and strictly positive (say, where a chain weight underflows).

    The kept vertices are those whose row does not hold exactly one
    nonzero entry; a simple cycle keeps one.  Where every vertex is kept
    nothing folds, R(r) is A itself, and the start is ones: A's Perron
    vector is what the power iteration computes.
    """
    n = A.shape[0]
    keep = np.flatnonzero(np.count_nonzero(A, axis=1) != 1)
    if keep.size == n:
        return np.ones(n)
    with np.errstate(all="ignore"):  # chain weights may overflow or underflow
        red = _LagReduction.of(A, keep if keep.size else [0])
        try:
            r, x = _reduced_perron(red)
        except np.linalg.LinAlgError:  # a singular solve, or a non-finite R
            return np.ones(n)
        v = red.lift(x, r)
        v = v / v.max()
    if np.isfinite(v).all() and (v > 0).all():
        return v
    return np.ones(n)


def _perron(A: np.ndarray, cap: int) -> tuple[float, float, np.ndarray]:
    """(lower, upper, v): v > 0 with max entry 1 and lower <= rho(A) <= upper
    for irreducible nonnegative A.

    v starts at :func:`_perron_start`.  Unless A's bracket there is already
    1e-12 relative wide, it iterates P = (A / max A + I)^4 (A's Perron
    vector, four steps of the shifted matrix per step) until P's bracket
    is; scaling before the shift keeps the shift from swamping or
    vanishing beside A's entries at any scale.  The bracket of A at v is
    rounded outward: barring underflow, fl(Av) is within gamma_n * Av, and
    one more gamma term covers the division and the rounding of 1 - gamma.
    """
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0]), float(A[0, 0]), np.ones(1)
    v = _perron_start(A)
    ratios = (A @ v) / v
    if ratios.max() - ratios.min() > 1e-12 * ratios.max():
        scale = A.max()
        P = np.linalg.matrix_power(A / scale + np.eye(n), 4)
        for _ in range(cap):
            w = P @ v
            ratios = w / v
            lower, upper = ratios.min(), ratios.max()
            v = w / w.max()
            if upper - lower <= 1e-12 * upper:
                break
        else:
            lo, hi = scale * (np.array([lower, upper]) ** 0.25 - 1.0)
            raise ConvergenceError(f"power iteration did not converge within {cap} "
                                   f"iterations (rho in [{lo:.17g}, {hi:.17g}])")
        ratios = (A @ v) / v
    u = np.finfo(np.float64).eps / 2
    shrink = 1.0 - (n + 2) * u / (1.0 - (n + 2) * u)
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
