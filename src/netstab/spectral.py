"""Nonnegative-matrix spectral machinery.

A matrix is built from its entries, ``NonnegMatrix(index, rows, cols,
values)`` in any order, and held as the nonzero ones sorted by (row, col);
the dense array is built only when ``.data`` is asked for.  Every public
function also takes a dense array, which ``_coo`` turns into a matrix.

rho is bracketed on the lag reduction.  On an eigenvector A x = s x, a row
with a single entry A[v, p] (a delay line, say) has x_v = A[v, p] x_p / s,
so its chain folds into the kept vertex it starts from, and the kept
vertices solve R(s) x = s x with R(s) = sum_k C_k s^-k.  Each strongly
connected component of this folded graph has Perron root r where
rho(R(r)) = r, and rho(R(s)) < s iff r < s; where nothing folds, R(s) is
the component itself.  r comes from Noda-type inverse iteration (Noda,
Numer. Math. 17, 1971): above r, sI - R(s) is a nonsingular M-matrix, so
each linear solve keeps the vector positive, and the kept rows' equations
(R(s') y)_i = s' y_i then have roots below s, whose largest is an upper
bound on r and the next shift.  The certificate is the Collatz-Wielandt
bracket of the component at the lifted vector, from the sparse entries
and rounded outward; it holds at any positive vector, so it does not rest
on the rounding of the chain weights or of the powers of s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, _iteration_cap

__all__ = [
    "NonnegMatrix",
    "Component",
    "strongly_connected_components",
    "spectral_bracket",
    "spectral_radius",
    "theta_extension",
]


class NonnegMatrix:
    """Square nonnegative matrix over an ordered index list.

    ``NonnegMatrix(index, rows, cols, values)`` holds ``values[k]`` at
    (``rows[k]``, ``cols[k]``), in any order, and 0 elsewhere, kept sorted by
    (row, col) without zeros; a repeated position, or a value that is not
    finite and nonnegative, raises ValueError.
    """

    __slots__ = ("index", "rows", "cols", "values")

    def __init__(self, index, rows, cols, values):
        self.index = tuple(index)
        n = len(self.index)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, cols and values must be lists of one length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError("entry position out of range")
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError("entries must be finite and nonnegative")
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        if (np.diff(key[order]) == 0).any():
            raise ValueError("duplicate entry position")
        order = order[values[order] != 0]
        self.rows, self.cols, self.values = rows[order], cols[order], values[order]

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def data(self) -> np.ndarray:
        """The dense array, built on each call."""
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.values
        return out


def _coo(M) -> NonnegMatrix:
    """``M`` itself, or the matrix of the dense square array ``M`` over
    the labels "0", "1", ..."""
    if isinstance(M, NonnegMatrix):
        return M
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    rows, cols = np.nonzero(A)
    return NonnegMatrix(map(str, range(A.shape[0])), rows, cols, A[rows, cols])


@dataclass(frozen=True)
class Component:
    indices: tuple[int, ...]
    trivial: bool


def _tarjan(n: int, rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, ...]]:
    """Strongly connected components of the digraph with edges rows[k] ->
    cols[k] (sorted by row), each a sorted tuple, sinks of the condensation
    first (iterative Tarjan)."""
    indptr, targets = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        work = [(root, indptr[root])] if index[root] < 0 else []
        while work:
            v, e = work[-1]
            if index[v] < 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            end = indptr[v + 1]
            while e < end:
                w = targets[e]
                e += 1
                if index[w] < 0:
                    work[-1] = (v, e)
                    work.append((w, indptr[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    for w in stack[k:]:
                        on_stack[w] = False
                    components.append(tuple(sorted(stack[k:])))
                    del stack[k:]
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return components


def strongly_connected_components(M) -> list[Component]:
    """SCCs of the digraph with edge i -> j iff M_ij > 0.

    Returned in reverse-topological order of the condensation (sinks
    first); a component is trivial when it is a single vertex without a
    loop.
    """
    A = _coo(M)
    loops = set(A.rows[A.rows == A.cols].tolist())
    return [Component(indices=c, trivial=len(c) == 1 and c[0] not in loops)
            for c in _tarjan(A.n, A.rows, A.cols)]


def _normal(x: np.ndarray) -> np.ndarray:
    info = np.finfo(np.float64)
    return (x >= info.tiny) & (x <= info.max)


def _fold(A: NonnegMatrix, indptr: np.ndarray):
    """(keep, origin, depth, weight) of A's chains of single-entry rows.

    Kept are the rows that do not hold one entry, and the least vertex of
    each cycle of rows that do.  Every other vertex v reaches kept
    ``origin[v]`` after ``depth[v]`` steps along its rows' entries, whose
    product is ``weight[v]``, in log2(depth) pointer-doubling passes.  Where
    a weight (or its product with a kept row's entry) is not a positive
    normal float, chains are cut at every half of the longest depth."""
    n = A.n
    single = np.diff(indptr) == 1
    at = indptr[:-1][single]
    parent = np.arange(n)
    parent[single] = A.cols[at]
    entry = np.ones(n)
    entry[single] = A.values[at]
    keep = ~single
    with np.errstate(over="ignore"):  # checked below
        while True:
            origin = np.where(keep, np.arange(n), parent)
            weight = np.where(keep, 1.0, entry)
            depth = (~keep).astype(np.intp)
            for _ in range(n.bit_length() + 1):
                if keep[origin].all():
                    break
                weight, depth, origin = (weight * weight[origin], depth + depth[origin],
                                         origin[origin])
            stuck = origin[~keep[origin]]
            if stuck.size:  # ends on a cycle of single-entry rows: keep its least vertex
                low, hop = np.arange(n), parent
                for _ in range(n.bit_length() + 1):
                    low, hop = np.minimum(low, low[hop]), hop[hop]
                keep[low[stuck]] = True
                continue
            reads = keep[A.rows] & ~keep[A.cols]
            longest = int(depth.max(initial=0))
            coef = A.values[reads] * weight[A.cols[reads]]
            if longest and not (_normal(weight).all() and _normal(coef).all()):
                keep |= depth % max(longest // 2, 1) == 0
                continue
            return keep, origin, depth, weight


def _root(m: int, row, col, coef, lag, cap: int) -> tuple[float, np.ndarray]:
    """(s, x): the root r of rho(R(s)) = s, to rounding, and x > 0 its
    Perron vector, R(s) summing coef * s^-lag at (row, col) over an
    irreducible m-vertex folded component.  Each step solves T(s) y =
    T'(s) x, T(s) = sI - R(s), Newton's step for the eigenpair."""
    e, idx, eye, tol, y = lag + 1.0, row * m + col, np.eye(m), 2.0 ** -46, np.ones(m)
    near = 1.0 - 0.5 / e.max()  # within half the log-scale of the steepest term
    # each term of a row at most 1 / (the row's terms) of s at this s
    s = float(np.max((np.bincount(row, minlength=m)[row] * coef) ** (1.0 / e)))
    ts = coef * s ** -e  # the terms of R(s) / s
    shift = math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(cap):
            # row i's equation in t = log(s' / s): log sum f e^(-e t) = 0
            f = ts * y[col] / y[row]
            F = np.bincount(row, f, m)
            h0 = np.log(F)
            newton = h0 * F / np.bincount(row, e * f, m)
            ha = np.log(np.bincount(row, f * np.exp(-e * newton[row]), m))
            # the chord through the Newton point, at a fraction of the way
            chord = newton * np.fmin(np.fmax(h0 / (h0 - ha), 0.0), 1.0)
            lo, hi = s * math.exp(newton.min()), s * math.exp(chord.max())
            if hi < near * s:  # a chord from this far is loose: draw it again from hi
                s, ts = hi, coef * hi ** -e
                continue
            x = y / y.max()
            if not (hi - lo > tol * hi and shift - hi > tol * hi):
                break
            shift = hi
            ts_next = coef * hi ** -e
            T = hi * eye - np.bincount(idx, hi * ts_next, m * m).reshape(m, m)
            try:
                y_next = np.linalg.solve(T, x + np.bincount(row, lag * ts_next * x[col], m))
            except np.linalg.LinAlgError:
                break
            if not y_next.min() > 0:  # hi is r to rounding
                break
            s, ts, y = hi, ts_next, y_next
        else:
            raise ConvergenceError(f"Perron root iteration did not converge within {cap} "
                                   f"steps (rho in [{lo:.17g}, {hi:.17g}])")
    # at the root of x's largest row (the chord's end of its bracket) that
    # entry is fixed at 1 and the others solve a nonsingular M-matrix
    # system, which keeps the tiny entries of localized Perron vectors
    top = np.argmax(x)
    s *= math.exp(chord[top])
    R = np.bincount(idx, coef * s ** -lag, m * m).reshape(m, m)
    rest = np.arange(m) != top
    x = np.ones(m)
    x[rest] = np.linalg.solve(s * np.eye(m - 1) - R[rest][:, rest], R[rest][:, top])
    return s, x


def _bracket(A: NonnegMatrix) -> tuple[float, float, np.ndarray]:
    """(lower, upper, v): lower <= rho(A) <= upper, the max of the
    nontrivial components' certified brackets, and v > 0 the lifted
    vector they hold at, max 1 on each component."""
    cap = _iteration_cap()
    keep, origin, depth, weight = _fold(A, np.searchsorted(A.rows, np.arange(A.n + 1)))
    kidx = np.cumsum(keep) - 1
    reads = keep[A.rows]
    t_row = kidx[A.rows[reads]]
    w = A.cols[reads]
    t_col = kidx[origin[w]]
    t_coef = A.values[reads] * weight[w]
    t_lag = depth[w]
    m = int(keep.sum())
    comps = _tarjan(m, t_row, t_col)

    cid = np.empty(m, dtype=np.intp)
    for k, comp in enumerate(comps):
        cid[list(comp)] = k
    t_comp = np.where(cid[t_row] == cid[t_col], cid[t_row], -1)
    # each component's entries, in order, are one slice of this grouping
    by_comp = np.argsort(t_comp, kind="stable")
    bounds = np.searchsorted(t_comp[by_comp], np.arange(len(comps) + 1)).tolist()
    # a lone loop, one vertex reading itself at lag 0, has rho its entry
    within = t_comp >= 0
    lagged = np.zeros(len(comps), dtype=bool)
    lagged[t_comp[within & (t_lag > 0)]] = True
    entries = np.diff(bounds)
    lone = (entries > 0) & ~lagged & (np.fromiter(map(len, comps), np.intp, len(comps)) == 1)
    loops = np.bincount(t_comp[within], t_coef[within], len(comps))[lone]
    lower = upper = float(loops.max(initial=0.0))
    x_kept, s_kept = np.ones(m), np.ones(m)
    live = np.zeros(len(comps), dtype=bool)
    for k in np.flatnonzero((entries > 0) & ~lone).tolist():
        comp = comps[k]
        sl = by_comp[bounds[k]:bounds[k + 1]]
        ids = np.asarray(comp)  # sorted: a kept vertex's position in it is its local index
        local = np.searchsorted(ids, t_row[sl]), np.searchsorted(ids, t_col[sl])
        s_kept[ids], x_kept[ids] = _root(len(comp), *local, t_coef[sl], t_lag[sl], cap)
        live[k] = True
    if not live.any():
        return lower, upper, np.ones(A.n)
    o = kidx[origin]
    vcomp = cid[o]
    lv = live[vcomp]
    with np.errstate(all="ignore"):
        v = weight * x_kept[o] * s_kept[o] ** -depth
        top = np.zeros(len(comps))
        np.maximum.at(top, vcomp, v)
        v /= top[vcomp]
    if not _normal(v[lv]).all():
        raise ConvergenceError("a component's Perron vector leaves the normal float range")
    # Collatz-Wielandt at v over each live component's entries: barring
    # underflow, fl(Av)_i is within gamma_k * (Av)_i for a row of k entries
    # in its component, and gamma_(k+2) also covers the division and the
    # rounding of 1 - gamma
    same = lv[A.rows] & (vcomp[A.rows] == vcomp[A.cols])
    ratios = (np.bincount(A.rows[same], A.values[same] * v[A.cols[same]], A.n) / v)[lv]
    gamma = (np.bincount(A.rows[same], minlength=A.n)[lv] + 2) * (np.finfo(np.float64).eps / 2)
    shrink = 1.0 - gamma / (1.0 - gamma)
    least = np.full(len(comps), np.inf)
    np.minimum.at(least, vcomp[lv], ratios * shrink)
    lower = max(lower, float(np.nextafter(least[live].max(initial=-np.inf), 0.0)))
    upper = max(upper, float(np.nextafter((ratios / shrink).max(initial=-np.inf), np.inf)))
    return lower, upper, v


def spectral_bracket(M) -> tuple[float, float]:
    """(lower, upper) with lower <= rho(M) <= upper for nonnegative M,
    rounding included: the max of the nontrivial components' brackets."""
    lower, upper, _ = _bracket(_coo(M))
    return lower, upper


def spectral_radius(M) -> float:
    """rho(M) for nonnegative M: the midpoint of :func:`spectral_bracket`."""
    lower, upper = spectral_bracket(M)
    return 0.5 * (lower + upper)


def theta_extension(M, row: int, col: int, alpha: float, lip: float, theta: float):
    """Split entry (row, col) through a fresh vertex.

    The new vertex is prepended at position 0: it receives weight theta
    from ``row``, forwards alpha to ``col``, and the original entry drops
    to ``lip``; alpha + lip must equal the original entry.  The sign of
    rho(result) - theta matches the sign of rho(M) - theta.
    """
    A = _coo(M)
    n = A.n
    if not (0 <= row < n and 0 <= col < n):
        raise ValueError("row/col out of range")
    if alpha < 0 or lip < 0:
        raise ValueError("alpha and lip must be nonnegative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    other = (A.rows != row) | (A.cols != col)
    entry = float(A.values[~other].sum())
    if abs(alpha + lip - entry) > 1e-12:
        raise ValueError(f"alpha + lip = {alpha + lip} does not match entry {entry}")
    rows = np.concatenate([A.rows[other] + 1, [1 + row, 0, 1 + row]])
    cols = np.concatenate([A.cols[other] + 1, [1 + col, 1 + col, 0]])
    values = np.concatenate([A.values[other], [lip, alpha, theta]])
    taken = set(A.index)
    aux = "aux"
    k = 0
    while aux in taken:
        k += 1
        aux = f"aux{k}"
    return NonnegMatrix((aux,) + A.index, rows, cols, values)
