"""Independent references and the checks that gate a run.

Nothing here imports netstab: every reference is rebuilt from the
generator parameters in ``workloads.py`` with numpy and the standard
library, so a defect shared by netstab's layers cannot hide itself.

Each ``check_*`` function takes the generator spec and what the job
produced, and returns a list of error strings (empty when correct).
``check_certify`` also says whether rho missed its reference by more
than 1e-9 relative; that miss is counted and reported, not gated.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import deque

import numpy as np

from workloads import diamond_edges, diamond_nodes, ring_edges

RHO_TOL = 1e-9  # relative, against max(1, rho)
FIXED_POINT_TOL = 1e-6
CSV_STEPS = 50
CSV_TOL = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def rho_missed(rho: float, ref: float) -> bool:
    """rho differs from its reference by more than RHO_TOL * max(1, ref)."""
    return not _close(rho, ref, RHO_TOL)


def _expected_verdict(rho: float) -> str | None:
    """None when rho is too close to 1 for the verdict to be decided."""
    if abs(rho - 1.0) <= RHO_TOL:
        return None
    return "stable" if rho < 1.0 else "inconclusive"


# ---------------------------------------------------------------------------
# delayed rings


def ring_depths(spec: dict) -> np.ndarray:
    """Per node, the largest delay at which anything reads it."""
    n = spec["W"].shape[0]
    depth = np.full(n, spec["self_delay"])
    src, _, _, d = ring_edges(spec)
    np.maximum.at(depth, src, d)
    return depth


def ring_window(spec: dict) -> int:
    """T: snapshots one step of the ring reads."""
    return int(ring_depths(spec).max()) + 1


def ring_companion(spec: dict) -> np.ndarray:
    """Stability matrix over (node, depth) coordinates, depth 0..depth(node).

    Row (j, 0) bounds |dx_j(t+1)/dx_i(t-d)|: |1 - eps| on (j, self_delay)
    and |w_ij| * sup|tanh'| = |w_ij| on (i, d); row (i, d > 0) shifts
    (i, d - 1) down the delay line.
    """
    n = spec["W"].shape[0]
    depth = ring_depths(spec)
    offset = n + np.concatenate(([0], np.cumsum(depth)[:-1]))

    def coord(i, d):
        return i if d == 0 else offset[i] + d - 1

    dim = n + int(depth.sum())
    M = np.zeros((dim, dim))
    for j in range(n):
        M[j, coord(j, spec["self_delay"])] += abs(1.0 - spec["epsilon"])
    for i, j, w, d in zip(*ring_edges(spec)):
        M[j, coord(i, int(d))] += abs(w)
    for i in range(n):
        for d in range(1, depth[i] + 1):
            M[coord(i, d), coord(i, d - 1)] = 1.0
    return M


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def ring_step(spec: dict, window: np.ndarray) -> np.ndarray:
    """Next state from a chronological window (T, n), newest row last."""
    src, tgt, w, d = ring_edges(spec)
    n = spec["W"].shape[0]
    drive = np.bincount(tgt, weights=w * np.tanh(window[-1 - d, src]), minlength=n)
    leak = (1.0 - spec["epsilon"]) * window[-1 - spec["self_delay"]]
    return leak + drive + spec["c"]


def ring_free_run(spec: dict, history: np.ndarray, steps: int) -> np.ndarray:
    states = [row for row in history]
    T = history.shape[0]
    for _ in range(steps):
        states.append(ring_step(spec, np.array(states[-T:])))
    return np.array(states[T:])


def fixed_point_residual(spec: dict, x) -> float:
    x = np.asarray(x, dtype=float)
    window = np.tile(x, (ring_window(spec), 1))
    return float(np.max(np.abs(ring_step(spec, window) - x)))


def check_certify(spec: dict, result: dict, rho_ref: float) -> tuple[list[str], bool]:
    """Verdict and dimension are gated; a rho miss is only reported."""
    errors = []
    expected = _expected_verdict(rho_ref)
    if expected is not None and result["verdict"] != expected:
        errors.append(f"verdict {result['verdict']} but reference rho {rho_ref!r} "
                      f"gives {expected}")
    dim = spec["W"].shape[0] + int(ring_depths(spec).sum())
    if result["dim"] != dim:
        errors.append(f"report dimension {result['dim']} != canonical {dim}")
    return errors, rho_missed(result["rho"], rho_ref)


def parse_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def check_trajectory(spec: dict, csv_text: str) -> list[str]:
    """The first CSV_STEPS steps equal the reference map run from the
    CSV's own first T rows."""
    rows = parse_csv(csv_text)
    T = ring_window(spec)
    if rows.shape[0] < T + CSV_STEPS:
        return [f"trajectory has {rows.shape[0]} rows, need {T + CSV_STEPS}"]
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0]) - T + 1):
        return ["trajectory step column is not -T+1, ..., K"]
    want = ring_free_run(spec, rows[:T, 1:], CSV_STEPS)
    got = rows[T:T + CSV_STEPS, 1:]
    bad = np.abs(got - want) > CSV_TOL * np.maximum(1.0, np.abs(want))
    if bad.any():
        step = int(np.argwhere(bad)[0][0]) + 1
        return [f"trajectory step {step} differs from the reference map by "
                f"{float(np.max(np.abs(got - want))):.3e}"]
    return []


def check_simulation(spec: dict, verdict: dict, csv_text: str) -> list[str]:
    errors = check_trajectory(spec, csv_text)
    if verdict["trials"] != spec["trials"]:
        errors.append(f"verdict reports {verdict['trials']} trials, ran {spec['trials']}")
    if spec.get("contracting") and not verdict["converged"]:
        errors.append("contracting ring reported not converged")
    if verdict["converged"]:
        res = fixed_point_residual(spec, verdict["witness"])
        if not res <= FIXED_POINT_TOL:
            errors.append(f"witness residual {res:.3e} above {FIXED_POINT_TOL}")
    return errors


def check_fixed_point(spec: dict, x) -> list[str]:
    res = fixed_point_residual(spec, x)
    if not res <= FIXED_POINT_TOL:
        return [f"fixed point residual {res:.3e} above {FIXED_POINT_TOL}"]
    return []


# ---------------------------------------------------------------------------
# diamond chains


def diamond_path_sum(spec: dict) -> float:
    """Sum over s -> s branches of the product of |weights|, summed one
    layer at a time (the distributive form of the 2^k-term sum)."""
    k = spec["k"]
    a, b = abs(spec["into"][0]), abs(spec["into"][1])
    for i in range(k - 1):
        p, q = abs(spec["p"][i]), abs(spec["q"][i])
        a, b = p * a + q * b, q * a + p * b
    return abs(spec["back"]) * (a + b)


def diamond_matrix(spec: dict) -> np.ndarray:
    nodes = diamond_nodes(spec["k"])
    pos = {v: i for i, v in enumerate(nodes)}
    M = np.zeros((len(nodes), len(nodes)))
    for s, t, w in diamond_edges(spec):
        M[pos[t], pos[s]] += abs(w)
    return M


def check_rho(result: dict, rho_ref: float, what: str) -> list[str]:
    errors = []
    if not _close(result["rho"], rho_ref, RHO_TOL):
        errors.append(f"{what} rho {result['rho']!r} != reference {rho_ref!r}")
    expected = _expected_verdict(rho_ref)
    if expected is not None and result["verdict"] != expected:
        errors.append(f"{what} verdict {result['verdict']} != {expected}")
    return errors


# ---------------------------------------------------------------------------
# structural sets


def _successors(edges, vertices, removed):
    succ = {v: [] for v in vertices}
    for s, t in edges:
        if s not in removed and t not in removed:
            succ[s].append(t)
    return succ


def topological_order(vertices, edges, removed) -> list[str] | None:
    """Kahn's algorithm on G - removed; None when a cycle survives."""
    keep = [v for v in vertices if v not in removed]
    succ = _successors(edges, keep, removed)
    indeg = {v: 0 for v in keep}
    for v in keep:
        for w in succ[v]:
            indeg[w] += 1
    queue = deque(v for v in keep if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == len(keep) else None


def _reach(start, step, allowed):
    seen, stack = set(), list(start)
    while stack:
        v = stack.pop()
        for w in step.get(v, ()):
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def branch_counts(vertices, edges, S, order) -> dict[tuple[str, str], int]:
    """Number of S-to-S paths with interior outside S, per endpoint pair,
    by path counting over the DAG G - S in topological order."""
    in_s = set(S)
    succ = {v: [] for v in vertices}
    for s, t in edges:
        succ[s].append(t)
    counts = {}
    for s in S:
        ways = dict.fromkeys(order, 0)
        for t in succ[s]:
            if t in in_s:
                counts[(s, t)] = counts.get((s, t), 0) + 1
            else:
                ways[t] += 1
        for v in order:
            for t in succ[v]:
                if t in in_s:
                    counts[(s, t)] = counts.get((s, t), 0) + ways[v]
                else:
                    ways[t] += ways[v]
    return counts


def check_structural_set(spec: dict, S, basic: bool) -> list[str]:
    vertices, edges = spec["nodes"], spec["edges"]
    S = list(S)
    label = "{" + ",".join(S) + "}"
    if not set(S) <= set(vertices):
        return [f"{label} names unknown vertices"]
    order = topological_order(vertices, edges, set(S))
    if order is None:
        return [f"{label}: a cycle survives outside S"]
    outside = set(order)
    succ, pred = {}, {}
    for s, t in edges:
        succ.setdefault(s, []).append(t)
        pred.setdefault(t, []).append(s)
    from_s = _reach(S, succ, outside)
    to_s = _reach(S, pred, outside)
    stranded = sorted(outside - (from_s & to_s))
    if stranded:
        return [f"{label}: {stranded} lie on no branch"]
    counts = branch_counts(vertices, edges, S, order)
    own_basic = all(c <= 1 for c in counts.values())
    if own_basic != basic:
        return [f"{label} flagged basic={basic}, branch counts say {own_basic}"]
    return []


def check_sets(spec: dict, rows: list[dict], stdout: str) -> list[str]:
    """Every listed set is complete with the right basic flag, the list
    is sorted by (|S|, lexicographic) without duplicates, and stdout says
    the same.  Minimality of the listed sets is not checked."""
    errors = []
    if not rows:
        errors.append("no structural sets listed")
    keys = [(len(row["S"]), list(row["S"])) for row in rows]
    if keys != sorted(keys):
        errors.append("sets are not sorted by (|S|, lexicographic)")
    if len({tuple(k[1]) for k in keys}) != len(keys):
        errors.append("sets listed twice")
    for row in rows:
        if list(row["S"]) != sorted(row["S"]):
            errors.append(f"set {row['S']} is not sorted")
        if not row["complete"]:
            errors.append(f"set {row['S']} reported as not complete")
        errors += check_structural_set(spec, row["S"], row["basic"])
    lines = [f"{{{','.join(row['S'])}}} complete {'basic' if row['basic'] else 'non-basic'}"
             for row in rows]
    if stdout.splitlines() != lines:
        errors.append("stdout does not list the same sets as the JSON report")
    return errors
