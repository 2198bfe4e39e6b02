"""Orbit simulation, fixed points, and empirical attraction checks.

The attraction check runs all its trials as one streamed batch of the
orbit engine, which holds a live trial's states only while its tail may
still read them and reduces each trial to its endpoint and the diameters
of its tail's two halves when it ends.  ``netstab simulate``
takes its trajectory from that same batch: trial 0, whose start window
is the one the CLI's seed gives, is recorded while the batch runs it and
run on alone if it stops early, so each orbit is run once.  Every
``Trajectory`` is built by one helper, which sets its domain-exit flag
and the step at which it diverged.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .delays import dedelay
from .errors import ConvergenceError, NetworkError, _iteration_cap
from .network import REPORT_SCHEMA, TimeDelayedNetwork, report_json

__all__ = [
    "Trajectory",
    "AttractionVerdict",
    "iterate_orbit",
    "find_fixed_point",
    "sampling_box",
    "verify_global_attraction",
    "conjugacy_check",
]


# how many values the CSV writer formats at a time: small blocks keep
# np.unique's sort and inverse small next to the orbit
_CSV_BLOCK_VALUES = 4096


@dataclass(frozen=True)
class Trajectory:
    """Snapshots x^{-T+1}, ..., x^0, x^1, ..., x^K in chronological order."""

    nodes: tuple[str, ...]
    T: int
    states: np.ndarray  # (T + completed steps, n)
    left_domain: bool = False
    diverged_at: int | None = None

    @property
    def steps(self) -> int:
        return self.states.shape[0] - self.T

    def snapshot(self, k: int) -> np.ndarray:
        """State x^k; k ranges over -T+1 .. steps."""
        return self.states[k + self.T - 1]

    def to_csv(self) -> str:
        """One line per snapshot: the step, then the ``repr`` of each value.

        Rows go in blocks of about ``_CSV_BLOCK_VALUES`` values, and each
        distinct value of a block is formatted once: a converging orbit
        repeats most of its values.  Values are told apart by their bit
        patterns, so 0.0 and -0.0 keep their own text.
        """
        buf = io.StringIO()
        buf.write("step," + ",".join(self.nodes) + "\n")
        bits = self.states.view(np.uint64)
        rows = max(1, _CSV_BLOCK_VALUES // max(1, bits.shape[1]))
        for start in range(0, bits.shape[0], rows):
            block = bits[start : start + rows]
            keys, inverse = np.unique(block.ravel(), return_inverse=True)
            texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
            cells = texts[inverse.reshape(block.shape)].tolist()
            for step, row in enumerate(cells, start=start + 1 - self.T):
                buf.write(f"{step}," + ",".join(row) + "\n")
        return buf.getvalue()


@dataclass(frozen=True)
class AttractionVerdict:
    converged: bool
    witness: np.ndarray | None
    final_diameter: float
    iterations_used: int
    trials: int
    seed: int
    diverged_trials: int = 0
    # steps run, summed over trials; a trial that stops early adds its own
    trial_steps: int = 0
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "converged": self.converged,
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            # JSON has no infinity: a run whose trials diverge writes null
            "final_diameter": self.final_diameter if math.isfinite(self.final_diameter) else None,
            "iterations_used": self.iterations_used,
            "trials": self.trials,
            "seed": self.seed,
            "diverged_trials": self.diverged_trials,
            "trial_steps": self.trial_steps,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return report_json(self.to_json_dict())


def _as_history(net: TimeDelayedNetwork, history) -> np.ndarray:
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape != (net.T, net.size):
        raise NetworkError(
            f"history must provide {net.T} snapshots of {net.size} values, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise NetworkError("history snapshots must be finite")
    return arr


def _trajectory(
    net: TimeDelayedNetwork, states: np.ndarray, steps_done: int, diverged: bool
) -> Trajectory:
    """The trajectory of the first T + ``steps_done`` rows of ``states``.

    ``left_domain`` is set when a snapshot leaves a node's declared
    domain; a diverged orbit records the step that went non-finite.
    """
    states = states[: net.T + steps_done]
    lo, hi = np.array([(net.domains[node].lo, net.domains[node].hi) for node in net.nodes]).T
    return Trajectory(
        nodes=net.nodes,
        T=net.T,
        states=states,
        left_domain=bool(((states < lo) | (states > hi)).any()),
        diverged_at=steps_done + 1 if diverged else None,
    )


def iterate_orbit(net: TimeDelayedNetwork, history, steps: int) -> Trajectory:
    """Forward orbit of ``net`` from T chronological snapshots.

    Snapshots that leave a node's declared domain set ``left_domain`` but
    iteration continues on the real line; a non-finite value stops the
    orbit and records the offending step in ``diverged_at``.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    hist = _as_history(net, history)
    path = np.empty((net.T + steps, net.size))
    program = engine.compile_network(net)
    done, diverged = engine.run_orbit_batch(program, hist[None], steps, path=path)
    return _trajectory(net, path, int(done[0]), bool(diverged[0]))


def find_fixed_point(net: TimeDelayedNetwork, guess, tol: float = 1e-12) -> np.ndarray:
    """Point x with d_max(x, H(x, ..., x)) <= tol, by damped iteration.

    Damping halves when the residual stops contracting; failure after the
    iteration cap (NETSTAB_MAX_ITERS, default 100000) raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(guess, dtype=np.float64).copy()
    if x.shape != (net.size,):
        raise NetworkError(f"guess must have {net.size} entries")
    apply = engine.undelayed_map(engine.compile_network(net))
    cap = _iteration_cap()
    alpha = 1.0
    prev_res = np.inf
    for _ in range(cap):
        fx = apply(x)
        if not np.isfinite(fx).all():
            raise ConvergenceError("fixed-point iteration produced a non-finite value")
        res = float(np.max(np.abs(fx - x)))
        if res <= tol:
            return x
        if res > prev_res:
            alpha = max(alpha * 0.5, 1.0 / 256.0)
        prev_res = res
        x = x + alpha * (fx - x)
    raise ConvergenceError(
        f"no fixed point within {cap} iterations (last residual {prev_res:.3e})"
    )


def _box_diameter(segment: np.ndarray) -> float:
    if segment.shape[0] == 0:
        return 0.0
    return float(np.max(segment.max(axis=0) - segment.min(axis=0)))


def _tail_length(lengths):
    """How many last states of a trial of ``lengths`` states the attraction
    check reads: max(8, length // 4), at most all of them.  length minus
    it never decreases as length grows."""
    return np.minimum(lengths, np.maximum(8, lengths // 4))


def _tail_diameters(states: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`_box_diameter` of rows ``lo[t] .. hi[t] - 1`` of each trial t
    of ``states`` in block layout, (rows, n, trials), 0 where empty.

    Each trial's rows are clipped to its own range, and a repeated row
    leaves the maxima and minima as they are.
    """
    width = max(1, int((hi - lo).max()))
    rows = np.minimum(lo + np.arange(width)[:, None], hi - 1)
    segment = states[rows, :, np.arange(states.shape[2])]
    return np.where(hi > lo, (segment.max(axis=0) - segment.min(axis=0)).max(axis=1), 0.0)


def sampling_box(
    net: TimeDelayedNetwork, sample_box: dict[str, tuple[float, float]] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (lo, hi) bounds for sampling random histories.

    A node takes its bounds from ``sample_box`` when listed there, else from
    its domain with infinite ends replaced by -10 and 10.  Keys that are
    not nodes, bounds that are not two finite numbers lo <= hi, a domain
    whose default box is empty (one-sided beyond -10 or 10) and a box
    wider than the float range raise NetworkError.
    """
    box = sample_box or {}
    unknown = sorted(set(box) - set(net.nodes))
    if unknown:
        raise NetworkError(f"sample_box names unknown nodes: {unknown}")
    lo = np.empty(net.size)
    hi = np.empty(net.size)
    for i, node in enumerate(net.nodes):
        if node in box:
            bounds = box[node]
            try:
                lo[i], hi[i] = bounds
            except (TypeError, ValueError):
                raise NetworkError(
                    f"sample_box bounds of {node} must be a (lo, hi) pair, got {bounds!r}"
                ) from None
            if not (np.isfinite(lo[i]) and np.isfinite(hi[i]) and lo[i] <= hi[i]):
                raise NetworkError(
                    f"sample_box bounds of {node} must be finite with lo <= hi, got {bounds!r}"
                )
        else:
            dom = net.domains[node]
            lo[i] = dom.lo if np.isfinite(dom.lo) else -10.0
            hi[i] = dom.hi if np.isfinite(dom.hi) else 10.0
            if lo[i] > hi[i]:
                raise NetworkError(f"the default sampling box of {node}, [{lo[i]:g}, {hi[i]:g}], "
                                   f"is empty for its domain [{dom.lo:g}, {dom.hi:g}]; give a box "
                                   "with --box or sample_box")
        if math.isinf(float(hi[i]) - float(lo[i])):
            raise NetworkError(f"the sampling box of {node}, [{lo[i]:g}, {hi[i]:g}], is wider than "
                               "the float range; give a box with --box or sample_box")
    return lo, hi


def verify_global_attraction(
    net: TimeDelayedNetwork,
    trials: int = 20,
    steps: int = 5000,
    sample_box: dict[str, tuple[float, float]] | None = None,
    tol: float = 1e-8,
    seed: int = 0,
) -> AttractionVerdict:
    """Sample random histories, iterate, and report empirical convergence.

    Converged means every trial ends within ``tol`` (max-norm) of the
    others and each trial's tail diameter is non-increasing.  A pass is
    evidence of a globally attracting fixed point, not a proof.
    """
    verdict, _ = _attraction(net, trials, steps, sample_box, tol, seed, record=False)
    return verdict


def _attraction(
    net: TimeDelayedNetwork,
    trials: int,
    steps: int,
    sample_box: dict[str, tuple[float, float]] | None,
    tol: float,
    seed: int,
    record: bool,
) -> tuple[AttractionVerdict, Trajectory | None]:
    """The verdict of :func:`verify_global_attraction`, and with ``record``
    the trajectory of trial 0 over ``steps`` (else None).

    Trial 0 starts from ``default_rng(seed).uniform(lo, hi, (T, n))``, and
    the batch computes it exactly as :func:`iterate_orbit` would from that
    window.  Its states are recorded while the batch runs it; if it stops
    early, it runs on alone from its last T states.  Without ``record``
    nothing holds more than the live trials' tails.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if steps < 1:
        raise ValueError("steps must be positive")
    lo, hi = sampling_box(net, sample_box)
    rng = np.random.default_rng(seed)
    program = engine.compile_network(net)
    path = np.empty((net.T + steps, net.size)) if record else None
    endpoints = np.empty((trials, net.size))
    grew = np.zeros(trials, dtype=bool)

    def reduce(ids, lengths, tails):
        # each trial's tail, its last _tail_length states, in two halves
        # (the first the shorter), as rows of ``tails``
        end = tails.shape[0] - (lengths.max() - lengths)
        start = end - _tail_length(lengths)
        middle = start + (end - start) // 2
        endpoints[ids] = tails[end - 1, :, np.arange(ids.size)]
        d1 = _tail_diameters(tails, start, middle)
        d2 = _tail_diameters(tails, middle, end)
        grew[ids] = d2 > d1 * (1.0 + 1e-9) + 1e-15

    # the batch holds the only reference to the start windows, and frees
    # them once it has loaded them
    steps_done, diverged = engine.run_orbit_batch(
        program, rng.uniform(lo, hi, size=(trials, net.T, net.size)),
        steps, tol * 1e-3, path, (_tail_length, reduce),
    )

    notes: list[str] = []
    n_div = int(diverged.sum())
    shrinking = not grew.any()
    spread = _box_diameter(endpoints) if n_div == 0 else np.inf
    converged = n_div == 0 and shrinking and spread <= tol
    if n_div:
        notes.append(f"{n_div} trial(s) diverged to non-finite values")
    if not shrinking:
        notes.append("tail diameter increased in at least one trial")
    witness = endpoints.mean(axis=0) if converged else None
    verdict = AttractionVerdict(
        converged=converged,
        witness=witness,
        final_diameter=float(spread),
        iterations_used=int(steps_done.max()),
        trials=trials,
        seed=seed,
        diverged_trials=n_div,
        trial_steps=int(steps_done.sum()),
        notes=tuple(notes),
    )
    if path is None:
        return verdict, None
    done, gone = int(steps_done[0]), bool(diverged[0])
    if done < steps and not gone:
        # trial 0 stopped early: it runs on alone from its last T states,
        # recording into the rest of the path
        more, alone_diverged = engine.run_orbit_batch(
            program, path[None, done : net.T + done], steps - done, 0.0, path[done:]
        )
        done, gone = done + int(more[0]), bool(alone_diverged[0])
    return verdict, _trajectory(net, path, done, gone)


def conjugacy_check(
    net: TimeDelayedNetwork,
    history,
    steps: int,
    tol: float = 1e-12,
) -> bool:
    """True iff the delayed orbit and the projected orbit of the
    de-delayed augmentation agree coordinatewise within ``tol``."""
    hist = _as_history(net, history)
    aug = dedelay(net)

    traj = iterate_orbit(net, hist, steps)

    node_idx = {node: i for i, node in enumerate(net.nodes)}
    delay, col = np.array(
        [(d, node_idx[node]) for node, d in map(aug.projection.__getitem__, aug.coords)]
    ).T
    aug_traj = iterate_orbit(aug.net, hist[None, net.T - 1 - delay, col], steps)

    if traj.steps != aug_traj.steps:
        return False
    # each step's max difference, NaN where a difference is NaN, which
    # passes as it did when the steps were compared one at a time
    change = np.abs(traj.states[net.T :] - aug_traj.states[1:, : net.size]).max(axis=1)
    return not (change > tol).any()
