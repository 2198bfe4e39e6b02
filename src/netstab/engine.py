"""Orbit stepping.

Update expressions are flattened once into an instruction tape over a
flat register file (a block of states, constant pool, temporaries).
Opcodes and their numpy kernels come from ``expr.OPERATORS``, the table of
the expression vocabulary: an opcode is the position of its operator's
row.  Each distinct node of an update is compiled once, so a
subexpression that several readers in one update share is computed once
per step.  A node that several updates share (expression nodes are
hash-consed, so equal terms of different rules are one node) is compiled
once per update: that keeps the operand rows of each group consecutive,
as a slice reads them.

The tape is level-major.  An instruction's level is one more than the
highest level among its operands (window slots and constants are level
0), and the tape is sorted by (level, opcode), so each (level, opcode)
group writes one contiguous range of registers and reads only the
window, the constants and lower groups.  One interpreter runs a group as
one kernel call into its destination range of a (registers, trials)
array: every trial and every instruction of the group advance at once,
and a step costs a few numpy calls per group, not per instruction.

``compile_network`` lays the registers out as a batch runs them, and
nothing after it renumbers them.  The register file opens with the block
of T + ``STOP_STREAK`` states a batch steps through (the last T states
before it, then one per step), so the window slot of node i at delay d is
row (T - 1 - d) * n + i; when the outputs are one group in node order,
that group writes block state T, rows T * n + i.  The constant pool and
the temporaries follow.  A group's members go in the order the groups
above read them (walking from the last group back, the nearest reader
first, operand by operand), so a group that reads a lower group through
one operand, or through each of two, reads consecutive rows of it.  Each
use of a constant has its own slot in the pool, in the order its group
reads it, so a constant operand is a slice too.  An operand is a view
when its rows are consecutive; a step gathers only the other operands,
into scratch blocks that the groups share.

A batch runs its live trials in blocks of ``STOP_STREAK`` steps.  The
tape, planned once per program (``Program.plan``), is bound once per
step phase of a block: at phase q every row of the block, window slot or
output, moves q states on, so the window slots read the block's states
before step q in place and the output group writes the state after it;
outputs that are not one group are gathered there by a last copy.  After
the block, one vectorized pass finds each trial's first non-finite step
and the step that completes its run of small steps, writes trial 0's
path, hands the last states of the trials that ended to a ``reduce``
that wants them, and drops those trials; the block's last T states then
open the next one.  A drop moves the live columns of the register file
to the front of its memory, so it is not allocated again.  For a
``reduce``, the live trials' states of each block are then copied out
with their ids.  The live trials all have one length, and the first of
the last states a trial needs never moves back as it grows, so that
state of the live trials bounds the copied blocks: those behind it are
let go.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import OPERATORS, BinOp, Call, Const, Expr, Var, _postorder
from .network import TimeDelayedNetwork

__all__ = [
    "Program",
    "compile_network",
    "run_orbit_batch",
    "undelayed_map",
]

_ROWS = tuple(OPERATORS.values())
_OPCODE = {row.name: code for code, row in enumerate(_ROWS)}

# consecutive small steps after which a trial with a positive stop_delta
# stops; also the number of steps a batch runs between its bookkeeping passes
STOP_STREAK = 8

# values a batch hands to its ``reduce`` in one call, unless one trial's
# states alone, or a sixteenth of the states it keeps, are more
_TAIL_VALUES = 2**16


@dataclass(frozen=True)
class Program:
    """A network's updates compiled to one instruction tape.

    Register layout: ``[0, const_offset)`` is a batch's block of
    ``T + STOP_STREAK`` states, row ``t*n + i`` holding node i in state t;
    the window slot of node i at delay d is state ``T - 1 - d`` of it.  The
    constant pool follows, then the temporaries.  When the outputs are
    one group in node order, as the last group of the tape, they are
    block state T, ``[T*n, (T+1)*n)``, and have no temporaries.  The pool
    has one slot per use of a constant, in the order the groups read
    them, so a group's constant operand is consecutive slots.  One pass
    over the tape computes all next-state values simultaneously.  The
    tape is sorted by (level, opcode); ``groups`` holds the (start, stop)
    rows of ``ops`` of each group, whose destinations are consecutive
    registers, its members in the order the groups above it read them.
    """

    ops: np.ndarray  # (m, 4) int64: opcode, dst, a, b (-1 when unused)
    groups: tuple[tuple[int, int], ...]
    consts: np.ndarray  # float64 constant pool
    out_regs: np.ndarray  # (n,) int64 register holding each node's output
    n_regs: int
    n_nodes: int
    T: int

    @property
    def const_offset(self) -> int:
        return (self.T + STOP_STREAK) * self.n_nodes

    @cached_property
    def plan(self):
        """:func:`_plan` of the program, made on first use."""
        return _plan(self)


def compile_network(net: TimeDelayedNetwork) -> Program:
    n, T = net.size, net.T
    block = (T + STOP_STREAK) * n
    node_idx = {name: i for i, name in enumerate(net.nodes)}
    # one instruction per distinct Call or BinOp node of each update, with
    # a memo per update: a node that several updates share gets one in
    # each.  An operand is an instruction's index, ~slot for a window slot
    # or a float constant; the memo holds each node's operand and level
    keys: list[int] = []  # level * len(_ROWS) + opcode: the tape's sort key
    args: list[tuple] = []
    roots: list = []
    for node in net.nodes:
        memo: dict[Expr, tuple] = {}
        for e in _postorder((net.updates[node],)):
            kind = type(e)
            if kind is Var:
                memo[e] = (~((T - 1 - e.delay) * n + node_idx[e.node]), 0)
                continue
            if kind is Const:
                memo[e] = (e.value, 0)
                continue
            if kind is Call:
                a, level = memo[e.arg]
                operands, code = (a,), _OPCODE[e.func]
            elif kind is BinOp:
                (a, la), (b, lb) = memo[e.left], memo[e.right]
                operands, code, level = (a, b), _OPCODE[e.op], max(la, lb)
            else:
                raise TypeError(f"not an expression: {e!r}")
            memo[e] = (len(args), level + 1)
            keys.append((level + 1) * len(_ROWS) + code)
            args.append(operands)
        roots.append(memo[net.updates[node]][0])

    groups = [
        list(members)
        for _, members in itertools.groupby(
            sorted(range(len(keys)), key=keys.__getitem__), key=keys.__getitem__
        )
    ]
    # consumer order: from the last group back, a group's members go in
    # the order the groups above read them, the nearest reader first, by
    # operand, then by position; so an operand that reads one lower group
    # reads consecutive registers.  Outputs go last, in node order
    rank: list = [None] * len(keys)
    for i, r in enumerate(roots):
        if type(r) is int and r >= 0:
            rank[r] = (len(groups), i)
    counter = 0
    for g in range(len(groups) - 1, -1, -1):
        members = groups[g] = sorted(groups[g], key=rank.__getitem__)
        for j in range(len(args[members[0]])):
            for m in members:
                a = args[m][j]
                if type(a) is int and a >= 0 and (rank[a] is None or rank[a][0] > g):
                    rank[a] = (g, counter)
                    counter += 1

    # every other instruction of an update is below its root, so outputs
    # that are one group are the last group: it writes block state T
    in_block = all(type(r) is int for r in roots) and groups[-1:] == [roots]
    temporaries = groups[:-1] if in_block else groups
    # each use of a constant gets its own slot, in the order the groups,
    # their operands and their members read them; temporaries follow the
    # pool in tape order
    base = block + sum(type(x) is float for operands in args for x in operands)
    base += sum(type(r) is float for r in roots)
    reg = [0] * len(keys)
    for r, m in enumerate(itertools.chain.from_iterable(temporaries), start=base):
        reg[m] = r
    if in_block:
        for i, m in enumerate(roots):
            reg[m] = T * n + i
    consts: list[float] = []

    def register(a) -> int:
        if type(a) is float:
            consts.append(a)
            return block + len(consts) - 1
        return reg[a] if a >= 0 else ~a

    ops = np.full((len(keys), 4), -1, dtype=np.int64)
    bounds: list[tuple[int, int]] = []
    start = 0
    for members in groups:
        stop = start + len(members)
        ops[start:stop, 0] = keys[members[0]] % len(_ROWS)
        ops[start:stop, 1] = [reg[m] for m in members]
        for j in range(len(args[members[0]])):
            ops[start:stop, 2 + j] = [register(args[m][j]) for m in members]
        bounds.append((start, stop))
        start = stop
    out_regs = [register(r) for r in roots]
    return Program(
        ops=ops,
        groups=tuple(bounds),
        consts=np.array(consts, dtype=np.float64),
        out_regs=np.array(out_regs, dtype=np.int64),
        n_regs=base + sum(map(len, temporaries)),
        n_nodes=n,
        T=T,
    )


def _registers(program: Program, trials: int) -> np.ndarray:
    """The register file of ``program`` for ``trials`` trials, with the
    constant pool loaded."""
    regs = np.zeros((program.n_regs, trials), dtype=np.float64)
    c = program.const_offset
    regs[c : c + program.consts.shape[0], :] = program.consts[:, None]
    return regs


def _rows(index: np.ndarray):
    """Register rows as a slice when they are consecutive, else the index array."""
    rows = index.tolist()
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return index


def _plan(program: Program):
    """The tape of each of the ``STOP_STREAK`` steps of a block, as
    (kernel, operand rows, destination rows) of :func:`_registers`'s file.

    At phase q the rows of the block of states, window slots and outputs
    alike, are q * n further on; the pool and the temporaries stay put.
    When the outputs are not block state T, a last entry whose kernel is
    None copies them to block state T + q.  Rows are views where
    :func:`_rows` allows.
    """
    n, T, block = program.n_nodes, program.T, program.const_offset

    def at(index: np.ndarray) -> list:
        """The rows of registers ``index`` at each phase: computed once
        and shifted when all or none of them move."""
        moving = index < block
        count = np.count_nonzero(moving)
        if 0 < count < index.size:
            return [_rows(index + q * n * moving) for q in range(STOP_STREAK)]
        first, by = _rows(index), n * bool(count)
        if isinstance(first, slice):
            return [slice(first.start + q * by, first.stop + q * by) for q in range(STOP_STREAK)]
        return [first + q * by for q in range(STOP_STREAK)]

    plan: list[list] = [[] for _ in range(STOP_STREAK)]
    for start, stop in program.groups:
        kernel = _ROWS[program.ops[start, 0]]
        rows = [at(program.ops[start:stop, 1 + j]) for j in range(1 + kernel.arity)]
        for q in range(STOP_STREAK):
            plan[q].append((kernel.array, tuple(r[q] for r in rows[1:]), rows[0][q]))
    out = program.out_regs
    if out.tolist() != list(range(T * n, (T + 1) * n)):
        for q in range(STOP_STREAK):
            reads = out + q * n * (out < block)
            plan[q].append((None, (reads,), slice((T + q) * n, (T + q + 1) * n)))
    return plan


def _bind(plan, regs: np.ndarray):
    """Each phase of ``plan`` as a list of (kernel, operands, gathers,
    destination) over ``regs``.

    Operand rows that are a slice are views of ``regs``; the others are
    scratch blocks, which ``gathers`` lists as (rows, block) pairs for
    :func:`_run` to fill before the kernel call.  A group's kernel reads
    its blocks before the next group fills them, so the j-th operand of
    every group can use the same j-th block.  An entry without a kernel
    gathers straight into its destination.
    """
    width = max((rows.size for _, operands, _ in plan[0] for rows in operands
                 if not isinstance(rows, slice)), default=0)
    scratch = np.empty((max(row.arity for row in _ROWS), width, regs.shape[1]))
    bound = []
    for phase in plan:
        tape = []
        for kernel, rows, dst in phase:
            out = regs[dst]
            operands = []
            gathers = []
            for j, index in enumerate(rows):
                if isinstance(index, slice):
                    operands.append(regs[index])
                else:
                    block = out if kernel is None else scratch[j, : index.size]
                    gathers.append((index, block))
                    operands.append(block)
            tape.append((kernel, tuple(operands), tuple(gathers), out))
        bound.append(tape)
    return bound


def _run(tape, regs: np.ndarray) -> None:
    for kernel, operands, gathers, out in tape:
        for rows, block in gathers:
            # the rows are in range; mode "clip" skips the copy that
            # the default "raise" makes before writing ``out``
            regs.take(rows, axis=0, out=block, mode="clip")
        if kernel is not None:
            kernel(*operands, out=out)


def _compress(a: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The ``live`` columns of the C-ordered 2-d ``a``, moved to the front
    of its memory.

    Row r moves to offset ``r * kept``, never past where it was, so a
    chunk of rows copied out before it is written overwrites only rows
    already moved, and no second array is allocated.  The result is
    C-ordered: ``a[:, live]`` would be F-ordered, and numpy's tanh and
    cosh round differently on strided operands.
    """
    rows, kept = a.shape[0], int(live.sum())
    out = a.reshape(-1)[: rows * kept].reshape(rows, kept)
    chunk = -(-rows // 8)
    for r in range(0, rows, chunk):
        out[r : r + chunk] = a[r : r + chunk].compress(live, axis=1)
    return out


def _change(after: np.ndarray, before: np.ndarray) -> np.ndarray:
    """The max-norm change from each state of ``before`` to ``after``,
    both (steps, n, trials), per step and trial.

    Not finite at a trial's first non-finite state, as the state before
    it is finite.
    """
    delta = np.subtract(after, before)
    return np.abs(delta, out=delta).max(axis=1)


def run_orbit_batch(
    program: Program,
    histories: np.ndarray,
    steps: int,
    stop_delta: float = 0.0,
    path: np.ndarray | None = None,
    tails=None,
):
    """Iterate ``trials`` orbits for up to ``steps`` steps each; returns
    (steps_done, diverged).

    ``histories`` has shape (trials, T, n) in chronological order, oldest
    snapshot first: states 0 .. T-1 of each trial, whose length L is its
    T + steps_done states.  A positive ``stop_delta`` stops a trial once
    the max-norm step change stays at or below it for ``STOP_STREAK``
    consecutive steps.  A ``path`` of shape (T + steps, n) receives trial
    0's states, state r in row r, and also the non-finite state of a step
    at which trial 0 diverged.

    ``tails``, a pair (keep, reduce), hands each trial's last states to
    ``reduce`` as it ends.  ``keep`` maps lengths to how many last states a
    trial of that length needs, at least one, and L - keep(L) must not
    decrease as L grows.  ``reduce(ids, lengths, states)`` receives the ids
    and lengths of trials that ended and, in block layout, each one's
    states from the first that any of them needs to the end of the
    longest: ``states[-1 - j, :, i]`` is state ``lengths.max() - 1 - j`` of
    trial ``ids[i]``, and no state of it past its own end.  A call gets
    about ``_TAIL_VALUES`` values, or a sixteenth of those kept if more.

    The live trials run in blocks of ``STOP_STREAK`` steps, each step
    reading its window from, and writing its state into, the block of
    states at the head of the register file; after each block one pass
    finds where each trial diverged or stopped, writes trial 0's path up
    to its end and drops the trials that ended from the register file,
    which keeps the live trials' columns in order, so trial 0, while
    live, is column 0.
    """
    histories = np.asarray(histories, dtype=np.float64)
    trials, T, n = histories.shape
    if T != program.T or n != program.n_nodes:
        raise ValueError(
            f"history shape {histories.shape} does not match program (T={program.T}, n={program.n_nodes})"
        )
    if path is not None:
        path[:T] = histories[0]
    regs = _registers(program, trials)
    # block[:T] holds the last T states before a block, oldest first, and
    # block[T - 1 + j] the state after its j-th step: each phase's tape
    # reads its window from the block and writes its state into it
    width = STOP_STREAK
    block = regs[: (T + width) * n].reshape(T + width, n, trials)
    block[:T] = histories.transpose(1, 2, 0)
    del histories  # loaded: freed here when the caller kept no reference
    phases = _bind(program.plan, regs)
    ids = np.arange(trials)  # the live trials
    # with ``tails``, the blocks a trial may still need: (first state, the
    # block's trials, its states in block layout)
    kept = None if tails is None else collections.deque([(0, ids, block[:T].copy())])
    steps_done = np.full(trials, steps, dtype=np.int64)
    diverged = np.zeros(trials, dtype=bool)
    streak = np.zeros(trials, dtype=np.int64)  # small steps before the block
    with np.errstate(all="ignore"):
        for k in range(0, steps, width):
            if ids.size == 0:
                break
            b = min(width, steps - k)
            for tape in phases[:b]:
                _run(tape, regs)

            states = block[T : T + b]
            change = _change(states, block[T - 1 : T - 1 + b])
            # the first non-finite step and the step that completes a small
            # streak, each b where there is none; a non-finite step is never small
            bad = stop = np.full(ids.size, b)
            if not np.isfinite(change).all():
                finite = np.isfinite(states).all(axis=1)
                bad = np.where(finite.all(axis=0), b, finite.argmin(axis=0))
            if stop_delta > 0.0:
                # small steps in a row after each step: since the last large
                # one, or since the streak the trial brought into the block
                at = np.arange(1, b + 1)[:, None]
                last = np.where(change <= stop_delta, -streak, at)
                run = at - np.maximum.accumulate(last, axis=0)
                complete = run >= STOP_STREAK
                stop = np.where(complete.any(axis=0), complete.argmax(axis=0), b)
                streak = run[-1]
            if path is not None:
                length = min(int(bad[0]), int(stop[0]), b - 1) + 1
                path[T + k : T + k + length] = states[:length, :, 0]
            if kept is not None:
                # the block in place, until its live trials' states are copied
                kept.append((T + k, ids, states))

            live = (bad == b) & (stop == b)
            if not live.all():
                gone, ended = bad < stop, ids[~live]
                diverged[ids[gone]] = True
                steps_done[ended] = k + np.where(gone, bad, stop + 1)[~live]
                if kept is not None:
                    _hand_over(kept, ended, T + steps_done[ended], *tails)
                if not live[0]:
                    path = None  # trial 0 is done: column 0 is another trial now
                ids = ids[live]
                streak = streak[live]
                phases = None  # frees the old scratch before _bind makes the new
                regs = _compress(regs, live)
                block = regs[: (T + width) * n].reshape(T + width, n, ids.size)
                phases = _bind(program.plan, regs)
            if kept is not None:
                kept[-1] = (T + k, ids, block[T : T + b].copy())
                # a block behind the live trials' tails is never read again
                first = T + k + b - tails[0](T + k + b)
                while kept[0][0] + kept[0][2].shape[0] <= first:
                    kept.popleft()
            # the block's last T states start the next block (a block
            # shorter than STOP_STREAK is the last one)
            block[:T] = block[b : b + T]
    if kept is not None and ids.size:
        _hand_over(kept, ids, T + steps_done[ids], *tails)
    return steps_done, diverged


def _hand_over(kept, ids: np.ndarray, lengths: np.ndarray, keep, reduce) -> None:
    """:func:`run_orbit_batch`'s ``reduce`` of the trials ``ids``, which end
    at ``lengths``, with their states gathered from the ``kept`` blocks."""
    starts = lengths - keep(lengths)
    n = kept[-1][2].shape[1]
    # one gather per kept block and call: long tails go a few trials a call
    values = max(_TAIL_VALUES, sum(states.size for _, _, states in kept) // 16)
    chunk = max(1, values // (int(lengths.max() - starts.min()) * n))
    for c in range(0, ids.size, chunk):
        part = ids[c : c + chunk]
        first, end = int(starts[c : c + chunk].min()), int(lengths[c : c + chunk].max())
        gathered = np.empty((end - first, n, part.size))
        for r, cols, states in kept:
            if r + states.shape[0] > first:
                lo = max(first, r)
                states[lo - r : end - r].take(np.searchsorted(cols, part), axis=2, mode="clip",
                                             out=gathered[lo - first : r + states.shape[0] - first])
        reduce(part, lengths[c : c + chunk], gathered)
        del gathered  # freed before the next part's is made


def undelayed_map(program: Program):
    """The map x -> H(x, ..., x), every window snapshot equal to x.

    The tape is bound to its registers once, so a caller that applies
    the map many times, as a fixed-point iteration does, pays for that
    once.  Each call returns a new array.
    """
    T, n = program.T, program.n_nodes
    regs = _registers(program, 1)
    block = regs[: (T + 1) * n].reshape(T + 1, n)
    tape = _bind(program.plan[:1], regs)[0]

    def apply(x: np.ndarray) -> np.ndarray:
        block[:T] = x
        with np.errstate(all="ignore"):
            _run(tape, regs)
        return block[T].copy()

    return apply
