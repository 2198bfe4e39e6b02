"""Orbit stepping.

Update expressions are flattened once into an instruction tape over a
flat register file (window slots, constant pool, temporaries).  Opcodes
and their numpy kernels come from ``expr.OPERATORS``, the table of the
expression vocabulary: an opcode is the position of its operator's row.
Each distinct node of an update is compiled once, so a subexpression that
several readers in one update share is computed once per step.  A node
that several updates share (expression nodes are hash-consed, so equal
terms of different rules are one node) is compiled once per update: that
keeps the operand rows of each group consecutive, as a slice reads them.

The tape is level-major.  An instruction's level is one more than the
highest level among its operands (window slots and constants are level
0), and the tape is sorted by (level, opcode), so each (level, opcode)
group writes one contiguous range of temporaries and reads only the
window, the constants and lower groups.  One interpreter runs a group as
one gather of its operand rows and one kernel call into its destination
range of a (registers, trials) array: every trial and every instruction
of the group advance at once, and a step costs a few numpy calls per
group, not per instruction.

A register file is bound to the tape once, and again whenever the batch
drops trials: the destination of every group, and an operand whose rows
are consecutive, become views of the file.  So does, for the correctly
rounded rows (``+ - * / neg abs sign``), an operand whose rows are a
constant step apart or one row repeated, which the kernel broadcasts.  A
step gathers only the other operands, into scratch blocks that the groups
share.

A batch runs its live trials in blocks of ``STOP_STREAK`` steps.  Each
step runs the tape, copies the nodes' outputs into a block buffer that
holds the block's states after the last T before it, and refills the
window from that buffer.  After the block, one vectorized pass finds each
trial's first non-finite step and the step that completes its run of
small steps, writes the block into the ring of kept states, each trial up
to its end, and trial 0's path, and drops the trials that ended.  A drop
moves the live columns of the register file and of the block buffer to
the front of their own memory, so neither is allocated again.  The ring
is trial-major, (keep, trials, n), so a block write over scattered trials
copies n-vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

# rows whose numpy kernels round correctly, so that they give the same
# bytes whatever the layout of their operands
_EXACT = frozenset({"+", "-", "*", "/", "neg", "abs", "sign"})


@dataclass(frozen=True)
class Program:
    """A network's updates compiled to one instruction tape.

    Register layout: ``[0, T*n)`` window slots (slot of node i at delay d
    is ``d*n + i``), then the constant pool, then temporaries.  One pass
    over the tape computes all next-state values simultaneously.  The
    tape is sorted by (level, opcode); ``groups`` holds the (start, stop)
    rows of ``ops`` of each group, whose destinations are consecutive
    registers.
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
        return self.T * self.n_nodes


def compile_network(net: TimeDelayedNetwork) -> Program:
    n = net.size
    T = net.T
    node_idx = {name: i for i, name in enumerate(net.nodes)}
    const_slots: dict[str, int] = {}
    consts: list[float] = []

    def const_slot(v: float) -> int:
        key = repr(v)
        if key not in const_slots:
            const_slots[key] = T * n + len(consts)
            consts.append(v)
        return const_slots[key]

    # each update's distinct nodes once, operands first, with a memo per
    # update: a node that several updates share gets a register in each
    memos: list[dict[Expr, int]] = []
    pending: list[tuple[int, int, Call | BinOp, dict[Expr, int]]] = []
    for node in net.nodes:
        reg: dict[Expr, int] = {}
        level: dict[Expr, int] = {}
        for e in _postorder((net.updates[node],)):
            if isinstance(e, Var):
                reg[e] = e.delay * n + node_idx[e.node]
                level[e] = 0
            elif isinstance(e, Const):
                reg[e] = const_slot(e.value)
                level[e] = 0
            elif isinstance(e, Call):
                level[e] = 1 + level[e.arg]
                pending.append((level[e], _OPCODE[e.func], e, reg))
            elif isinstance(e, BinOp):
                level[e] = 1 + max(level[e.left], level[e.right])
                pending.append((level[e], _OPCODE[e.op], e, reg))
            else:
                raise TypeError(f"not an expression: {e!r}")
        memos.append(reg)

    # the constant pool claims slots first, temporaries follow in tape
    # order, so each group's destinations are consecutive; the sort is
    # stable, and operands sit in lower levels, so they have registers
    pending.sort(key=lambda p: p[:2])
    next_reg = T * n + len(consts)
    ops: list[tuple[int, int, int, int]] = []
    groups: list[tuple[int, int]] = []
    for _, members in itertools.groupby(pending, key=lambda p: p[:2]):
        start = len(ops)
        for _, code, e, reg in members:
            if isinstance(e, Call):
                ops.append((code, next_reg, reg[e.arg], -1))
            else:
                ops.append((code, next_reg, reg[e.left], reg[e.right]))
            reg[e] = next_reg
            next_reg += 1
        groups.append((start, len(ops)))

    out_regs = [reg[net.updates[node]] for node, reg in zip(net.nodes, memos)]
    ops_arr = (
        np.array(ops, dtype=np.int64)
        if ops
        else np.empty((0, 4), dtype=np.int64)
    )
    return Program(
        ops=ops_arr,
        groups=tuple(groups),
        consts=np.array(consts, dtype=np.float64),
        out_regs=np.array(out_regs, dtype=np.int64),
        n_regs=next_reg,
        n_nodes=n,
        T=T,
    )


def _registers(program: Program, trials: int) -> np.ndarray:
    """Register file of shape (n_regs, trials) with the constant pool loaded."""
    regs = np.zeros((program.n_regs, trials), dtype=np.float64)
    c = program.const_offset
    regs[c : c + program.consts.shape[0], :] = program.consts[:, None]
    return regs


def _rows(index: np.ndarray, exact: bool = False):
    """Register rows as a basic index when they are regular, else the index array.

    Consecutive rows are a slice.  With ``exact``, for kernels that round
    correctly and so give the same bytes from any operand layout, so are
    rows a constant step apart, and one row repeated is a (1, trials) row
    that the kernel broadcasts; numpy's transcendental kernels may round
    differently on strided or broadcast operands.
    """
    step = np.diff(index)
    first = int(index[0])
    if (step == 1).all():
        return slice(first, int(index[-1]) + 1)
    if exact and (step == 0).all():
        return slice(first, first + 1)
    if exact and step[0] > 0 and (step == step[0]).all():
        return slice(first, int(index[-1]) + 1, int(step[0]))
    return index


def _bind(program: Program, regs: np.ndarray):
    """Each group of the tape as (kernel, operands, gathers, destination).

    Operands whose rows of ``regs`` are regular (see :func:`_rows`) are
    views of it; the others are scratch blocks, which ``gathers`` lists
    as (rows, block) pairs for :func:`_run` to fill before the kernel
    call.  A group's
    kernel reads its blocks before the next group fills them, so the j-th
    operand of every group can use the same j-th block.
    """
    width = max((stop - start for start, stop in program.groups), default=0)
    scratch = np.empty((max(row.arity for row in _ROWS), width, regs.shape[1]))
    bound = []
    for start, stop in program.groups:
        code, dst = program.ops[start, :2].tolist()
        row = _ROWS[code]
        operands = []
        gathers = []
        for j in range(row.arity):
            rows = _rows(program.ops[start:stop, 2 + j], row.name in _EXACT)
            if isinstance(rows, slice):
                operands.append(regs[rows])
            else:
                block = scratch[j, : stop - start]
                gathers.append((rows, block))
                operands.append(block)
        bound.append((row.array, tuple(operands), tuple(gathers), regs[dst : dst + stop - start]))
    return bound


def _run(bound, regs: np.ndarray) -> None:
    for kernel, operands, gathers, out in bound:
        for rows, block in gathers:
            # the rows are in range; mode "clip" skips the copy that
            # the default "raise" makes before writing ``out``
            regs.take(rows, axis=0, out=block, mode="clip")
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


def _output_rows(program: Program):
    """Rows of the nodes' outputs in a register file.

    A slice, so that ``regs[rows]`` is a view, when they are consecutive
    and none is a window slot, which the step rewrites after it has read
    its outputs.
    """
    rows = _rows(program.out_regs)
    if isinstance(rows, slice) and rows.start >= program.const_offset:
        return rows
    return program.out_regs


def run_orbit_batch(
    program: Program,
    histories: np.ndarray,
    steps: int,
    stop_delta: float = 0.0,
    keep: int | None = None,
    path: np.ndarray | None = None,
):
    """Iterate ``trials`` orbits for up to ``steps`` steps each.

    ``histories`` has shape (trials, T, n) in chronological order, oldest
    snapshot first.  Returns (states, steps_done, diverged) where states
    has shape (trials, keep, n) and holds state r of a trial (the
    histories are states 0 .. T-1) in row ``r % keep``; only the last
    ``keep`` states of each trial are kept.  ``keep=None`` keeps all
    T + steps, in order.  States of a trial beyond ``T + steps_done[t]``
    are not written.  A positive ``stop_delta`` stops a trial once the
    max-norm step change stays at or below it for ``STOP_STREAK``
    consecutive steps.  A ``path`` of shape (T + steps, n) receives trial
    0's states as ``keep=None`` holds them, state r in row r, and also the
    non-finite state of a step at which trial 0 diverged.

    The live trials run in blocks of ``STOP_STREAK`` steps, each step's
    outputs collected in a block buffer; after each block one pass finds
    where each trial diverged or stopped, writes the block into the ring
    and the path, each trial up to its end, and drops the trials that
    ended from the register file, which keeps the live trials' columns
    in order, so trial 0, while live, is column 0.
    """
    histories = np.asarray(histories, dtype=np.float64)
    trials, T, n = histories.shape
    if T != program.T or n != program.n_nodes:
        raise ValueError(
            f"history shape {histories.shape} does not match program (T={program.T}, n={program.n_nodes})"
        )
    keep = T + steps if keep is None else int(keep)
    if keep < 1:
        raise ValueError("keep must be positive")
    ring = np.zeros((keep, trials, n), dtype=np.float64)  # trial-major rows
    first = max(0, T - keep)
    ring[np.arange(first, T) % keep] = histories[:, first:].transpose(1, 0, 2)
    if path is not None:
        path[:T] = histories[0]
    regs = _registers(program, trials)
    window = regs[: T * n].reshape(T, n, trials)  # window[d, i]: node i at delay d
    window[...] = histories[:, ::-1].transpose(1, 2, 0)
    del histories  # loaded: freed here when the caller kept no reference
    bound = _bind(program, regs)
    out_rows = _output_rows(program)
    # block[:T] holds the last T states before a block, oldest first, and
    # block[T - 1 + j] the state after its j-th step, so the window is
    # always T consecutive rows of it reversed; after a drop the block is
    # a contiguous prefix of the one allocation
    width = STOP_STREAK
    store = np.empty((T + width) * n * trials)
    block = store.reshape(T + width, n, trials)
    ids = np.arange(trials)  # the live trials
    steps_done = np.full(trials, steps, dtype=np.int64)
    diverged = np.zeros(trials, dtype=bool)
    streak = np.zeros(trials, dtype=np.int64)  # small steps before the block
    with np.errstate(all="ignore"):
        for k in range(0, steps, width):
            if ids.size == 0:
                break
            b = min(width, steps - k)
            block[:T] = window[::-1]
            for j in range(1, b + 1):
                _run(bound, regs)
                block[T - 1 + j] = regs[out_rows]
                window[...] = block[j : j + T][::-1]

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

            live = (bad == b) & (stop == b)
            if not live.all():
                # the trials that ended write their states up to their end,
                # each its last min(written, keep) of them
                gone = bad < stop
                written = np.where(gone, bad, stop + 1)
                at = np.arange(b)[:, None]
                js, ts = np.nonzero((at < written) & (at >= written - keep) & ~live)
                ring[(T + k + js) % keep, ids[ts]] = states[js, :, ts]
                diverged[ids[gone]] = True
                steps_done[ids[gone]] = k + bad[gone]
                stopped = ~gone & ~live
                steps_done[ids[stopped]] = k + stop[stopped] + 1
                if not live[0]:
                    path = None  # trial 0 is done: column 0 is another trial now
                ids = ids[live]
                streak = streak[live]
                bound = None  # frees the old scratch before _bind makes the new
                regs = _compress(regs, live)
                window = regs[: T * n].reshape(T, n, ids.size)
                bound = _bind(program, regs)
                block = _compress(block.reshape(-1, live.size), live)
                block = block.reshape(T + width, n, ids.size)
                states = block[T : T + b]
            # the live trials write the whole block, its last min(b, keep) states
            rows = (T + k + np.arange(max(0, b - keep), b)) % keep
            ring[rows[:, None], ids] = states[b - rows.size :].transpose(0, 2, 1)
    return ring.transpose(1, 0, 2), steps_done, diverged


def undelayed_map(program: Program):
    """The map x -> H(x, ..., x), every window snapshot equal to x.

    The tape is bound to its registers once, so a caller that applies
    the map many times, as a fixed-point iteration does, pays for that
    once.  Each call returns a new array.
    """
    regs = _registers(program, 1)
    window = regs[: program.const_offset].reshape(program.T, program.n_nodes)
    bound = _bind(program, regs)

    def apply(x: np.ndarray) -> np.ndarray:
        window[...] = x
        with np.errstate(all="ignore"):
            _run(bound, regs)
        return regs[program.out_regs, 0]

    return apply

