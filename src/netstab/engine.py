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
drops trials and so replaces it: an operand whose rows are consecutive,
and the destination of every group, become views of the file, so a step
gathers only the operands whose rows are not, into scratch blocks that
the groups share.  The nodes' outputs are a view too when their rows are
consecutive and none is a window slot, which each step shifts.
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

# consecutive small steps after which a trial with a positive stop_delta stops
STOP_STREAK = 8


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
    nodes: tuple[str, ...]

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
        nodes=net.nodes,
    )


def _registers(program: Program, trials: int) -> np.ndarray:
    """Register file of shape (n_regs, trials) with the constant pool loaded."""
    regs = np.zeros((program.n_regs, trials), dtype=np.float64)
    c = program.const_offset
    regs[c : c + program.consts.shape[0], :] = program.consts[:, None]
    return regs


def _rows(index: np.ndarray):
    """Register rows as a slice when they are consecutive, else the index array."""
    if (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _bind(program: Program, regs: np.ndarray):
    """Each group of the tape as (kernel, operands, gathers, destination).

    Operands whose rows of ``regs`` are consecutive are views of it; the
    others are scratch blocks, which ``gathers`` lists as (rows, block)
    pairs for :func:`_run` to fill before the kernel call.  A group's
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
            rows = _rows(program.ops[start:stop, 2 + j])
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


def _output_rows(program: Program):
    """Rows of the nodes' outputs in a register file.

    A slice, so that ``regs[rows]`` is a view, when they are consecutive
    and none is a window slot: the step shifts the window before it has
    read all of its outputs.
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
    0's states as ``keep=None`` holds them, state r in row r.

    Stopped and diverged trials are dropped from the register file, which
    keeps the live trials' columns in order, so trial 0, while live, is
    column 0.
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
    ring = np.zeros((keep, n, trials), dtype=np.float64)
    first = max(0, T - keep)
    ring[np.arange(first, T) % keep] = histories[:, first:].transpose(1, 2, 0)
    if path is not None:
        path[:T] = histories[0]
    regs = _registers(program, trials)
    window = regs[: T * n].reshape(T, n, trials)  # window[d, i]: node i at delay d
    window[...] = histories[:, ::-1].transpose(1, 2, 0)
    bound = _bind(program, regs)
    out_rows = _output_rows(program)
    ids = np.arange(trials)
    cols = slice(None)  # the live trials' columns of the ring
    steps_done = np.full(trials, steps, dtype=np.int64)
    diverged = np.zeros(trials, dtype=bool)
    streak = np.zeros(trials, dtype=np.int64)
    with np.errstate(all="ignore"):
        for k in range(steps):
            if ids.size == 0:
                break
            _run(bound, regs)
            out = regs[out_rows]  # (n, live trials)
            if path is not None:
                path[T + k] = out[:, 0]
            finite = np.isfinite(out).all(axis=0)
            live = finite
            if stop_delta > 0.0:
                delta = np.max(np.abs(out - window[0]), axis=0)
                streak = np.where(delta <= stop_delta, streak + 1, 0)
                live = finite & (streak < STOP_STREAK)

            row = ring[(T + k) % keep]
            if finite.all():
                row[:, cols] = out
            else:
                row[:, ids[finite]] = out[:, finite]
            window[1:] = window[:-1]
            window[0] = out
            if live.all():
                continue

            diverged[ids[~finite]] = True
            steps_done[ids[~finite]] = k
            steps_done[ids[finite & ~live]] = k + 1
            if not live[0]:
                path = None  # trial 0 is done: column 0 is another trial now
            ids = cols = ids[live]
            streak = streak[live]
            # compress copies in C order; regs[:, live] would be F-ordered,
            # and numpy's tanh and cosh round differently on strided operands
            regs = regs.compress(live, axis=1)
            window = regs[: T * n].reshape(T, n, ids.size)
            bound = _bind(program, regs)
    return ring.transpose(2, 0, 1), steps_done, diverged


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

