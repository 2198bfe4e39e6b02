from pathlib import Path

import numpy as np
import pytest

from gen import (build_benchmark_network, eval_interval, full_orbit_batch, network_as_built,
                 random_network, reference_apply_undelayed, reference_orbit_batch)

from netstab import engine, gallery, sim
from netstab.expr import (
    OPERATORS,
    BinOp,
    Call,
    Const,
    Interval,
    Var,
    _postorder,
    eval_point,
)
from netstab.network import build_network, load_network

R = Interval.whole()


def test_compile_counts():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    prog = engine.compile_network(net)
    assert prog.T == 4 and prog.n_nodes == 2
    assert prog.out_regs.shape == (2,)
    assert prog.ops.shape[1] == 4


def test_pure_variable_update_compiles_to_window_slot():
    net = build_network([("x1", R), ("x2", R)], [("x1", "x2[-1]"), ("x2", "x2")])
    prog = engine.compile_network(net)
    assert prog.ops.shape[0] == 0
    # x1 reads slot (delay 1, node 1); x2 reads slot (delay 0, node 1)
    assert prog.out_regs.tolist() == [1 * 2 + 1, 0 * 2 + 1]


def test_shared_node_is_computed_once_with_the_same_orbit():
    # one tanh node read twice, or beside a copy whose product is written
    # the other way round: the same value from nodes of its own
    shared = Call("tanh", BinOp("*", Const(0.5), Var("x2")))
    copy = Call("tanh", BinOp("*", Var("x2"), Const(0.5)))

    def compiled(second):
        update = BinOp("-", BinOp("*", shared, second), BinOp("*", Const(0.1), Var("x1")))
        net = network_as_built(
            ("x1", "x2"), {"x1": R, "x2": R}, {"x1": update, "x2": Call("sin", Var("x1"))}
        )
        return net, engine.compile_network(net)

    (net, dag), (_, copies) = compiled(shared), compiled(copy)
    # one tape op per distinct Call or BinOp node of each update
    inner = sum(
        isinstance(e, (Call, BinOp)) for u in net.updates.values() for e in _postorder((u,))
    )
    assert dag.ops.shape[0] == inner == copies.ops.shape[0] - 2
    history = np.array([[0.3, -0.7]])
    dag_states, _, _ = full_orbit_batch(dag, history[None], 50)
    copies_states, _, _ = full_orbit_batch(copies, history[None], 50)
    assert np.array_equal(dag_states, copies_states)


def test_single_step_matches_eval_point():
    rng = np.random.default_rng(131)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(1, 5)), max_delay=3)
        prog = engine.compile_network(net)
        history = rng.uniform(-2, 2, (net.T, net.size))
        (states,), (done,), (diverged,) = full_orbit_batch(prog, history[None], 1)
        assert done == 1 and not diverged
        assignment = {}
        for i, node in enumerate(net.nodes):
            for d in range(net.T):
                assignment[(node, d)] = history[net.T - 1 - d, i]
        expected = [eval_point(net.updates[n], assignment) for n in net.nodes]
        assert np.allclose(states[net.T], expected, rtol=1e-13, atol=1e-13)


# numpy's vectorised transcendental kernels may round differently from the
# C library's (tanh and cosh by up to 2 ulp measured on an AVX-512 x86-64)
LIBM_ROWS = {"tanh", "sech", "exp", "sin", "cos"}


def _row_cases():
    x1 = Var("x1")
    for name, row in OPERATORS.items():
        if row.arity == 1:
            # the argument changes sign over the box, so abs and sign see both
            inner = BinOp("-", BinOp("*", Const(0.7), x1), Const(0.6))
            yield pytest.param(name, Call(name, inner), id=name)
        else:
            yield pytest.param(name, BinOp(name, x1, Const(0.3)), id=f"x1{name}c")
            yield pytest.param(name, BinOp(name, Const(0.3), x1), id=f"c{name}x1")


@pytest.mark.parametrize("name, update", list(_row_cases()))
def test_every_operator_row_through_the_tape(name, update):
    box = Interval(0.25, 2.0)
    net = network_as_built(("x1",), {"x1": box}, {"x1": update})
    prog = engine.compile_network(net)
    assert list(OPERATORS).index(name) in prog.ops[:, 0]
    enclosure = eval_interval(update, {("x1", 0): box})
    for x in np.linspace(box.lo, box.hi, 15):
        (states,), (done,), (diverged,) = full_orbit_batch(prog, [[[x]]], 1)
        assert done == 1 and not diverged
        want = eval_point(update, {("x1", 0): x})
        if name in LIBM_ROWS:
            np.testing.assert_array_max_ulp(states[1, 0], want, maxulp=2)
        else:
            assert states[1, 0] == want
        assert enclosure.lo <= want <= enclosure.hi


def test_early_stop():
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    prog = engine.compile_network(net)
    (states,), (done,), (diverged,) = full_orbit_batch(prog, [[[1.0]]], 5000, stop_delta=1e-12)
    assert not diverged
    assert done < 200


def test_divergence_detection():
    net = build_network([("x1", R)], [("x1", "x1*x1 + 1")])
    prog = engine.compile_network(net)
    (states,), (done,), (diverged,) = full_orbit_batch(prog, [[[2.0]]], 100)
    assert diverged
    assert done < 100
    assert np.isfinite(states[: 1 + done]).all()


def test_division_produces_divergence_not_crash():
    net = build_network([("x1", R)], [("x1", "1 / (x1 - 1)")])
    prog = engine.compile_network(net)
    # hits x1 == 1 exactly on the second step: 1/(2-1) = 1, then 1/0
    (states,), (done,), (diverged,) = full_orbit_batch(prog, [[[2.0]]], 10)
    assert diverged


def test_apply_undelayed():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.3)
    prog = engine.compile_network(net)
    x = np.array([0.2, -0.4])
    got = engine.undelayed_map(prog)(x)
    want = [
        0.5 * 0.2 + 0.2 * np.tanh(-0.4) + 0.3,
        0.5 * -0.4 + 0.2 * np.tanh(0.2),
    ]
    assert np.allclose(got, want, atol=1e-14)


def test_apply_undelayed_is_bit_identical_to_one_orbit_step():
    rng = np.random.default_rng(139)
    calls = set()
    for _ in range(30):
        net = random_network(
            rng, int(rng.integers(2, 6)), max_delay=3, require_delay=True
        )
        calls.update(_calls(net))
        prog = engine.compile_network(net)
        assert prog.T >= 2
        x = rng.uniform(-2, 2, net.size)
        (states,), _, _ = full_orbit_batch(prog, np.tile(x, (1, prog.T, 1)), 1)
        assert np.array_equal(engine.undelayed_map(prog)(x), states[prog.T])
    assert {"sech", "sin", "cos"} <= calls


def _calls(net):
    found = set()
    stack = list(net.updates.values())
    while stack:
        e = stack.pop()
        if isinstance(e, Call):
            found.add(e.func)
            stack.append(e.arg)
        elif isinstance(e, BinOp):
            stack.extend((e.left, e.right))
    return found


def test_batch_per_trial_stops():
    # one contracting trial, one diverging trial
    net = build_network([("x1", R)], [("x1", "x1*x1")])
    prog = engine.compile_network(net)
    histories = np.array([[[0.5]], [[3.0]]])
    states, done, diverged = full_orbit_batch(prog, histories, 400, stop_delta=1e-14)
    assert not diverged[0] and diverged[1]
    assert done[1] < 20


# ---------------------------------------------------------------------------
# grouped execution against an instruction-at-a-time reference

def _every_row_term(rng, net):
    """A term that runs every operator row, built around one node ``u``
    that it reads several times."""
    src = Var(net.nodes[int(rng.integers(net.size))], int(rng.integers(0, 3)))
    u = Call("tanh", BinOp("*", Const(float(rng.uniform(0.5, 1.5))), src))
    pieces = [
        Call("exp", Call("neg", Call("abs", u))),
        BinOp("*", Call("sign", u), u),
        BinOp("/", u, BinOp("+", Const(2.0), Call("cos", u))),
        Call("sin", BinOp("-", u, Call("sech", src))),
    ]
    total = pieces[0]
    for p in pieces[1:]:
        total = BinOp("+", total, p)
    return BinOp("*", Const(float(rng.uniform(-0.2, 0.2))), total)


def _grouped_cases():
    rng = np.random.default_rng(151)
    for _ in range(30):
        net = random_network(
            rng, int(rng.integers(2, 7)), max_delay=3, require_delay=True
        )
        term = _every_row_term(rng, net)
        updates = dict(net.updates)
        # one term object in two updates: its nodes are shared across roots
        for node in {net.nodes[0], net.nodes[-1]}:
            updates[node] = BinOp("+", updates[node], term)
        yield network_as_built(net.nodes, net.domains, updates)


def _assert_same_orbits(prog, histories, steps, stop_delta):
    got = full_orbit_batch(prog, histories, steps, stop_delta)
    want = reference_orbit_batch(prog, histories, steps, stop_delta)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return got


def test_grouped_tape_is_bit_identical_to_one_instruction_at_a_time():
    rng = np.random.default_rng(8)
    rows = set()
    for net in _grouped_cases():
        prog = engine.compile_network(net)
        rows.update(prog.ops[:, 0].tolist())
        assert prog.T >= 2
        # every group is one opcode writing consecutive registers, and reads
        # only registers written before the group
        for start, stop in prog.groups:
            block = prog.ops[start:stop]
            assert (block[:, 0] == block[0, 0]).all()
            assert (np.diff(block[:, 1]) == 1).all()
            assert (block[:, 2:] < block[0, 1]).all()
        for trials, steps, stop_delta in ((1, 60, 0.0), (7, 60, 0.0), (7, 400, 1e-9)):
            histories = rng.uniform(-2, 2, (trials, prog.T, prog.n_nodes))
            _assert_same_orbits(prog, histories, steps, stop_delta)
        xs = rng.uniform(-2, 2, (3, prog.n_nodes))
        assert np.array_equal(
            engine.undelayed_map(prog)(xs[0]), reference_apply_undelayed(prog, xs[0])
        )
        # one binding applied repeatedly, as find_fixed_point does
        apply = engine.undelayed_map(prog)
        for x in xs[1:]:
            assert np.array_equal(apply(x), reference_apply_undelayed(prog, x))
    assert rows == set(range(len(OPERATORS)))


def test_grouped_tape_matches_the_reference_on_divergence_and_early_stops():
    net = build_network(
        [("x1", R), ("x2", R)],
        [("x1", "x1*x1 + 0.1*tanh(x2[-2])"), ("x2", "0.5*x2 - 0.2*x1[-1]")],
    )
    prog = engine.compile_network(net)
    histories = np.array(
        [[[0.5, 0.1]] * 3, [[3.0, -1.0]] * 3, [[0.9, 2.0]] * 3, [[1.2, 0.0]] * 3]
    )
    for stop_delta in (0.0, 1e-12):
        _, done, diverged = _assert_same_orbits(prog, histories, 300, stop_delta)
        assert diverged.tolist() == [False, True, False, True]
    _, done, diverged = _assert_same_orbits(prog, histories[1:2], 300, 0.0)
    assert diverged[0] and done[0] < 20


def _stopping_cases():
    """Batches whose trials stop at different steps, and batches where some
    trials diverge, so the live set shrinks while the tails are kept."""
    rng = np.random.default_rng(9)
    for net in _grouped_cases():
        prog = engine.compile_network(net)
        yield prog, rng.uniform(-2, 2, (7, prog.T, prog.n_nodes)), 400, 1e-9
    prog = engine.compile_network(build_network(
        [("x1", R), ("x2", R)],
        [("x1", "x1*x1 + 0.1*tanh(x2[-2])"), ("x2", "0.5*x2 - 0.2*x1[-1]")],
    ))
    histories = rng.uniform(-1.5, 1.5, (40, prog.T, prog.n_nodes))
    for stop_delta in (0.0, 1e-12):
        yield prog, histories, 300, stop_delta


def _last(count):
    """A ``keep`` of ``count`` last states, or of every state of a shorter trial."""
    return lambda lengths: np.minimum(lengths, count)


def _handed_over(prog, histories, steps, stop_delta, keep):
    """run_orbit_batch with ``keep`` and a ``reduce`` that records what it
    receives: ({trial: (its length, its first state handed over, those
    states up to its end)}, steps_done, diverged)."""
    handed = {}

    def reduce(ids, lengths, tails):
        first = int(lengths.max()) - tails.shape[0]
        assert first == int((lengths - keep(lengths)).min())
        for i, (t, length) in enumerate(zip(ids.tolist(), lengths.tolist())):
            assert t not in handed  # once per trial
            handed[t] = length, first, tails[: length - first, :, i]

    done, diverged = engine.run_orbit_batch(
        prog, histories, steps, stop_delta, tails=(keep, reduce)
    )
    assert sorted(handed) == list(range(histories.shape[0]))
    return handed, done, diverged


def _assert_tails_are_the_last_states(full, T, keep, handed, done):
    for t, length in enumerate(T + done):
        got_length, first, tail = handed[t]
        assert got_length == length and first <= length - keep(length)
        assert np.array_equal(tail, full[t, first:length])


def test_tails_hold_the_last_states_of_the_full_history():
    stops = divergences = 0
    for prog, histories, steps, stop_delta in _stopping_cases():
        full, done, diverged = full_orbit_batch(prog, histories, steps, stop_delta)
        stops += len(set(done[~diverged].tolist())) > 1
        divergences += 0 < diverged.sum() < diverged.size
        for keep in (_last(1), _last(prog.T + 1), _last(64), sim._tail_length):
            handed, tail_done, tail_diverged = _handed_over(
                prog, histories, steps, stop_delta, keep
            )
            assert np.array_equal(tail_done, done)
            assert np.array_equal(tail_diverged, diverged)
            _assert_tails_are_the_last_states(full, prog.T, keep, handed, done)
    assert stops >= 30 and divergences == 2


def test_batch_records_trial_zero_while_it_runs():
    # trial 0 outlives some trials and is outlived by others; the path holds
    # exactly its states, and nothing past its last step
    for prog, histories, steps, stop_delta in _stopping_cases():
        full, done, diverged = full_orbit_batch(prog, histories, steps, stop_delta)
        path = np.full((prog.T + steps, prog.n_nodes), np.nan)
        path_done, _ = engine.run_orbit_batch(prog, histories, steps, stop_delta, path)
        assert np.array_equal(path_done, done)
        length = prog.T + done[0] + diverged[0]  # a diverged step is written too
        assert np.array_equal(path[: prog.T + done[0]], full[0, : prog.T + done[0]])
        assert np.isnan(path[length:]).all()


# ---------------------------------------------------------------------------
# block stepping: a batch tests, records and drops trials once per
# STOP_STREAK steps, so trials end at every phase of a block


def _halving_ring():
    # x -> x/2 from 2^m stops one step later per doubling: every phase
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    return engine.compile_network(net), np.array([[[2.0**m]] for m in range(16)]), 1e-9


def _squaring():
    # 0.5 stops after 14 steps; 3.0 and 1.1 diverge at steps 9 and 12
    net = build_network([("x1", R)], [("x1", "x1*x1")])
    return engine.compile_network(net), np.array([[[0.5]], [[3.0]], [[1.1]], [[0.9]]]), 1e-12


def _delayed_pair():
    net = build_network(
        [("x1", R), ("x2", R)],
        [("x1", "x1*x1 + 0.1*tanh(x2[-2])"), ("x2", "0.5*x2 - 0.2*x1[-1]")],
    )
    prog = engine.compile_network(net)
    histories = np.random.default_rng(10).uniform(-1.5, 1.5, (24, prog.T, prog.n_nodes))
    return prog, histories, 1e-12


def _assert_tails_match_the_reference(prog, histories, steps, stop_delta, keep):
    full, done, diverged = reference_orbit_batch(prog, histories, steps, stop_delta)
    handed, tail_done, tail_diverged = _handed_over(prog, histories, steps, stop_delta, keep)
    assert np.array_equal(tail_done, done)
    assert np.array_equal(tail_diverged, diverged)
    _assert_tails_are_the_last_states(full, prog.T, keep, handed, done)
    return done, diverged


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 17, 60])
def test_block_boundaries_match_the_reference(steps):
    for prog, histories, stop_delta in (_halving_ring(), _squaring(), _delayed_pair()):
        for keep in (_last(1), _last(prog.T + 1), _last(7), _last(64), sim._tail_length):
            _assert_tails_match_the_reference(prog, histories, steps, stop_delta, keep)
            _assert_tails_match_the_reference(prog, histories, steps, 0.0, keep)


def test_trials_stop_at_every_phase_of_a_block():
    prog, histories, stop_delta = _halving_ring()
    for keep in (_last(1), _last(5), _last(64), sim._tail_length):
        done, diverged = _assert_tails_match_the_reference(
            prog, histories, 60, stop_delta, keep
        )
        assert not diverged.any()
        assert set((done % engine.STOP_STREAK).tolist()) == set(range(engine.STOP_STREAK))


def test_a_trial_diverges_and_others_stop_in_one_block():
    prog, histories, stop_delta = _squaring()
    done, diverged = _assert_tails_match_the_reference(prog, histories, 40, stop_delta, _last(5))
    assert diverged.tolist() == [False, True, True, False]
    # 0.5 stops, 3.0 and 1.1 diverge, all within the second block
    assert {int(d) // engine.STOP_STREAK for d in done[:3]} == {1}
    assert done[3] // engine.STOP_STREAK == 2


@pytest.mark.parametrize("first", [0.5, 3.0])
def test_path_ends_where_trial_zero_ends_mid_block(first):
    prog, histories, stop_delta = _squaring()
    histories = np.concatenate([[[[first]]], histories[3:]])  # 0.9 outlives trial 0
    full, done, diverged = reference_orbit_batch(prog, histories, 40, stop_delta)
    assert 0 < done[0] % engine.STOP_STREAK and done[1] > done[0]
    path = np.full((prog.T + 40, 1), np.nan)
    path_done, path_diverged = engine.run_orbit_batch(prog, histories, 40, stop_delta, path)
    assert np.array_equal(path_done, done) and np.array_equal(path_diverged, diverged)
    end = prog.T + done[0]
    assert np.array_equal(path[:end], full[0, :end])
    if diverged[0]:
        # the step that diverged is written too
        assert np.isinf(path[end]).all()
        end += 1
    assert np.isnan(path[end:]).all()


# ---------------------------------------------------------------------------
# the whole corpus against the reference


def _corpus():
    """The gallery, the bundled networks, seeded random networks, delayed
    and undelayed (two with T above STOP_STREAK), one whose output is a
    window slot and one that diverges."""
    yield from (
        gallery.cg_ring(6, 0.1, 1.0, 0.5), gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.3),
        gallery.undelayed_pair(0.5, 0.1, 1.0), gallery.distributed_pair(),
        gallery.tanh_ring(6, 0.5), gallery.six_node(),
    )
    for path in sorted((Path(__file__).resolve().parent.parent / "networks").glob("*.net")):
        yield load_network(path.read_text())
    rng = np.random.default_rng(163)
    for k in range(24):
        delay = (0, 3, 11)[k % 3] if k < 6 else 3 * (k % 2)
        yield random_network(rng, int(rng.integers(1, 8)), max_delay=delay,
                             require_delay=delay > 0)
    yield build_network(
        [("x1", R), ("x2", R)], [("x1", "x2[-2]"), ("x2", "0.9*tanh(x1) - 0.3*x2[-1]")]
    )
    yield build_network(
        [("x1", R), ("x2", R)],
        [("x1", "x1*x1 + 0.1*tanh(x2[-2])"), ("x2", "0.5*x2 - 0.2*x1[-1]")],
    )


def test_corpus_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(167)
    phases, stop_phases, divergences, long_windows = set(), set(), 0, 0
    for i, net in enumerate(_corpus()):
        prog = engine.compile_network(net)
        long_windows += prog.T > engine.STOP_STREAK
        steps = 40 + i % engine.STOP_STREAK
        phases.add(steps % engine.STOP_STREAK)
        histories = rng.uniform(-1.5, 1.5, (6, prog.T, prog.n_nodes))
        histories[1] = 3.0  # diverges where x1 squares itself
        for stop_delta in (0.0, 1e-7):
            _, done, diverged = _assert_same_orbits(prog, histories, steps, stop_delta)
            _assert_tails_match_the_reference(prog, histories, steps, stop_delta, _last(5))
            _assert_tails_match_the_reference(prog, histories, steps, stop_delta, sim._tail_length)
            stopped = (done < steps) & ~diverged
            stop_phases.update((done[stopped] % engine.STOP_STREAK).tolist())
            divergences += int(diverged.sum())
            full, _, _ = reference_orbit_batch(prog, histories, steps, stop_delta)
            path = np.full((prog.T + steps, prog.n_nodes), np.nan)
            engine.run_orbit_batch(prog, histories, steps, stop_delta, path)
            end = prog.T + done[0]
            assert np.array_equal(path[:end], full[0, :end])
            assert np.isnan(path[end + diverged[0]:]).all()
        apply = engine.undelayed_map(prog)
        for x in rng.uniform(-1.5, 1.5, (2, prog.n_nodes)):
            assert np.array_equal(apply(x), reference_apply_undelayed(prog, x))
    assert phases == stop_phases == set(range(engine.STOP_STREAK))
    assert divergences > 0 and long_windows == 2


def test_rows_are_views_only_where_the_kernel_rounds_the_same():
    # a constant step, or one row repeated, is a view only for an exactly
    # rounded row; a transcendental row gathers it into a contiguous block
    assert engine._rows(np.array([4, 5, 6])) == slice(4, 7)
    assert engine._rows(np.array([4])) == slice(4, 5)
    strided, repeated = np.array([3, 5, 7]), np.array([9, 9, 9])
    assert engine._rows(strided, exact=True) == slice(3, 8, 2)
    assert engine._rows(repeated, exact=True) == slice(9, 10)
    assert engine._rows(strided) is strided and engine._rows(repeated) is repeated
    assert engine._rows(np.array([7, 5, 3]), exact=True).tolist() == [7, 5, 3]
    # tanh of x1 and of x3 reads window slots 0 and 2, a constant step, and
    # gathers them; the product of 0.5 and x1 to x3 reads one constant
    # three times, as a view
    net = build_network(
        [("x1", R), ("x2", R), ("x3", R)],
        [("x1", "tanh(x1)"), ("x2", "0.5*x1 + 0.5*x2 + 0.5*x3"), ("x3", "tanh(x3)")],
    )
    prog = engine.compile_network(net)
    bound = {kernel: gathers for kernel, _, gathers, _ in engine._bind(engine._plan(prog, 1), engine._registers(prog, 2))[0]}
    assert [rows.tolist() for rows, _ in bound[np.tanh]] == [[0, 2]]
    assert bound[np.multiply] == ()


def test_bench_ring_gathers_only_its_tanh_window_reads():
    # consumer-ordered temporaries and one constant slot per use leave one
    # gather per step, tanh's window read, at every phase of a block; every
    # other operand is a contiguous view, none strided or broadcast
    prog = engine.compile_network(build_benchmark_network(48))
    phases = engine._bind(engine._plan(prog, engine.STOP_STREAK), engine._registers(prog, 3))
    assert len(phases) == engine.STOP_STREAK
    for tape in phases:
        gathers = [(kernel, rows) for kernel, _, g, _ in tape for rows, _ in g]
        assert [kernel for kernel, _ in gathers] == [np.tanh]
        assert (gathers[0][1] < (prog.T + engine.STOP_STREAK) * prog.n_nodes).all()
        for _, operands, g, out in tape:
            gathered = [id(block) for _, block in g]
            views = [op for op in operands if id(op) not in gathered]
            assert all(v.flags.c_contiguous and v.shape == out.shape for v in views)


def test_bench_ring_runs_in_six_groups():
    prog = engine.compile_network(build_benchmark_network(48))
    assert prog.ops.shape[0] == 384
    assert len(prog.groups) <= 6
    # the outputs are consecutive temporaries, read as a view each step
    assert isinstance(engine._output_rows(prog), slice)


def test_outputs_in_the_window_are_read_before_it_shifts():
    # each output is a window slot, and the slots are consecutive: a view of
    # them would see the shifted window, not this step's outputs
    net = build_network(
        [("x1", R), ("x2", R)], [("x1", "x1[-1]"), ("x2", "x2[-1]")]
    )
    prog = engine.compile_network(net)
    assert prog.out_regs.tolist() == [2, 3]
    assert not isinstance(engine._output_rows(prog), slice)
    histories = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    states, _, _ = _assert_same_orbits(prog, histories, 5, 0.0)
    assert states[0, :, 0].tolist() == [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0]
