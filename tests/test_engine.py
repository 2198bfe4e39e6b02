import numpy as np
import pytest

from gen import random_network

from netstab import engine
from netstab import gallery
from netstab.expr import (
    OPERATORS,
    BinOp,
    Call,
    Const,
    Interval,
    Var,
    eval_interval,
    eval_point,
)
from netstab.network import build_network, network_from_exprs

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
    def update(shared: bool):
        a = Call("tanh", BinOp("*", Const(0.5), Var("x2")))
        b = a if shared else Call("tanh", BinOp("*", Const(0.5), Var("x2")))
        return BinOp("-", BinOp("*", a, b), BinOp("*", Const(0.1), Var("x1")))

    dag, tree = (
        engine.compile_network(
            network_from_exprs(
                ("x1", "x2"),
                {"x1": R, "x2": R},
                {"x1": update(shared), "x2": Call("sin", Var("x1"))},
                run_normalize=False,
            )
        )
        for shared in (True, False)
    )
    assert dag.ops.shape[0] == tree.ops.shape[0] - 2
    history = np.array([[0.3, -0.7]])
    dag_states, _, _ = engine.run_orbit(dag, history, 50)
    tree_states, _, _ = engine.run_orbit(tree, history, 50)
    assert np.array_equal(dag_states, tree_states)


def test_single_step_matches_eval_point():
    rng = np.random.default_rng(131)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(1, 5)), max_delay=3)
        prog = engine.compile_network(net)
        history = rng.uniform(-2, 2, (net.T, net.size))
        states, done, diverged = engine.run_orbit(prog, history, 1)
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
    net = network_from_exprs(
        ("x1",), {"x1": box}, {"x1": update}, run_normalize=False
    )
    prog = engine.compile_network(net)
    assert list(OPERATORS).index(name) in prog.ops[:, 0]
    enclosure = eval_interval(update, {("x1", 0): box})
    for x in np.linspace(box.lo, box.hi, 15):
        states, done, diverged = engine.run_orbit(prog, [[x]], 1)
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
    states, done, diverged = engine.run_orbit(
        prog, [[1.0]], 5000, stop_delta=1e-12
    )
    assert not diverged
    assert done < 200


def test_divergence_detection():
    net = build_network([("x1", R)], [("x1", "x1*x1 + 1")])
    prog = engine.compile_network(net)
    states, done, diverged = engine.run_orbit(prog, [[2.0]], 100)
    assert diverged
    assert done < 100
    assert np.isfinite(states[: 1 + done]).all()


def test_division_produces_divergence_not_crash():
    net = build_network([("x1", R)], [("x1", "1 / (x1 - 1)")])
    prog = engine.compile_network(net)
    # hits x1 == 1 exactly on the second step: 1/(2-1) = 1, then 1/0
    states, done, diverged = engine.run_orbit(prog, [[2.0]], 10)
    assert diverged


def test_apply_undelayed():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.3)
    prog = engine.compile_network(net)
    x = np.array([0.2, -0.4])
    got = engine.apply_undelayed(prog, x)
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
        states, _, _ = engine.run_orbit(prog, np.tile(x, (prog.T, 1)), 1)
        assert np.array_equal(engine.apply_undelayed(prog, x), states[prog.T])
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
    states, done, diverged = engine.run_orbit_batch(
        prog, histories, 400, stop_delta=1e-14
    )
    assert not diverged[0] and diverged[1]
    assert done[1] < 20
