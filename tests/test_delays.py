import numpy as np
import pytest

from gen import random_network, rescaled_ring

from netstab import expr, gallery
from netstab.delays import dedelay, shift_delay, undelay
from netstab.errors import TransformError
from netstab.expr import BinOp, Const, Interval, Var, eval_point, normalize
from netstab.network import (build_network, dump_network, interaction_graph, is_non_distributed,
                             load_network)
from netstab.sim import conjugacy_check

R = Interval.whole()


def test_dedelay_delayed_pair_has_eight_coordinates():
    # 2 base nodes + a depth-3 delay line per node
    aug = dedelay(gallery.delayed_pair(0.5, 0.1, 1.0))
    assert len(aug.coords) == 8
    assert aug.net.T == 1
    depths = sorted(aug.projection.values())
    assert depths == [
        ("x1", 0), ("x1", 1), ("x1", 2), ("x1", 3),
        ("x2", 0), ("x2", 1), ("x2", 2), ("x2", 3),
    ]


def test_dedelay_walks_only_the_base_rules(monkeypatch):
    # a delay line's rule is one read, which ``reads`` takes without a walk
    net = rescaled_ring(12, 4, -1e-10)
    net.reads  # what the input reads is not the augmentation's cost
    walked = []
    references = expr.references

    def counted(e):
        walked.append(e)
        return references(e)

    monkeypatch.setattr(expr, "references", counted)
    aug = dedelay(net)
    assert aug.net.T == 1
    assert len(walked) == net.size < len(aug.coords)
    monkeypatch.undo()
    assert aug.net.reads == {
        node: frozenset(expr.references(e)) for node, e in aug.net.updates.items()
    }


def test_dedelay_renames_reads_without_renormalizing():
    # x1[-3] sorts before x1_a, its line x1_d3 after it: the renamed rule
    # is not normal, but it runs the same operations in the same order
    net = build_network([("x1", R), ("x1_a", R)], [
        ("x1", "0.3*tanh(x1[-3]) + 0.2*tanh(x1_a) + 0.1*x1[-1]"), ("x1_a", "0.5*x1_a")])
    aug = dedelay(net)
    rule = aug.net.updates["x1"]
    assert expr.to_text(rule) == "0.3 * tanh(x1_d3) + 0.2 * tanh(x1_a) + 0.1 * x1_d1"
    assert normalize(rule) is not rule
    assert load_network(dump_network(aug.net)).updates["x1"] is normalize(rule)
    history = np.random.default_rng(5).uniform(-1, 1, (net.T, net.size))
    assert conjugacy_check(net, history, 50, tol=0.0)


def test_dedelay_line_wiring():
    aug = dedelay(gallery.delayed_pair(0.5, 0.1, 1.0))
    net = aug.net
    by_index = {read: coord for coord, read in aug.projection.items()}
    # line(i, 1) reads the base node; line(i, d) reads line(i, d-1)
    assert net.updates[by_index[("x1", 1)]] == Var("x1", 0)
    assert net.updates[by_index[("x1", 2)]] == Var(by_index[("x1", 1)], 0)
    assert net.updates[by_index[("x1", 3)]] == Var(by_index[("x1", 2)], 0)
    # base update reads the lines, never a delayed variable
    for node in ("x1", "x2"):
        from netstab.expr import references

        assert all(d == 0 for _, d in references(net.updates[node]))


def test_dedelay_undelayed_network_is_identity():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    aug = dedelay(net)
    assert aug.coords == net.nodes
    assert aug.net.updates == net.updates


def test_dedelay_pure_cycle():
    # single node reading itself two steps back: base + 2 lines forming a 3-cycle
    net = build_network([("x1", R)], [("x1", "x1[-2]")])
    aug = dedelay(net)
    assert len(aug.coords) == 3
    base, l1, l2 = aug.coords
    assert aug.net.updates[base] == Var(l2, 0)
    assert aug.net.updates[l1] == Var(base, 0)
    assert aug.net.updates[l2] == Var(l1, 0)


def test_dedelay_domains_copied_to_lines():
    net = build_network([("x1", Interval(-2, 5))], [("x1", "0.5*x1[-2]")])
    aug = dedelay(net)
    for coord in aug.coords:
        assert aug.net.domains[coord] == Interval(-2, 5)


def test_undelay_delayed_pair():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.2, c2=0.1)
    u = undelay(net)
    assert u.T == 1
    expected = gallery.undelayed_pair(0.5, 0.1, 1.0, c1=0.2, c2=0.1)
    for node in u.nodes:
        assert normalize(u.updates[node]) == normalize(expected.updates[node])


def test_undelay_is_identity_on_undelayed():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    assert undelay(net) is net


def test_undelay_distributed_pair_cancels():
    u = undelay(gallery.distributed_pair(eps=0.5, b=1.0))
    assert u.updates["x1"] == BinOp("*", Const(0.5), Var("x1"))
    assert u.updates["x2"] == BinOp("*", Const(0.5), Var("x2"))
    g = interaction_graph(u)
    assert set(g.edges) == {("x1", "x1"), ("x2", "x2")}


def test_shift_delay_single_reference():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    shifted = shift_delay(net, "x1", "x2", 3)
    from netstab.expr import references

    assert ("x2", 2) in references(shifted.updates["x1"])
    assert ("x2", 3) not in references(shifted.updates["x1"])


def test_shift_delay_exhaustive_equals_undelay():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=-0.3)
    current = net
    from netstab.expr import references

    while current.T > 1:
        for target in current.nodes:
            refs = sorted(references(current.updates[target]))
            delayed = [(s, d) for s, d in refs if d > 0]
            if delayed:
                s, d = delayed[0]
                current = shift_delay(current, target, s, d)
                break
    expected = undelay(net)
    for node in net.nodes:
        assert normalize(current.updates[node]) == normalize(expected.updates[node])


def test_shift_delay_merge_cancels():
    # shifting the delayed read onto the undelayed one merges and cancels
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    shifted = shift_delay(net, "x1", "x2", 1)
    assert shifted.updates["x1"] == BinOp("*", Const(0.5), Var("x1"))


def test_shift_delay_missing_reference():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(TransformError):
        shift_delay(net, "x1", "x2", 2)


def test_shift_preserves_non_distributed_when_no_merge():
    rng = np.random.default_rng(5)
    from netstab.expr import references

    for _ in range(30):
        net = random_network(rng, 4, max_delay=3, non_distributed=True, require_delay=True)
        assert is_non_distributed(net)
        candidates = [
            (t, s, d)
            for t in net.nodes
            for s, d in references(net.updates[t])
            if d > 0 and (s, d - 1) not in references(net.updates[t])
        ]
        if not candidates:
            continue
        t, s, d = candidates[int(rng.integers(0, len(candidates)))]
        assert is_non_distributed(shift_delay(net, t, s, d))


def test_conjugacy_of_dedelay_by_direct_evaluation():
    # one orbit step of the augmentation projects onto one step of the network
    rng = np.random.default_rng(6)
    for _ in range(25):
        net = random_network(rng, 3, max_delay=3, require_delay=True)
        aug = dedelay(net)
        history = rng.uniform(-2, 2, size=(net.T, net.size))

        assignment = {}
        for node_i, node in enumerate(net.nodes):
            for d in range(net.T):
                assignment[(node, d)] = history[net.T - 1 - d, node_i]
        direct = [eval_point(net.updates[n], assignment) for n in net.nodes]

        aug_state = {}
        for coord in aug.coords:
            node, d = aug.projection[coord]
            aug_state[(coord, 0)] = history[net.T - 1 - d, net.nodes.index(node)]
        projected = [eval_point(aug.net.updates[n], aug_state) for n in net.nodes]

        assert np.allclose(direct, projected, rtol=0, atol=0)
