import dataclasses

import numpy as np
import pytest

from gen import diamond_network, rescaled_ring

from netstab import expr as ex
from netstab import gallery
from netstab.errors import NetworkError
from netstab.expr import BinOp, Interval, Var
from netstab.network import (
    TimeDelayedNetwork,
    build_network,
    dump_network,
    interaction_graph,
    is_non_distributed,
    load_network,
    make_cohen_grossberg,
    max_delay_profile,
    network_from_exprs,
)
from netstab.stability import analyze
from netstab.transform import restrict

R = Interval.whole()


def test_build_computes_T():
    net = build_network(
        [("x1", R), ("x2", R)],
        [
            ("x1", "0.5*x1[-1] + 0.2*tanh(x2[-3])"),
            ("x2", "0.5*x2[-1] + 0.2*tanh(x1[-3])"),
        ],
    )
    assert net.T == 4


def test_build_undelayed_has_T_one():
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    assert net.T == 1


def test_build_rejects_undeclared_reference():
    with pytest.raises(NetworkError):
        build_network([("x1", R)], [("x1", "0.5*x9")])


def test_build_rejects_duplicate_and_missing_rules():
    with pytest.raises(NetworkError):
        build_network([("x1", R)], [("x1", "x1"), ("x1", "x1")])
    with pytest.raises(NetworkError):
        build_network([("x1", R), ("x2", R)], [("x1", "x1")])


def test_build_rejects_delay_above_cap():
    with pytest.raises(NetworkError):
        build_network([("x1", R)], [("x1", "x1[-65]")])
    net = build_network([("x1", R)], [("x1", "x1[-64]")])
    assert net.T == 65


def test_from_exprs_names_node_without_domain_or_update():
    with pytest.raises(NetworkError, match="no domain for node 'a'"):
        network_from_exprs(("a",), {}, {"a": Var("a", 1)})
    with pytest.raises(NetworkError, match="no update for node 'b'"):
        network_from_exprs(("a", "b"), {"a": R, "b": R}, {"a": Var("b", 0)})


def test_from_exprs_rejects_updates_for_undeclared_nodes():
    # the extra rule reads at delay 70, above the cap, and must not slip in
    with pytest.raises(NetworkError, match=r"undeclared nodes \['y'\]"):
        network_from_exprs(("x",), {"x": R}, {"x": Var("x", 1), "y": Var("y", 70)})


def test_networks_that_build_read_back_from_their_text():
    # x reads node "x-y": it would print as "0.5 * x-y", which reads back as
    # 0.5 * (x - y), so a node id outside the grammar is refused up front
    domains = {"x": R, "y": R, "x-y": R}
    updates = {"x": BinOp("*", ex.Const(0.5), Var("x-y")), "y": Var("x"), "x-y": Var("y")}
    with pytest.raises(NetworkError, match="node id 'x-y' is not an identifier"):
        network_from_exprs(("x", "y", "x-y"), domains, updates)
    renamed = {"x": BinOp("*", ex.Const(0.5), Var("x_y")), "y": Var("x"), "x_y": Var("y")}
    net = network_from_exprs(("x", "y", "x_y"), {"x": R, "y": R, "x_y": R}, renamed)
    assert load_network(dump_network(net)).updates == net.updates


@pytest.mark.parametrize("ident", ["x-y", "1x", "a,b", "x.y", ""])
def test_node_ids_are_identifiers_of_the_grammar(ident):
    with pytest.raises(NetworkError, match="is not an identifier"):
        build_network([(ident, R)], [(ident, "0.5")])


def test_T_is_derived_from_what_the_rules_read():
    assert "T" not in {f.name for f in dataclasses.fields(TimeDelayedNetwork)}
    updates = {"a": BinOp("+", Var("a", 2), Var("b", 5)), "b": Var("a", 0)}
    net = TimeDelayedNetwork(("a", "b"), {"a": R, "b": R}, updates)
    assert net.reads == {"a": frozenset({("a", 2), ("b", 5)}), "b": frozenset({("a", 0)})}
    assert net.T == 6
    assert TimeDelayedNetwork(("a",), {"a": R}, {"a": ex.Const(0.5)}).T == 1


def _count_references(monkeypatch) -> list[int]:
    calls = [0]
    original = ex.references

    def counted(e):
        calls[0] += 1
        return original(e)

    monkeypatch.setattr(ex, "references", counted)
    return calls


def test_each_rule_is_walked_for_its_reads_once(monkeypatch):
    text = dump_network(rescaled_ring(12, 4, -1e-3))
    calls = _count_references(monkeypatch)
    net = load_network(text)
    analyze(net)
    interaction_graph(net)
    is_non_distributed(net)
    max_delay_profile(net)
    assert net.T == 5
    assert calls[0] == 12


def test_restrict_walks_only_the_restricted_rule(monkeypatch):
    net = diamond_network(np.random.default_rng(10), 10)
    calls = _count_references(monkeypatch)
    restricted = restrict(net, ["s"])
    assert restricted.reads == {"s": frozenset({("s", 0)})}
    assert calls[0] == 1


def test_cohen_grossberg_matches_delayed_pair():
    # cross-coupling 2a at delay 3, self-leak at delay 1
    net = gallery.delayed_pair(0.25, 0.1, 1.0, c1=0.3, c2=0.0)
    refs1 = {(r, d) for r, d in _refs(net, "x1")}
    assert refs1 == {("x1", 1), ("x2", 3)}
    point = {("x1", 1): 0.4, ("x2", 3): -0.2}
    from netstab.expr import eval_point

    got = eval_point(net.updates["x1"], point)
    want = (1 - 0.25) * 0.4 + 2 * 0.1 * np.tanh(1.0 * -0.2) + 0.3
    assert got == pytest.approx(want, rel=1e-14)


def _refs(net, node):
    from netstab.expr import references

    return references(net.updates[node])


def test_cohen_grossberg_all_zero_delays_is_undelayed():
    W = np.array([[0.0, 0.4], [0.4, 0.0]])
    net = make_cohen_grossberg(W, 0.5, b=2.0)
    assert net.T == 1


def test_cohen_grossberg_zero_everything_is_identity():
    net = make_cohen_grossberg(np.zeros((3, 3)), 0.0, c=np.zeros(3))
    for node in net.nodes:
        assert net.updates[node] == Var(node, 0)


def test_cohen_grossberg_epsilon_one_drops_leak():
    net = make_cohen_grossberg(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    refs = {r for r, _ in _refs(net, "x1")}
    assert refs == {"x2"}


def test_cohen_grossberg_shape_mismatch():
    with pytest.raises(NetworkError):
        make_cohen_grossberg(np.zeros((2, 3)), 0.5)
    with pytest.raises(NetworkError):
        make_cohen_grossberg(np.zeros((2, 2)), 0.5, c=np.zeros(3))


def test_interaction_graph_ring():
    net = gallery.cg_ring(6, 0.3, 1.0, 0.5)
    g = interaction_graph(net)
    for j in range(1, 7):
        prev = f"x{(j - 2) % 6 + 1}"
        nxt = f"x{j % 6 + 1}"
        me = f"x{j}"
        assert g.has_edge(prev, me) and g.has_edge(nxt, me)
        assert g.has_edge(me, me)  # leak term
    assert len(g.edges) == 18


def test_interaction_graph_six_node():
    g = interaction_graph(gallery.six_node())
    expected = {
        ("x6", "x1"),
        ("x1", "x2"),
        ("x2", "x3"),
        ("x5", "x3"),
        ("x6", "x3"),
        ("x2", "x5"),
        ("x3", "x5"),
        ("x4", "x5"),
        ("x3", "x4"),
        ("x5", "x6"),
    }
    assert set(g.edges) == expected


def test_interaction_graph_no_cross_references():
    net = build_network([("x1", R), ("x2", R)], [("x1", "0.5*x1"), ("x2", "0.3")])
    g = interaction_graph(net)
    assert set(g.edges) == {("x1", "x1")}


def test_interaction_graph_drops_structural_zeros():
    net = build_network([("x1", R), ("x2", R)], [("x1", "0*x2 + x1"), ("x2", "x2")])
    g = interaction_graph(net)
    assert not g.has_edge("x2", "x1")


def test_cg_graph_matches_nonzero_weights():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        W = np.where(rng.random((n, n)) < 0.4, rng.uniform(-1, 1, (n, n)), 0.0)
        eps = float(rng.choice([0.3, 1.0, 1.5]))
        net = make_cohen_grossberg(W, eps)
        g = interaction_graph(net)
        for i in range(n):
            for j in range(n):
                src, tgt = f"x{i + 1}", f"x{j + 1}"
                expect = W[i, j] != 0.0 or (i == j and eps != 1.0)
                assert g.has_edge(src, tgt) == expect, (W, eps, src, tgt)


def test_non_distributed():
    assert is_non_distributed(gallery.delayed_pair(0.5, 0.1, 1.0))
    assert not is_non_distributed(gallery.distributed_pair())
    assert is_non_distributed(gallery.six_node())  # any T = 1 network


def test_non_distributed_after_delay_unification():
    net = build_network(
        [("x1", R), ("x2", R)],
        [("x1", "tanh(x2) + tanh(x2[-1])"), ("x2", "0.5*x2")],
    )
    assert not is_non_distributed(net)
    unified = build_network(
        [("x1", R), ("x2", R)],
        [("x1", "tanh(x2[-1]) + tanh(x2[-1])"), ("x2", "0.5*x2")],
    )
    assert is_non_distributed(unified)


def test_max_delay_profile():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    assert max_delay_profile(net) == {"x1": 3, "x2": 3}
    undelayed = gallery.undelayed_pair(0.5, 0.1, 1.0)
    assert max_delay_profile(undelayed) == {"x1": 0, "x2": 0}
    lonely = build_network([("x1", R), ("x2", R)], [("x1", "x1"), ("x2", "x1")])
    assert max_delay_profile(lonely)["x2"] == 0


def test_file_roundtrip():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.25)
    text = dump_network(net)
    again = load_network(text)
    assert again.nodes == net.nodes
    assert again.T == net.T
    for node in net.nodes:
        assert again.updates[node] == net.updates[node]
        assert again.domains[node] == net.domains[node]


def test_file_format_with_comments_and_bounds():
    text = """
# a contraction on a box
network boxy
node x1 domain [-1.5,2.5]
node x2 domain [-inf,inf]
update x1 = 0.5*x1 + 0.1*tanh(x2)   # comment after code
update x2 = 0.25*x2
"""
    net = load_network(text)
    assert net.name == "boxy"
    assert net.domains["x1"] == Interval(-1.5, 2.5)
    assert net.domains["x2"] == Interval.whole()


def test_file_format_errors():
    with pytest.raises(NetworkError):
        load_network("node x1 domain [1,0]\nupdate x1 = x1\n")
    with pytest.raises(NetworkError):
        load_network("nodule x1 domain [0,1]\n")
    with pytest.raises(NetworkError):
        load_network("")
