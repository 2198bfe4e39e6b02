import math

import numpy as np
import pytest

from gen import (
    admissible_sequences,
    branch_set,
    diamond_network,
    random_basic_set,
    random_complete_set,
    random_network,
)

from netstab import gallery, structural
from netstab.delays import dedelay, undelay
from netstab.errors import TransformError
from netstab.expr import (
    Interval,
    _postorder,
    eval_point,
    gradient,
    normalize,
    references,
    to_text,
)
from netstab.network import build_network, interaction_graph
from netstab.stability import analyze
from netstab.structural import is_complete_structural
from netstab.transform import delayed_expansion, expand, restrict

R = Interval.whole()


def points_agree(net_a, net_b, rng, points=1000, tol=1e-12):
    """Evaluate both networks' updates at random common points."""
    assert set(net_a.nodes) == set(net_b.nodes)
    refs = {}
    for net in (net_a, net_b):
        for node in net.nodes:
            for ref in references(net.updates[node]):
                refs[ref] = None
    keys = sorted(refs)
    for _ in range(points):
        point = {k: float(rng.uniform(-3, 3)) for k in keys}
        for node in net_a.nodes:
            va = eval_point(net_a.updates[node], point)
            vb = eval_point(net_b.updates[node], point)
            if abs(va - vb) > tol:
                return False
    return True


def test_restrict_six_node_wiring():
    net = gallery.six_node()
    res = restrict(net, ("x1", "x3", "x5"))
    assert res.nodes == ("x1", "x3", "x5")
    assert res.T == 1
    # x1 hears only x5 (through x6); x3 hears x1 and x5; x5 hears x1 and x3
    assert {r for r, _ in references(res.updates["x1"])} == {"x5"}
    assert {r for r, _ in references(res.updates["x3"])} == {"x1", "x5"}
    assert {r for r, _ in references(res.updates["x5"])} == {"x1", "x3"}
    # the inlined chain nests the substituted update
    assert "tanh(0.4 * tanh(x5))" in to_text(res.updates["x1"])


def test_restrict_ring_formula():
    # component j becomes tanh(tanh(j-2) + tanh(j) + c) + tanh(tanh(j) + tanh(j+2) + c) + c
    c = 1.5
    net = gallery.tanh_ring(6, c)
    res = restrict(net, gallery.even_vertices(net))
    expected = build_network(
        [(f"x{i}", R) for i in (2, 4, 6)],
        [
            (
                f"x{j}",
                f"tanh(tanh(x{(j - 3) % 6 + 1}) + tanh(x{j}) + {c}) "
                f"+ tanh(tanh(x{j}) + tanh(x{(j + 1) % 6 + 1}) + {c}) + {c}",
            )
            for j in (2, 4, 6)
        ],
    )
    for node in res.nodes:
        assert normalize(res.updates[node]) == normalize(expected.updates[node])


def test_restrict_full_set_is_identity():
    net = gallery.six_node()
    res = restrict(net, net.nodes)
    for node in net.nodes:
        assert res.updates[node] == net.updates[node]


def test_restrict_rejects_delayed_network():
    with pytest.raises(TransformError):
        restrict(gallery.delayed_pair(0.5, 0.1, 1.0), ("x1",))


def test_restrict_rejects_incomplete_set():
    net = gallery.six_node()
    with pytest.raises(TransformError):
        restrict(net, ("x1",))


def test_restriction_keeps_sharing():
    # a k-layer diamond has 2^k branches but 2k + 1 nodes; each inlined
    # node is shared by both of its readers
    k = 12
    net = diamond_network(np.random.default_rng(12), k)
    for transform in (restrict, delayed_expansion):
        update = transform(net, ["s"]).updates["s"]
        assert len(_postorder([update])) <= 20 * k
    update = restrict(net, ["s"]).updates["s"]
    # each p * tanh(u) term adds p * (sech(u) * sech(u) * du) on top of
    # the update's own nodes, which sech(u) reads
    assert len(_postorder([gradient(update)[("s", 0)]])) <= 40 * k
    assert len(to_text(update)) > 2**k


def test_completeness_checks_enumerate_no_branch():
    # a 12-layer diamond has 4096 branches; deciding that a set is complete
    # (or not), and restricting onto it, lists none of them: the library
    # has no branch lister
    assert not hasattr(structural, "branch_set")
    net = diamond_network(np.random.default_rng(12), 12)
    for transform in (restrict, delayed_expansion):
        assert transform(net, ["s"]).nodes == ("s",)
        with pytest.raises(TransformError):
            transform(net, ["a1"])
    graph = interaction_graph(net)
    assert is_complete_structural(graph, ["s"])
    assert not is_complete_structural(graph, ["a3"])


def test_delayed_expansion_of_diamond_reads_by_depth():
    # every branch s -> a1|b1 -> ... -> a4|b4 -> s has 6 vertices
    net = diamond_network(np.random.default_rng(3), 4)
    delayed = delayed_expansion(net, ["s"])
    assert references(delayed.updates["s"]) == {("s", 4)}
    restricted = restrict(net, ["s"])
    assert to_text(undelay(delayed).updates["s"]) == to_text(restricted.updates["s"])


def test_expanded_updates_read_one_coordinate_per_branch():
    # each S node reads the deepest coordinate of every admissible branch
    # into it, and the source itself of every 2-vertex branch; in the
    # diamond, many branches reach one node at one depth, so inlining it
    # once per depth would give them one coordinate
    rng = np.random.default_rng(71)
    cases = [
        (gallery.six_node(), ("x1", "x3", "x5")),
        (diamond_network(np.random.default_rng(4), 4), ("s",)),
    ]
    while len(cases) < 20:
        net = random_network(rng, int(rng.integers(2, 7)))
        S = random_complete_set(rng, net)
        if S is not None:
            cases.append((net, S))
    for net, S in cases:
        graph = interaction_graph(net)
        branches = branch_set(graph, S)
        aug = expand(net, S)
        # the chains follow S one branch at a time, in admissible order,
        # whatever order the inliner meets the branches in
        chains = [
            ("_".join(b.vertices) + f"_s{i}", (b.source, i - 1))
            for b in admissible_sequences(graph, S)
            for i in range(2, len(b))
        ]
        S = tuple(n for n in net.nodes if n in set(S))
        assert [(c, aug.projection[c]) for c in aug.coords] == [(n, (n, 0)) for n in S] + chains
        for j in S:
            expected = set()
            for b in branches:
                if b.target != j:
                    continue
                if len(b) == 2:
                    expected.add(b.vertices[0])
                    continue
                coord = "_".join(b.vertices) + f"_s{len(b) - 1}"
                assert aug.projection[coord] == (b.vertices[0], len(b) - 2)
                expected.add(coord)
            assert {r for r, _ in references(aug.net.updates[j])} == expected


def test_expand_chain():
    # a -> b -> c with S = {a, c}: one delay coordinate fed by a
    net = build_network(
        [("a", R), ("b", R), ("c", R)],
        [("a", "0.3"), ("b", "tanh(a)"), ("c", "tanh(b)")],
    )
    aug = expand(net, ("a", "c"))
    assert len(aug.coords) == 3  # a, c, and the (a,b,c) chain coordinate
    chain = [c for c in aug.coords if c not in ("a", "c")]
    assert len(chain) == 1
    coord = chain[0]
    assert aug.net.updates[coord].node == "a"
    assert aug.projection[coord] == ("a", 1)
    assert {r for r, _ in references(aug.net.updates["c"])} == {coord}


def test_expand_ring_dimension_and_radius():
    for m, c in ((4, 2.0), (6, 3.0), (8, 4.0)):
        net = gallery.tanh_ring(m, c)
        S = gallery.even_vertices(net)
        aug = expand(net, S)
        n = m // 2
        assert len(aug.coords) == 5 * n
        rho = analyze(aug.net).rho
        assert rho == pytest.approx(2.0 / math.cosh(c - 2.0), abs=1e-8)


def test_expand_full_set_is_original():
    net = gallery.six_node()
    aug = expand(net, net.nodes)
    assert aug.coords == net.nodes
    for node in net.nodes:
        assert aug.net.updates[node] == net.updates[node]


def test_expand_distinct_coordinates_per_branch():
    # two branches from the same source get their own delay chains
    net = gallery.six_node()
    aug = expand(net, ("x1", "x3", "x5"))
    sources = [aug.projection[c] for c in aug.coords if c not in ("x1", "x3", "x5")]
    assert sources.count(("x5", 1)) == 2  # x5->x6->x1 and x5->x6->x3
    assert sources.count(("x1", 1)) == 2  # x1->x2->x3 and x1->x2->x5
    # five admissible branches of length 3, one coordinate each
    assert len(aug.coords) == 3 + 5


def test_delayed_expansion_ring():
    net = gallery.tanh_ring(6, 2.0)
    S = gallery.even_vertices(net)
    de = delayed_expansion(net, S)
    assert de.nodes == S
    assert de.T == 2
    for node in S:
        assert {d for _, d in references(de.updates[node])} == {1}


def test_delayed_expansion_full_set_is_original():
    net = gallery.six_node()
    de = delayed_expansion(net, net.nodes)
    assert de.T == 1
    for node in net.nodes:
        assert de.updates[node] == net.updates[node]


def test_undelay_of_delayed_expansion_is_restriction():
    cases = [
        (gallery.tanh_ring(6, 2.5), None),
        (gallery.tanh_ring(4, 3.5), None),
        (gallery.six_node(), ("x1", "x3", "x5")),
    ]
    rng = np.random.default_rng(83)
    for net, S in cases:
        S = S or gallery.even_vertices(net)
        left = undelay(delayed_expansion(net, S))
        right = restrict(net, S)
        for node in right.nodes:
            assert normalize(left.updates[node]) == normalize(right.updates[node])
        assert points_agree(left, right, rng, points=50)


def test_undelay_of_delayed_expansion_random_suite():
    rng = np.random.default_rng(89)
    done = 0
    while done < 20:
        net = random_network(rng, int(rng.integers(2, 7)))
        S = random_complete_set(rng, net)
        if S is None:
            continue
        left = undelay(delayed_expansion(net, S))
        right = restrict(net, S)
        for node in right.nodes:
            assert normalize(left.updates[node]) == normalize(right.updates[node])
        assert points_agree(left, right, rng, points=50)
        done += 1


def test_dedelayed_delayed_expansion_matches_expansion_radius():
    # canonical delay lines merge chains that the expansion keeps separate,
    # so compare at the spectral-radius level
    cases = [gallery.tanh_ring(6, 2.5), gallery.tanh_ring(4, 3.0), gallery.six_node()]
    sets = [None, None, ("x1", "x3", "x5")]
    for net, S in zip(cases, sets):
        S = S or gallery.even_vertices(net)
        via_delays = analyze(dedelay(delayed_expansion(net, S)).net).rho
        via_expand = analyze(expand(net, S).net).rho
        assert via_delays == pytest.approx(via_expand, abs=1e-9)


def test_expansion_radius_never_exceeds_original():
    rng = np.random.default_rng(97)
    done = 0
    while done < 30:
        net = random_network(rng, int(rng.integers(2, 7)), amplitude=float(rng.choice([0.15, 0.6])))
        S = random_complete_set(rng, net)
        if S is None:
            continue
        rho_orig = analyze(net).rho
        rho_exp = analyze(expand(net, S).net).rho
        assert rho_exp <= rho_orig + 1e-9, (net.name, S, rho_orig, rho_exp)
        done += 1


def test_stable_original_implies_stable_restriction():
    rng = np.random.default_rng(101)
    done = 0
    while done < 25:
        net = random_network(rng, int(rng.integers(2, 7)), amplitude=0.2)
        if analyze(net).rho >= 1:
            continue
        S = random_complete_set(rng, net)
        if S is None:
            continue
        assert analyze(restrict(net, S)).rho < 1
        done += 1


def test_basic_set_verdicts_agree():
    # over basic sets the expansion and restriction verdicts coincide
    rng = np.random.default_rng(103)
    done = 0
    while done < 15:
        net = random_network(rng, int(rng.integers(3, 7)), amplitude=float(rng.choice([0.2, 0.7])))
        S = random_basic_set(rng, net)
        if S is None:
            continue
        rho_exp = analyze(expand(net, S).net).rho
        rho_res = analyze(restrict(net, S)).rho
        if abs(rho_exp - 1) < 1e-6 or abs(rho_res - 1) < 1e-6:
            continue
        assert (rho_exp < 1) == (rho_res < 1), (S, rho_exp, rho_res)
        done += 1


def test_expansion_dimension_law():
    rng = np.random.default_rng(107)
    done = 0
    while done < 20:
        net = random_network(rng, int(rng.integers(2, 6)))
        S = random_complete_set(rng, net)
        if S is None:
            continue
        graph = interaction_graph(net)
        adm = [b for b in branch_set(graph, S) if len(b) > 2]
        aug = expand(net, S)
        assert len(aug.coords) == len(S) + sum(len(b) - 2 for b in adm)
        done += 1
