from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from gen import admissible_sequences, branch_set, diamond_network, loop_free_graph, random_network

from netstab import gallery, structural
from netstab.errors import ConvergenceError, _iteration_cap
from netstab.expr import Interval
from netstab.network import InteractionGraph, build_network, interaction_graph
from netstab.structural import (
    find_structural_sets,
    is_basic_structural,
    is_complete_structural,
    report_for,
)

R = Interval.whole()


def brute_branches(graph, S):
    """Oracle: enumerate every interior-S-free S-to-S walk by checking all
    vertex sequences with distinct interiors."""
    S = set(S)
    verts = list(graph.vertices)
    found = set()
    for length in range(2, len(verts) + 2):
        for head in S:
            for tail in S:
                interiors = [v for v in verts if v not in S]
                for mid in permutations(interiors, length - 2):
                    seq = (head, *mid, tail)
                    if len(set(seq[:-1])) != len(seq) - 1:
                        continue
                    if seq[0] != seq[-1] and len(set(seq)) != len(seq):
                        continue
                    if all(graph.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
                        found.add(seq)
    return found


def chain_graph():
    net = build_network(
        [("a", R), ("b", R), ("c", R)],
        [("a", "0.1"), ("b", "tanh(a)"), ("c", "tanh(b)")],
    )
    return interaction_graph(net)


def test_branch_set_six_node():
    g = interaction_graph(gallery.six_node())
    branches = branch_set(g, ("x1", "x3", "x5"))
    got = {b.vertices for b in branches}
    expected = {
        ("x1", "x2", "x3"),
        ("x1", "x2", "x5"),
        ("x3", "x4", "x5"),
        ("x3", "x5"),
        ("x5", "x3"),
        ("x5", "x6", "x1"),
        ("x5", "x6", "x3"),
    }
    assert got == expected
    # two distinct branches share the endpoint pair (x5, x3)
    ends = [b for b in branches if (b.source, b.target) == ("x5", "x3")]
    assert len(ends) == 2


def test_branch_set_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(2, 6)))
        g = interaction_graph(net)
        verts = list(g.vertices)
        k = int(rng.integers(0, len(verts) + 1))
        S = tuple(sorted(rng.choice(verts, size=k, replace=False))) if k else ()
        got = {b.vertices for b in branch_set(g, S)}
        assert got == brute_branches(g, S)


def test_branch_set_with_full_vertex_set_is_edge_set():
    g = interaction_graph(gallery.six_node())
    branches = branch_set(g, g.vertices)
    assert {b.vertices for b in branches} == {(s, t) for (s, t) in g.edges}


def test_branch_set_ring_even_vertices():
    # branches are exactly the i -> i+-1 -> i+-2 walks from even vertices
    net = gallery.tanh_ring(6, 1.0)
    g = interaction_graph(net)
    S = gallery.even_vertices(net)
    got = {b.vertices for b in branch_set(g, S)}
    m = 6
    expected = set()
    for i in (2, 4, 6):
        for dj in (-1, 1):
            j = (i + dj - 1) % m + 1
            for dk in (-1, 1):
                k = (j + dk - 1) % m + 1
                expected.add((f"x{i}", f"x{j}", f"x{k}"))
    assert got == expected


def test_branch_walk_structure():
    rng = np.random.default_rng(71)
    for _ in range(15):
        net = random_network(rng, 5)
        g = interaction_graph(net)
        S = tuple(v for v in g.vertices if rng.random() < 0.5)
        for b in branch_set(g, S):
            assert b.source in set(S) and b.target in set(S)
            assert all(v not in set(S) for v in b.interior)
            assert all(g.has_edge(b.vertices[i], b.vertices[i + 1]) for i in range(len(b) - 1))
            core = b.vertices[:-1]
            assert len(set(core)) == len(core)


def test_complete_six_node():
    g = interaction_graph(gallery.six_node())
    assert is_complete_structural(g, ("x1", "x3", "x5"))
    assert is_complete_structural(g, g.vertices)
    assert not is_complete_structural(g, ())


def test_complete_requires_coverage():
    # deleting S leaves no cycle, but a sink vertex lies on no S-to-S
    # branch, so only its membership in S covers it
    net = build_network(
        [("a", R), ("b", R), ("c", R)],
        [("a", "0.5*a"), ("b", "tanh(a)"), ("c", "0.2")],
    )
    g = interaction_graph(net)
    assert not is_complete_structural(g, ("a",))
    assert not is_complete_structural(g, ("a", "c"))
    assert is_complete_structural(g, ("a", "b", "c"))


def test_complete_detects_uncut_cycle():
    net = build_network(
        [("a", R), ("b", R)],
        [("a", "tanh(b)"), ("b", "tanh(a)")],
    )
    g = interaction_graph(net)
    assert not is_complete_structural(g, ())
    assert is_complete_structural(g, ("a",))


def test_deleting_complete_set_leaves_acyclic_remainder():
    rng = np.random.default_rng(73)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 7)))
        g = interaction_graph(net)
        for rep in find_structural_sets(g, max_results=8):
            removed = set(rep.S)
            # brute cycle check on the remainder via DFS reachability
            rest = [v for v in g.vertices if v not in removed]
            reach = {
                v: {w for w in g.successors(v) if w not in removed} for v in rest
            }
            changed = True
            while changed:
                changed = False
                for v in rest:
                    for w in list(reach[v]):
                        extra = reach[w] - reach[v]
                        if extra:
                            reach[v] |= extra
                            changed = True
            assert all(v not in reach[v] for v in rest)


def test_basic_cycle_with_single_vertex():
    net = build_network(
        [("a", R), ("b", R), ("c", R), ("d", R)],
        [("a", "tanh(d)"), ("b", "tanh(a)"), ("c", "tanh(b)"), ("d", "tanh(c)")],
    )
    g = interaction_graph(net)
    assert is_basic_structural(g, ("a",))


def test_basic_fails_on_parallel_paths():
    net = build_network(
        [("i", R), ("a", R), ("b", R), ("j", R)],
        [("i", "0.2"), ("a", "tanh(i)"), ("b", "tanh(i)"), ("j", "tanh(a)+tanh(b)")],
    )
    g = interaction_graph(net)
    assert not is_basic_structural(g, ("i", "j"))


def test_basic_six_node_not_basic():
    g = interaction_graph(gallery.six_node())
    assert not is_basic_structural(g, ("x1", "x3", "x5"))


def test_ring_even_set_complete_but_not_basic():
    # both i -> i+-1 -> i cycles survive, so |B_ii| = 2 under the literal count
    net = gallery.tanh_ring(6, 1.0)
    g = interaction_graph(net)
    S = gallery.even_vertices(net)
    assert is_complete_structural(g, S)
    assert not is_basic_structural(g, S)
    rep = report_for(g, S)
    assert rep.complete and not rep.basic


def test_basic_implies_complete_on_enumeration():
    rng = np.random.default_rng(79)
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 6)))
        g = interaction_graph(net)
        verts = list(g.vertices)
        for k in range(len(verts) + 1):
            S = tuple(sorted(rng.choice(verts, size=k, replace=False))) if k else ()
            if is_basic_structural(g, S):
                assert is_complete_structural(g, S)


def test_admissible_sequences():
    g = chain_graph()
    adm = admissible_sequences(g, ("a", "c"))
    assert [b.vertices for b in adm] == [("a", "b", "c")]
    # with S = V every branch has length 2
    assert admissible_sequences(g, ("a", "b", "c")) == []


def test_admissible_ring():
    net = gallery.tanh_ring(8, 1.0)
    g = interaction_graph(net)
    adm = admissible_sequences(g, gallery.even_vertices(net))
    assert len(adm) == 16  # 4 per even vertex
    assert all(len(b) == 3 for b in adm)


def test_find_sets_six_node():
    g = interaction_graph(gallery.six_node())
    reports = find_structural_sets(g, max_results=64)
    sets = {rep.S for rep in reports}
    assert ("x1", "x3", "x5") in sets
    sizes = [len(rep.S) for rep in reports]
    assert sizes == sorted(sizes)


def test_find_sets_ring_contains_even_vertices():
    net = gallery.tanh_ring(4, 1.0)
    g = interaction_graph(net)
    sets = {rep.S for rep in find_structural_sets(g, max_results=64)}
    assert ("x2", "x4") in sets


def test_find_sets_self_loop_vertex():
    net = build_network([("a", R)], [("a", "tanh(a)")])
    g = interaction_graph(net)
    reports = find_structural_sets(g, max_results=4)
    assert reports[0].S == ("a",)


def test_find_sets_want_basic_filters():
    g = interaction_graph(gallery.six_node())
    for rep in find_structural_sets(g, want_basic=True, max_results=16):
        assert rep.basic


def test_find_sets_greedy_path_on_large_graph():
    # 24 vertices on one directed cycle: any single vertex cuts it, so the
    # exact search returns the first four singletons in lexicographic order
    n = 24
    decls = [(f"v{i}", R) for i in range(n)]
    rules = [(f"v{i}", f"tanh(v{(i - 1) % n})") for i in range(n)]
    g = interaction_graph(build_network(decls, rules))
    reports = find_structural_sets(g, max_results=4)
    assert [rep.S for rep in reports] == [("v0",), ("v1",), ("v10",), ("v11",)]
    assert all(rep.complete for rep in reports)


def cycle_outside(graph, S) -> bool:
    """Oracle: some vertex outside S reaches itself through vertices
    outside S."""
    removed = set(S)
    for v in graph.vertices:
        if v in removed:
            continue
        seen, stack = set(), [v]
        while stack:
            for w in graph.successors(stack.pop()):
                if w == v:
                    return True
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return False


def complete_by_branches(graph, S) -> bool:
    """Oracle: the definition, with every vertex outside S covered by the
    interior of some branch of branch_set."""
    if cycle_outside(graph, S):
        return False
    covered = set(S).union(*(b.interior for b in branch_set(graph, S)))
    return covered == set(graph.vertices)


def counts_by_branches(graph, S):
    """Oracle: branch_set's branches per (source, target) pair, sorted."""
    return sorted(Counter((b.source, b.target) for b in branch_set(graph, S)).items())


def exhaustive_sets(graph, want_basic, max_results):
    """Oracle: every vertex subset by size and then lexicographically,
    kept when complete (and basic) by the branch definition."""
    found = []
    vertices = sorted(graph.vertices)
    for size in range(len(vertices) + 1):
        for S in combinations(vertices, size):
            if not complete_by_branches(graph, S):
                continue
            counts = counts_by_branches(graph, S)
            basic = all(n == 1 for _, n in counts)
            if want_basic and not basic:
                continue
            found.append((S, basic, counts))
            if len(found) == max_results:
                return found
    return found


def seeded_graphs(seed, count, largest):
    """Interaction graphs of random networks, and loop-free graphs, on at
    most ``largest`` vertices."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield interaction_graph(random_network(rng, int(rng.integers(2, largest + 1))))
        yield loop_free_graph(rng, int(rng.integers(3, largest + 1)), int(rng.integers(1, 3)))


def test_complete_matches_branch_definition():
    rng = np.random.default_rng(89)
    for g in seeded_graphs(97, 30, 9):
        verts = list(g.vertices)
        for _ in range(12):
            share = rng.uniform(0.2, 0.9)
            S = [v for v in verts if rng.random() < share]
            assert is_complete_structural(g, S) == complete_by_branches(g, S)
            assert report_for(g, S).complete == complete_by_branches(g, S)


def test_find_sets_matches_exhaustive_search():
    for g in seeded_graphs(101, 8, 12):
        for want_basic in (False, True):
            expected = exhaustive_sets(g, want_basic, 16)
            for max_results in (1, 4, 16):
                got = [
                    (rep.S, rep.basic, list(rep.counts.items()))
                    for rep in find_structural_sets(g, want_basic, max_results)
                ]
                assert got == expected[:max_results]


def test_first_set_is_minimal_on_24_vertex_loop_free_graph():
    g = loop_free_graph(np.random.default_rng(1), 24)
    first = find_structural_sets(g, max_results=1)[0]
    assert complete_by_branches(g, first.S)
    # every complete set holds the vertices without a predecessor or a
    # successor (there are no loops), so a smaller one is those plus
    # fewer free vertices
    forced = {v for v in g.vertices if not g.predecessors(v) or not g.successors(v)}
    assert forced <= set(first.S)
    free = sorted(set(g.vertices) - forced)
    smaller = len(first.S) - len(forced) - 1
    assert not any(
        complete_by_branches(g, forced.union(C)) for C in combinations(free, smaller)
    )


def test_find_sets_stops_at_the_candidate_cap(monkeypatch):
    # a complete digraph on 8 vertices needs 7 of them in S: 247 smaller
    # candidates come first, and the 51st has 3 vertices
    verts = tuple(f"v{i}" for i in range(8))
    edges = {(a, b): frozenset({0}) for a in verts for b in verts if a != b}
    g = InteractionGraph(vertices=verts, edges=edges)
    assert [rep.S for rep in find_structural_sets(g, max_results=2)] == [
        verts[:7], verts[:6] + verts[7:]
    ]
    monkeypatch.setenv("NETSTAB_MAX_ITERS", "50")
    cap_hit = "after 50 candidate sets at \\|S\\| = 3, with 0 sets found"
    with pytest.raises(ConvergenceError, match=cap_hit):
        find_structural_sets(g)


def test_report_json():
    g = interaction_graph(gallery.six_node())
    rep = report_for(g, ("x1", "x3", "x5"))
    data = rep.to_json_dict()
    assert data["complete"] is True and data["basic"] is False
    # x5 -> x3 directly and through x6
    assert ["x5", "x3", 2] in data["branch_counts"]
    assert data["branch_counts"] == [[s, t, n] for (s, t), n in counts_by_branches(g, rep.S)]
    assert rep.counts[("x5", "x3")] == 2


def test_branch_counts_match_the_branch_set():
    checked = 0
    for g in seeded_graphs(103, 40, 10):
        for want_basic in (False, True):
            for rep in find_structural_sets(g, want_basic, 16):
                assert list(rep.counts.items()) == counts_by_branches(g, rep.S)
                assert rep.basic == all(n == 1 for n in rep.counts.values())
                checked += 1
    assert checked >= 800


def test_reports_enumerate_no_branch():
    # a 12-layer diamond has 4096 branches from s back to s; its reports
    # count them without listing one: the library has no branch lister
    assert not hasattr(structural, "branch_set")
    g = interaction_graph(diamond_network(np.random.default_rng(12), 12))
    rep = report_for(g, ["s"])
    assert rep.complete and not rep.basic
    assert rep.counts == {("s", "s"): 2**12}
    assert not is_basic_structural(g, ["s"])
    assert not report_for(g, ["a1"]).complete
    reports = find_structural_sets(g, max_results=16)
    assert len(reports) == 16 and reports[0].S == ("s",)
    for rep in find_structural_sets(interaction_graph(gallery.six_node()), True, 64):
        assert rep.basic


def plain_search(graph, want_basic, max_results):
    """Oracle: the search without skips, F plus each C of
    ``itertools.combinations`` order, one candidate at a time, raising at
    candidate ``NETSTAB_MAX_ITERS`` + 1."""
    forced = structural._forced(graph)
    free = sorted(set(graph.vertices) - forced)
    succ = {v: tuple(w for w in graph.successors(v) if w not in forced) for v in free}
    cap = _iteration_cap(1 << 20)
    tried = 0
    results = []
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            if tried == cap:
                raise ConvergenceError(
                    f"structural-set search stopped after {cap} candidate sets at "
                    f"|S| = {len(forced) + size}, with {len(results)} sets found"
                )
            tried += 1
            order = structural._order(succ, combo)
            if order is None:
                continue
            rep = structural._report(graph, tuple(sorted(forced.union(combo))), order)
            if want_basic and not rep.basic:
                continue
            results.append(rep)
            if len(results) >= max_results:
                return results
    return results


def outcome(search, graph, want_basic, max_results):
    """The sets and their counts that ``search`` returns, or its error."""
    try:
        return [(rep.S, rep.counts) for rep in search(graph, want_basic, max_results)]
    except ConvergenceError as err:
        return str(err)


def test_skipped_candidates_count_toward_the_cap(monkeypatch):
    # the search skips candidates whose passed-over vertices hold a cycle,
    # yet returns the same sets, or stops at the same candidate with the
    # same message, as trying each candidate in turn
    verts = tuple(f"v{i}" for i in range(8))
    graphs = [InteractionGraph(vertices=verts, edges={
        (a, b): frozenset({0}) for a in verts for b in verts if a != b})]
    rng = np.random.default_rng(109)
    graphs += [loop_free_graph(rng, n) for n in (10, 10, 14, 14)]
    graphs += [interaction_graph(random_network(rng, 13)) for _ in range(3)]
    stopped = 0
    for cap in (*range(1, 81), 200, 1000, 5000):
        monkeypatch.setenv("NETSTAB_MAX_ITERS", str(cap))
        for g in graphs:
            for want_basic in (False, True):
                for max_results in (1, 16):
                    expected = outcome(plain_search, g, want_basic, max_results)
                    assert outcome(find_structural_sets, g, want_basic, max_results) == expected
                    stopped += isinstance(expected, str)
    assert stopped >= 1000


def test_skips_save_most_of_the_search(monkeypatch):
    # trying every C of the 29 free vertices in turn, up to the 16th set
    # (|C| = 5), takes 150,986 topological sorts; skipping the candidates
    # that pass over a cycle leaves under a quarter of them, tests included
    calls = 0
    order = structural._order

    def counted(succ, removed):
        nonlocal calls
        calls += 1
        return order(succ, removed)

    monkeypatch.setattr(structural, "_order", counted)
    reports = find_structural_sets(loop_free_graph(np.random.default_rng(0), 32))
    assert len(reports) == 16 and min(len(rep.S) for rep in reports) == 8
    assert calls <= 150_986 // 4
