import json
import math
import re

import numpy as np
import pytest

from gen import build_benchmark_network, diamond_network, eval_interval, random_network, rescaled_ring

from netstab import expr as ex
from netstab import gallery
from netstab.delays import dedelay, label, state_indices, undelay
from netstab.errors import EvalError, UnboundedDerivativeError
from netstab.expr import Interval
from netstab.network import build_network, dump_network, load_network, make_cohen_grossberg
from netstab.spectral import spectral_radius
from netstab.stability import (
    _bounded,
    _partials,
    analyze,
    jacobian_matrix,
    local_spectral_radius,
    stability_matrix,
)
from netstab.transform import expand, restrict

R = Interval.whole()


def test_matrix_of_undelayed_pair():
    eps, a, b = 0.5, 0.1, 1.0
    M = stability_matrix(gallery.undelayed_pair(eps, a, b))
    expect = np.array([[abs(1 - eps), 2 * abs(a * b)], [2 * abs(a * b), abs(1 - eps)]])
    assert np.allclose(M.data, expect, atol=1e-12)
    assert M.index == ("x1", "x2")


def test_matrix_of_general_cohen_grossberg():
    # diagonal |1-eps| + |Wjj*L|, off-diagonal |Wij*L| (same-sign parameters)
    rng = np.random.default_rng(2)
    W = rng.uniform(0.0, 0.5, (3, 3))
    eps, b = 0.3, 0.8
    M = stability_matrix(make_cohen_grossberg(W, eps, b=b))
    for j in range(3):
        for i in range(3):
            want = abs(W[i, j]) * b + (abs(1 - eps) if i == j else 0.0)
            assert M.data[j, i] == pytest.approx(want, abs=1e-12)


def test_matrix_of_identity_network():
    net = build_network([("x1", R), ("x2", R)], [("x1", "x1"), ("x2", "x2")])
    M = stability_matrix(net)
    assert np.allclose(M.data, np.eye(2))


def test_matrix_of_delayed_network_has_delay_line_rows():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    M = stability_matrix(net)
    assert M.data.shape == (8, 8)
    assert M.index[:2] == ("x1", "x2")
    # each delay-line row holds a single exact 1
    for row in range(2, 8):
        values = sorted(M.data[row])
        assert values[:-1] == [0.0] * 7 and values[-1] == 1.0


def test_matrix_unbounded_derivative_raises():
    net = build_network([("x1", R)], [("x1", "x1*x1")])
    with pytest.raises(UnboundedDerivativeError):
        stability_matrix(net)


def test_matrix_unbounded_delayed_read_names_the_read():
    net = build_network([("x1", R)], [("x1", "x1[-2]*x1[-2]")])
    with pytest.raises(UnboundedDerivativeError, match=r"d\(x1\)/d\(x1\[-2\]\)"):
        stability_matrix(net)


def test_matrix_and_jacobian_of_delayed_rules_equal_dedelayed_network():
    # read off the original rules, the matrix and the Jacobian equal those
    # of the de-delayed network bit for bit, in the same coordinate order
    rng = np.random.default_rng(67)
    for _ in range(36):
        net = random_network(
            rng, int(rng.integers(2, 6)), max_delay=int(rng.integers(1, 5)),
            require_delay=True,
        )
        aug = dedelay(net)
        M = stability_matrix(net)
        assert np.array_equal(M.data, stability_matrix(aug.net).data)
        assert M.index == tuple(label(*aug.projection[c]) for c in aug.coords)
        point = rng.uniform(-1, 1, net.size)
        tiled = [point[net.nodes.index(aug.projection[c][0])] for c in aug.coords]
        J, labels = jacobian_matrix(net, point)
        assert np.array_equal(J, jacobian_matrix(aug.net, tiled)[0])
        assert labels == M.index


def test_matrix_bounded_on_finite_domain():
    net = build_network([("x1", Interval(-2, 3))], [("x1", "x1*x1")])
    M = stability_matrix(net)
    assert M.data[0, 0] == pytest.approx(6.0, rel=1e-12)


def test_analyze_undelayed_pair_stable():
    report = analyze(gallery.undelayed_pair(0.5, 0.1, 1.0))
    assert report.rho == pytest.approx(0.7, abs=1e-10)
    assert report.verdict == "stable"
    assert not report.boundary
    assert report.cg_criterion == pytest.approx(0.7, abs=1e-10)


def test_analyze_delayed_pair_closed_form():
    report = analyze(gallery.delayed_pair(0.5, 0.1, 1.0))
    closed = math.sqrt((0.5 + math.sqrt(0.25 + 0.8)) / 2)
    assert report.rho == pytest.approx(closed, abs=1e-8)
    assert report.verdict == "stable"


def test_analyze_tanh_ring_inconclusive():
    for c in (0.0, 2.0, 5.0):
        report = analyze(gallery.tanh_ring(6, c))
        assert report.rho == pytest.approx(2.0, abs=1e-10)
        assert report.verdict == "inconclusive"


def test_analyze_report_json():
    report = analyze(gallery.undelayed_pair(0.5, 0.1, 1.0))
    data = json.loads(report.to_json())
    assert data["schema"] == "netstab-report/5"
    assert data["verdict"] == "stable"
    assert data["rho_lower"] <= data["rho"] <= data["rho_upper"] < 1.0
    assert data["rho"] == 0.5 * (data["rho_lower"] + data["rho_upper"])
    assert data["indices"] == ["x1", "x2"]
    off = 0.2000000000000001  # the interval bound of 2|ab| = 0.2
    # [row, col, bound, provenance], positions in indices
    assert [entry[:3] for entry in data["entries"]] == [
        [0, 0, 0.5], [0, 1, off], [1, 0, off], [1, 1, 0.5]]
    assert list(report.provenance) == [entry[3] for entry in data["entries"]]
    assert all(report.provenance) and "provenance" not in data
    assert data["shared"] == []


def test_entries_carry_bound_and_provenance_together():
    # d(x1)/d(x1) = x2 is bounded by 0 on x2's domain [0, 0], so that entry
    # has neither a bound nor a provenance
    net = load_network("network drift\nnode x1 domain [-1,1]\nnode x2 domain [0,0]\n"
                       "update x1 = x1*x2\nupdate x2 = 0.5*x2\n")
    report = analyze(net)
    assert report.provenance == ("x1", "0.5")
    data = json.loads(report.to_json())
    assert data["indices"] == ["x1", "x2"]
    assert data["entries"] == [[0, 1, 1.0, "x1"], [1, 1, 0.5, "0.5"]]


def test_analyze_boundary_flag():
    net = build_network([("x1", R)], [("x1", "x1")])
    report = analyze(net)
    assert report.boundary
    assert report.verdict == "inconclusive"
    assert (report.rho_lower, report.rho, report.rho_upper) == (1.0, 1.0, 1.0)


def test_radius_just_above_one_is_not_stable():
    # an uncertified float estimate of rho can land below 1 here
    net = rescaled_ring(12, 8, 1e-10)
    M = stability_matrix(net)
    assert M.n == 73
    assert np.max(np.abs(np.linalg.eigvals(M.data))) > 1.0
    report = analyze(net)
    assert report.rho_upper >= 1.0
    assert report.verdict == "inconclusive"
    assert report.rho_lower <= 1.0 + 1e-10 <= report.rho_upper


def test_radius_just_below_one_is_stable():
    report = analyze(rescaled_ring(12, 8, -1e-10))
    assert report.rho_upper < 1.0
    assert report.verdict == "stable"
    assert not report.boundary


def _by_label(report) -> dict[tuple[str, str], str]:
    """(row label, column label) -> the provenance of each entry."""
    m, labels = report.matrix, report.matrix.index
    return {(labels[j], labels[i]): text
            for j, i, text in zip(m.rows.tolist(), m.cols.tolist(), report.provenance)}


def test_provenance_names_partials():
    report = analyze(gallery.delayed_pair(0.5, 0.1, 1.0))
    assert any("sech" in v for v in report.provenance)
    # delayed reads print in the rules' own notation
    texts = _by_label(report)
    assert texts[("x1", "x2@3")] == "0.2 * (sech(x2[-3]) * sech(x2[-3]))"
    assert texts[("x1@2", "x1@1")] == "1.0"


@pytest.mark.parametrize("net", [
    gallery.cg_ring(5, 0.3, 1.5, 0.2),
    gallery.delayed_pair(0.5, 0.1, 1.0),
    gallery.undelayed_pair(0.5, 0.1, 1.0),
    gallery.distributed_pair(),
    gallery.tanh_ring(6, 3.0),
    gallery.six_node(),
    rescaled_ring(12, 4, -1e-3),
    random_network(np.random.default_rng(3), 8, max_delay=3),
], ids=lambda net: net.name or "ring")
def test_constant_partials_match_the_generic_path(net):
    # the per-partial reference for the one-walk assembly: each partial
    # bounded by its own eval_interval and printed by its own to_text,
    # constants and delay-line rows included, once the report's shared
    # names are spelled out, in the order of the partials, which is the
    # matrix's (row, col) order
    indices = state_indices(net)
    box = {read: net.domains[read[0]] for read in indices}
    data = np.zeros((len(indices), len(indices)))
    for j, i, partial in _partials(net, indices):
        data[j, i] = eval_interval(partial, box).sup_abs()
    report = analyze(net)
    assert report.matrix.data.tobytes() == data.tobytes()
    plain = _plain_provenance(net)
    assert list(plain) == sorted(plain)
    assert list(_spelled_out(report).items()) == list(plain.items())


def _count_walks(monkeypatch) -> list[tuple[str, int]]:
    """Record (kind, roots) of every ``expr._evaluate`` call from now on;
    the one-root point evaluator is disabled, so no partial is walked alone."""
    walks = []
    original = ex._evaluate

    def counted(roots, values, kind):
        walks.append((kind, len(roots)))
        return original(roots, values, kind)

    monkeypatch.setattr(ex, "_evaluate", counted)
    monkeypatch.setattr(ex, "eval_point", None)
    return walks


def test_assembly_bounds_all_partials_in_one_walk(monkeypatch):
    walks = _count_walks(monkeypatch)
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    report = analyze(net)
    assert walks == [("interval", len(list(_partials(net, state_indices(net)))))]
    assert len(report.provenance) == walks[0][1]


_WALKED = [
    gallery.delayed_pair(0.5, 0.1, 1.0),
    gallery.distributed_pair(),
    restrict(diamond_network(np.random.default_rng(6), 6), ["s"]),
    random_network(np.random.default_rng(3), 8, max_delay=3),
]


def test_stability_matrix_renders_nothing(monkeypatch):
    reports = [analyze(net) for net in _WALKED]
    assert any(report.shared for report in reports)  # some provenance names nodes

    def refuse(*args):
        raise AssertionError("stability_matrix rendered a partial")

    monkeypatch.setattr(ex, "_text", refuse)
    monkeypatch.setattr(ex, "_render", refuse)
    walks = _count_walks(monkeypatch)
    for net, report in zip(_WALKED, reports):
        got = stability_matrix(net)
        assert got.index == report.matrix.index
        for field in ("rows", "cols", "values"):
            assert getattr(got, field).tobytes() == getattr(report.matrix, field).tobytes()
    assert [kind for kind, _ in walks] == ["interval"] * len(_WALKED)


@pytest.mark.parametrize("net", _WALKED, ids=lambda net: net.name or "restricted")
def test_jacobian_evaluates_all_partials_in_one_walk(monkeypatch, net):
    point = np.linspace(-0.4, 0.3, net.size)
    indices = state_indices(net)
    value = dict(zip(net.nodes, point))
    assignment = {read: value[read[0]] for read in indices}
    entries = list(_partials(net, indices))
    want = np.zeros((len(indices), len(indices)))
    for j, i, partial in entries:  # each partial by its own walk
        want[j, i] = ex.eval_point(partial, assignment)
    walks = _count_walks(monkeypatch)
    J, labels = jacobian_matrix(net, point)
    assert walks == [("point", len(entries))]
    assert J.tobytes() == want.tobytes()
    assert labels == tuple(label(*read) for read in indices)


def test_partials_walk_each_base_rule_once(monkeypatch):
    calls = []
    original = ex.gradient

    def counted(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(ex, "gradient", counted)
    net = build_benchmark_network(8)  # a delayed tanh ring
    report = analyze(net)
    assert calls == [net.updates[n] for n in net.nodes]
    assert report.matrix.n > net.size  # the delay lines take no walk


_IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*")


def _spelled_out(report) -> dict[tuple[int, int], str]:
    """(row, col) -> each entry's provenance with every shared name
    replaced by its full text.

    Names are put back in definition order, so a name used before its
    definition would stay in the text."""
    full: dict[str, str] = {}

    def put_back(text):
        return _IDENT.sub(lambda m: full.get(m.group(), m.group()), text)

    for name, text in report.shared.items():
        full[name] = put_back(text)
    m = report.matrix
    return {(j, i): put_back(text)
            for j, i, text in zip(m.rows.tolist(), m.cols.tolist(), report.provenance)}


def _plain_provenance(net) -> dict[tuple[int, int], str]:
    """(row, col) -> the text of each partial not bounded by 0, each by its
    own walks."""
    indices = state_indices(net)
    box = {read: net.domains[read[0]] for read in indices}
    return {(j, i): ex.to_text(partial) for j, i, partial in _partials(net, indices)
            if eval_interval(partial, box).sup_abs()}


def _restricted_diamond(k: int, rename: str = "s"):
    net = restrict(diamond_network(np.random.default_rng(k), k), ["s"])
    text = re.sub(r"\bs\b", rename, dump_network(net))
    return load_network(text)


def _check_names(report, net):
    names = list(report.shared)
    assert len(set(names)) == len(names)
    for name in names:
        assert _IDENT.fullmatch(name)
        assert name not in net.nodes and name not in ex.FUNCTIONS
    data = json.loads(report.to_json())
    assert data["shared"] == [[name, text] for name, text in report.shared.items()]


def _diamonds():
    for k in range(4, 13):
        net = restrict(diamond_network(np.random.default_rng(k), k), ["s"])
        yield pytest.param(net, id=f"diamond{k}")
        yield pytest.param(_restricted_diamond(k), id=f"diamond{k}-loaded")


def _expanded_diamond(k: int):
    return expand(diamond_network(np.random.default_rng(k), k), ["s"]).net


@pytest.mark.parametrize("net", [
    gallery.cg_ring(5, 0.3, 1.5, 0.2),
    gallery.delayed_pair(0.5, 0.1, 1.0),
    gallery.undelayed_pair(0.5, 0.1, 1.0),
    gallery.distributed_pair(),
    gallery.tanh_ring(6, 3.0),
    gallery.six_node(),
    *_diamonds(),
    *(pytest.param(_expanded_diamond(k), id=f"expanded{k}") for k in (4, 6)),
], ids=lambda net: net.name)
def test_shared_names_spell_out_to_the_plain_provenance(net):
    report = analyze(net)
    _check_names(report, net)
    assert _spelled_out(report) == _plain_provenance(net)
    if net.name.endswith(("|restricted", "|expanded")):
        assert report.shared
    elif net.name == "six_node":
        # each sech(x) * sech(x) that two partials read is named once for
        # the report
        assert report.shared == {
            "t1": "sech(x6) * sech(x6)", "t2": "sech(x2) * sech(x2)",
            "t3": "sech(x5) * sech(x5)", "t4": "sech(x3) * sech(x3)"}
    else:
        # sharing one level deep, as in cg_ring's sech(u) * sech(u), stays
        # inline
        assert not report.shared


def test_one_text_walk_names_what_the_expanded_report_shares(monkeypatch):
    net = _expanded_diamond(8)
    calls = []
    original = ex._text

    def counted(roots, name=None):
        calls.append(len(roots))
        return original(roots, name)

    monkeypatch.setattr(ex, "_text", counted)
    report = analyze(net)
    assert calls == [len(set(_bounded(net)[1]))]
    texts = [*report.provenance, *report.shared.values()]
    # the 256 partials of s share most of their nodes, which one walk
    # names once: naming what each partial shares within itself alone
    # writes 2.0 M characters
    assert sum(map(len, texts)) < 200_000


def test_report_grows_linearly_with_the_diamond_depth():
    chars = {k: len(analyze(_restricted_diamond(k)).to_json()) for k in (10, 12, 14)}
    # two layers add a bounded amount of text; spelled out, they add 4x
    step, next_step = chars[12] - chars[10], chars[14] - chars[12]
    assert 0 < step < 2000 and 0 < next_step < 2000
    assert abs(next_step - step) < step / 4


def test_shared_names_avoid_node_names():
    net = _restricted_diamond(6, rename="t1")
    report = analyze(net)
    _check_names(report, net)
    assert "t1_2" in report.shared and "t1" not in report.shared
    assert _spelled_out(report) == _plain_provenance(net)
    # nodes that take the first names a partial would get
    lines = ["network clash"] + [f"node {v} domain [-1,1]" for v in ("t1", "t1_2", "t2")]
    lines += ["update t1 = tanh(0.5*tanh(t2) + t1_2) * tanh(0.5*tanh(t2) + t1_2)",
              "update t1_2 = 0.5*t1", "update t2 = 0.5*t1_2"]
    net = load_network("\n".join(lines) + "\n")
    report = analyze(net)
    _check_names(report, net)
    assert list(report.shared)[:2] == ["t1_3", "t2_2"]
    assert _spelled_out(report) == _plain_provenance(net)


@pytest.mark.parametrize("net", [
    restrict(gallery.tanh_ring(6, 1.5), gallery.even_vertices(gallery.tanh_ring(6, 1.5))),
    restrict(diamond_network(np.random.default_rng(4), 4), ["s"]),
    restrict(diamond_network(np.random.default_rng(10), 10), ["s"]),
], ids=["ring6", "diamond4", "diamond10"])
def test_shared_names_do_not_depend_on_how_the_network_was_built(net):
    # the names must follow the structure alone, so both write the same
    # report
    report = analyze(net)
    assert report.shared
    assert report.to_json() == analyze(load_network(dump_network(net))).to_json()


def test_user_supplied_larger_matrix_dominates():
    # entrywise larger bounds can only raise the spectral radius
    rng = np.random.default_rng(47)
    for _ in range(30):
        net = random_network(rng, int(rng.integers(2, 6)), max_delay=2)
        M = stability_matrix(net)
        bigger = M.data + rng.uniform(0, 0.5, M.data.shape)
        assert spectral_radius(M) <= spectral_radius(bigger) + 1e-12


def test_delay_invariance_for_non_distributed():
    # a non-distributed network and its undelayed version sit on the same
    # side of rho = 1 (checked off a small guard band)
    rng = np.random.default_rng(53)
    done = 0
    while done < 50:
        amp = float(rng.choice([0.1, 0.25, 0.8]))
        net = random_network(
            rng, int(rng.integers(2, 6)), max_delay=3,
            amplitude=amp, non_distributed=True, require_delay=True,
        )
        rho_d = analyze(net).rho
        rho_u = analyze(undelay(net)).rho
        if abs(rho_d - 1) < 1e-6 or abs(rho_u - 1) < 1e-6:
            continue
        assert (rho_d < 1) == (rho_u < 1), (rho_d, rho_u)
        done += 1


def lag_sum(net):
    """sum_d A_d: each base row of the stability matrix with its entries
    summed by the node whose delayed value their column holds (the delay
    lines carry exact 1s)."""
    M = stability_matrix(net)
    indices = state_indices(net)
    out = np.zeros((net.size, net.size))
    for j, i, value in zip(M.rows.tolist(), M.cols.tolist(), M.values.tolist()):
        if j < net.size:
            out[j, net.nodes.index(indices[i][0])] += value
    return out


def test_lag_blocks_sum_to_the_undelayed_matrix():
    # the paper's delay-independence theorem: for a non-distributed network
    # rho(companion) < 1 iff rho(sum_d A_d) < 1, and sum_d A_d is the
    # stability matrix of the undelayed network
    rng = np.random.default_rng(73)
    for _ in range(40):
        net = random_network(
            rng, int(rng.integers(2, 7)), max_delay=4, non_distributed=True, require_delay=True,
        )
        assert np.array_equal(lag_sum(net), stability_matrix(undelay(net)).data)


def test_lag_blocks_of_distributed_pair():
    # with distributed delays sum_d A_d and the full matrix are both
    # inconclusive, while undelay's 0.5 would be a false certificate
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    assert spectral_radius(lag_sum(net)) == pytest.approx(2.5, abs=1e-12)
    assert spectral_radius(stability_matrix(net)) == pytest.approx(2.0, abs=1e-12)
    assert spectral_radius(stability_matrix(undelay(net))) == pytest.approx(0.5, abs=1e-12)


def test_stable_delayed_implies_stable_undelayed():
    rng = np.random.default_rng(59)
    found = 0
    while found < 25:
        net = random_network(rng, int(rng.integers(2, 6)), max_delay=3, amplitude=0.15)
        rho_d = analyze(net).rho
        if rho_d >= 1:
            continue
        assert analyze(undelay(net)).rho < 1
        found += 1


def test_delayed_pair_grid_verdicts_match_undelayed():
    for eps in (0.1, 0.5, 1.0, 1.5, 1.9):
        for ab in (0.01, 0.1, 0.3, 0.6):
            delayed = gallery.delayed_pair(eps, ab, 1.0)
            undelayed = gallery.undelayed_pair(eps, ab, 1.0)
            rho_d = analyze(delayed).rho
            rho_u = analyze(undelayed).rho
            assert abs(rho_u - (abs(1 - eps) + 2 * ab)) < 1e-10
            if abs(rho_d - 1) > 1e-6 and abs(rho_u - 1) > 1e-6:
                assert (rho_d < 1) == (rho_u < 1)


def test_jacobian_at_origin_distributed_pair():
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    J, labels = jacobian_matrix(net, np.zeros(2))
    assert labels == ("x1", "x2", "x1@1", "x2@1")
    expect = np.array(
        [
            [0.5, 1.0, 0.0, -1.0],
            [1.0, 0.5, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(J, expect, atol=1e-14)


def test_local_radius_distributed_pair():
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    rho = local_spectral_radius(net, np.zeros(2))
    assert rho == pytest.approx((1 + math.sqrt(17)) / 4, abs=1e-12)


def test_local_radius_at_most_bound_radius():
    # the sup-bound matrix dominates |J| at any point of the box
    rng = np.random.default_rng(61)
    for _ in range(20):
        net = random_network(rng, 3, max_delay=2)
        rho_bound = analyze(net).rho
        point = rng.uniform(-1, 1, 3)
        assert local_spectral_radius(net, point) <= rho_bound + 1e-9


def test_point_overflow_names_the_entry():
    # the second rule's partial overflows at x2 = 800; the first is fine
    net = build_network(
        [("x1", Interval(-1.0, 1.0)), ("x2", Interval(-1.0, 1.0))],
        [("x1", "0.5*x2"), ("x2", "1e-300*exp(x2 + 100.0) + 0.1*x1[-1]")],
    )
    with pytest.raises(EvalError) as err:
        jacobian_matrix(net, [0.0, 800.0])
    assert str(err.value) == (
        "d(x2)/d(x2): overflow evaluating exp (term: 1e-300 * exp(x2 + 100.0))"
    )
