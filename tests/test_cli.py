import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gen import build_benchmark_network, diamond_network

from netstab import engine, gallery
from netstab.cli import emit_dot, run
from netstab.expr import Interval
from netstab.network import build_network, dump_network, interaction_graph, load_network
from netstab.sim import iterate_orbit, sampling_box, verify_global_attraction
from netstab.stability import analyze
from netstab.structural import find_structural_sets

REPO = Path(__file__).resolve().parent.parent
NETWORKS = REPO / "networks"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(tmp_path: Path, name: str, net) -> Path:
    path = tmp_path / name
    path.write_text(dump_network(net))
    return path


def test_analyze_prints_rho_and_writes_report(in_tmp, capsys):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    assert run(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rho = 0.7" in out
    assert "verdict = stable" in out
    report = json.loads((in_tmp / "pair.report.json").read_text())
    assert report["schema"] == "netstab-report/5"
    assert report["verdict"] == "stable"
    bracket = f"certified bracket: {report['rho_lower']!r} <= rho <= {report['rho_upper']!r}"
    assert bracket in out


def test_analyze_notes_a_bracket_that_contains_one(in_tmp, capsys):
    path = in_tmp / "unit.net"
    path.write_text("node x1 domain [-inf,inf]\nupdate x1 = x1\n")
    assert run(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict = inconclusive" in out
    assert "note: the certified bracket contains 1" in out


def test_analyze_bad_iteration_cap_exit_code(in_tmp, capsys, monkeypatch):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    monkeypatch.setenv("NETSTAB_MAX_ITERS", "abc")
    assert run(["analyze", str(path)]) == 1
    assert "NETSTAB_MAX_ITERS" in capsys.readouterr().err


@pytest.mark.parametrize("ident", ["1x", "x-y"])
def test_a_bad_node_id_is_reported_before_its_rule_is_read(in_tmp, capsys, ident):
    bad = in_tmp / "bad.net"
    bad.write_text(f"node {ident} domain [-1,1]\nupdate {ident} = 0.5*{ident}\n")
    assert run(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: node id {ident!r} is not an identifier\n"


def test_analyze_domain_error_exit_code(in_tmp, capsys):
    bad = in_tmp / "bad.net"
    bad.write_text("node x1 domain [-inf,inf]\nupdate x1 = x1*x1\n")
    assert run(["analyze", str(bad)]) == 1
    assert "unbounded" in capsys.readouterr().err


def test_missing_file_is_usage_error(in_tmp):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "nope.net"])
    assert exc.value.code == 2


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "x.net"])
    assert exc.value.code == 2


def test_graph_writes_dot(in_tmp):
    path = _write(in_tmp, "pair.net", gallery.delayed_pair(0.5, 0.1, 1.0))
    assert run(["graph", str(path), "-o", "g.dot"]) == 0
    dot = (in_tmp / "g.dot").read_text()
    assert dot.startswith("digraph")
    assert '"x1" -> "x2" [label="3"]' in dot


def test_graph_rejects_a_set_naming_no_node(in_tmp, capsys):
    path = _write(in_tmp, "pair.net", gallery.delayed_pair(0.5, 0.1, 1.0))
    assert run(["graph", str(path), "--set", "x1,bogus"]) == 1
    assert "not vertices of the graph: ['bogus']" in capsys.readouterr().err
    assert not (in_tmp / "pair.dot").exists()


def test_emit_dot_marks_set_and_labels():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    dot = emit_dot(interaction_graph(net), S=("x1",))
    assert '"x1" [peripheries=2' in dot
    assert '"x2";' in dot

    undelayed = gallery.undelayed_pair(0.5, 0.1, 1.0)
    dot = emit_dot(interaction_graph(undelayed))
    assert "label" not in dot  # all delays zero


def test_emit_dot_empty():
    from netstab.network import InteractionGraph

    dot = emit_dot(InteractionGraph(vertices=(), edges={}))
    assert dot == "digraph interactions {\n}\n"


def test_sets_lists_and_flags(in_tmp, capsys):
    path = _write(in_tmp, "six.net", gallery.six_node())
    assert run(["sets", "--basic", str(path), "-o", "sets.json"]) == 0
    out = capsys.readouterr().out
    assert "{x1,x3,x5} complete non-basic" in out
    data = json.loads((in_tmp / "sets.json").read_text())
    assert any(s["S"] == ["x1", "x3", "x5"] for s in data["sets"])


def test_sets_report_counts_the_branches_of_a_diamond(in_tmp, capsys):
    # the k = 10 diamond has 2^10 branches from s back to s; listing them
    # in each of its 16 sets took 9.5 M characters, indenting the counts 6.4 k
    path = _write(in_tmp, "diamond.net", diamond_network(np.random.default_rng(10), 10))
    assert run(["sets", str(path), "-o", "sets.json"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "{s} complete"
    text = (in_tmp / "sets.json").read_text()
    assert len(text) < 3_000
    first = json.loads(text)["sets"][0]
    assert first["S"] == ["s"] and first["branch_counts"] == [["s", "s", 1024]]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


# every trial diverges, so the verdict has no finite diameter
_DIVERGING = build_network([("x1", Interval(-2, 2))], [("x1", "2*x1*x1 + 1")])


@pytest.mark.parametrize("net", [
    gallery.cg_ring(5, 0.3, 1.5, 0.2),
    gallery.delayed_pair(0.5, 0.1, 1.0),
    gallery.undelayed_pair(0.5, 0.1, 1.0),
    gallery.distributed_pair(),
    gallery.tanh_ring(6, 3.0),
    gallery.six_node(),
    _DIVERGING,
], ids=lambda net: net.name or "diverging")
def test_every_report_is_one_line_of_sorted_strict_json(in_tmp, capsys, net):
    diverging = net is _DIVERGING
    path = _write(in_tmp, "net.net", net)
    net = load_network(path.read_text())
    assert run(["analyze", str(path)]) == 0
    assert run(["sets", str(path), "-o", "net.sets.json"]) == 0
    assert run(["simulate", str(path), "--trials", "3", "--steps", "50"]) == 0
    report = analyze(net)
    sets = find_structural_sets(interaction_graph(net), want_basic=False)
    verdict = verify_global_attraction(net, 3, 50, None, 1e-8, 0)
    for obj in (report, verdict, *sets):
        assert obj.to_json() == json.dumps(obj.to_json_dict(), sort_keys=True)
        _strict_json(obj.to_json())
    written = {
        "net.report.json": report.to_json_dict(),
        "net.sets.json": {"schema": "netstab-report/5",
                          "sets": [rep.to_json_dict() for rep in sets]},
        "net.verdict.json": verdict.to_json_dict(),
    }
    for name, data in written.items():
        text = (in_tmp / name).read_text()
        assert text == json.dumps(data, sort_keys=True) + "\n"
        _strict_json(text)
    assert (verdict.diverged_trials == 3) == diverging
    assert (written["net.verdict.json"]["final_diameter"] is None) == diverging


def test_consecutive_runs_do_not_share_options(in_tmp, capsys):
    six = _write(in_tmp, "six.net", gallery.six_node())
    assert run(["sets", "--basic", str(six)]) == 0
    assert "{x1,x3,x5} complete non-basic" in capsys.readouterr().out
    assert run(["sets", str(six)]) == 0
    out = capsys.readouterr().out
    assert "{x1,x3,x5} complete\n" in out and "basic" not in out
    pair = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    assert run(["simulate", str(pair), "--trials", "3", "--steps", "50", "--seed", "4"]) == 0
    assert json.loads((in_tmp / "pair.verdict.json").read_text())["trials"] == 3
    assert run(["simulate", str(pair)]) == 0
    verdict = json.loads((in_tmp / "pair.verdict.json").read_text())
    assert verdict["trials"] == 20
    assert len((in_tmp / "pair.trajectory.csv").read_text().splitlines()) > 5000


def test_sets_on_a_long_ring(in_tmp, capsys):
    # its one branch per singleton is 1501 vertices long, deeper than
    # Python's recursion limit
    n = 1500
    path = in_tmp / "ring.net"
    path.write_text("".join(
        f"node v{i} domain [-inf,inf]\nupdate v{i} = tanh(v{(i - 1) % n})\n" for i in range(n)
    ))
    assert run(["sets", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "{v0} complete"


def _main(args, **kwargs) -> subprocess.Popen:
    """``netstab ARGS`` through ``cli.main``, in a process of its own that
    imports this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    ))
    return subprocess.Popen([sys.executable, "-m", "netstab.cli", *args], env=env, **kwargs)


def test_main_exit_codes(tmp_path):
    def run_main(*args):
        child = _main(args, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = child.communicate()
        return child.returncode, out.decode(), err.decode()

    code, out, err = run_main("analyze", str(NETWORKS / "undelayed_pair.net"))
    assert (code, err) == (0, "") and "verdict = stable" in out
    assert (tmp_path / "undelayed_pair.report.json").is_file()
    code, out, err = run_main("restrict", str(NETWORKS / "ring6.net"), "--set", "x1")
    assert (code, out) == (1, "")
    assert err == "error: {x1} is not a complete structural set; inlining would not terminate\n"
    code, out, err = run_main("analyze", str(tmp_path / "missing.net"))
    assert (code, out) == (2, "") and err.startswith("error: cannot read ")


def test_main_unwritable_output_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "out"
    for verb, *flags in (["analyze"], ["graph"], ["sets"], ["dedelay"],
                         ["simulate", "--trials", "2", "--steps", "5"]):
        child = _main([verb, str(NETWORKS / "ring6.net"), "-o", str(out), *flags],
                      cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err = child.communicate()[1].decode()
        assert child.returncode == 2, (verb, err)
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


def test_main_into_a_pipe_closed_before_it_writes(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _main(["sets", str(NETWORKS / "six_node.net")], cwd=tmp_path,
                      stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    err = child.communicate()[1]
    assert (child.returncode, err) == (1, b"")


def test_sets_into_a_closed_pipe_exits_quietly(tmp_path):
    # 16 sets of one 20 kB name each: more than the pipe holds, so the
    # writer is still printing when head has read one line and exited
    n = 16
    name = [f"v{'_' * 20000}{i}" for i in range(n)]
    path = tmp_path / "ring.net"
    path.write_text("".join(
        f"node {name[i]} domain [-inf,inf]\nupdate {name[i]} = tanh({name[i - 1]})\n"
        for i in range(n)
    ))
    netstab = _main(["sets", str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = subprocess.Popen(["head", "-1"], stdin=netstab.stdout, stdout=subprocess.PIPE)
    netstab.stdout.close()
    first = head.communicate()[0]
    err = netstab.stderr.read()
    netstab.stderr.close()
    assert netstab.wait() == 1
    assert err == b""
    assert first.startswith(b"{v___")


def test_sets_candidate_cap_exit_code(in_tmp, capsys, monkeypatch):
    # every node reads every other, so S needs 7 of the 8 nodes
    nodes = [f"x{i}" for i in range(8)]
    path = in_tmp / "dense.net"
    path.write_text("".join(
        f"node {v} domain [-inf,inf]\nupdate {v} = "
        + " + ".join(f"0.1*tanh({w})" for w in nodes if w != v) + "\n"
        for v in nodes
    ))
    monkeypatch.setenv("NETSTAB_MAX_ITERS", "50")
    assert run(["sets", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: structural-set search stopped after 50 candidate sets")


def test_restrict_requires_set(in_tmp):
    path = _write(in_tmp, "six.net", gallery.six_node())
    with pytest.raises(SystemExit) as exc:
        run(["restrict", str(path)])
    assert exc.value.code == 2


def test_restrict_roundtrip(in_tmp, capsys):
    path = _write(in_tmp, "six.net", gallery.six_node())
    assert run(["restrict", str(path), "--set", "x1,x3,x5", "-o", "r.net"]) == 0
    restricted = load_network((in_tmp / "r.net").read_text())
    assert restricted.nodes == ("x1", "x3", "x5")


def test_restrict_incomplete_set_fails(in_tmp, capsys):
    path = _write(in_tmp, "six.net", gallery.six_node())
    assert run(["restrict", str(path), "--set", "x1"]) == 1
    assert "complete" in capsys.readouterr().err


def test_expand_writes_network(in_tmp):
    path = _write(in_tmp, "ring.net", gallery.tanh_ring(6, 3.0))
    assert run(["expand", str(path), "--set", "x2,x4,x6", "-o", "e.net"]) == 0
    expanded = load_network((in_tmp / "e.net").read_text())
    assert expanded.size == 15


def test_undelay_and_dedelay_roundtrip(in_tmp):
    path = _write(in_tmp, "pair.net", gallery.delayed_pair(0.5, 0.1, 1.0))
    assert run(["undelay", str(path), "-o", "u.net"]) == 0
    assert load_network((in_tmp / "u.net").read_text()).T == 1
    assert run(["dedelay", str(path), "-o", "d.net"]) == 0
    dedelayed = load_network((in_tmp / "d.net").read_text())
    assert dedelayed.T == 1 and dedelayed.size == 8


def test_transformed_files_reparse_equal(in_tmp):
    path = _write(in_tmp, "ring.net", gallery.tanh_ring(4, 2.0))
    assert run(["restrict", str(path), "--set", "x2,x4", "-o", "r.net"]) == 0
    text1 = (in_tmp / "r.net").read_text()
    net1 = load_network(text1)
    assert dump_network(net1) == text1


def test_simulate_writes_verdict_and_csv(in_tmp, capsys):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    assert run([
        "simulate", str(path), "--trials", "5", "--steps", "500", "--seed", "7",
    ]) == 0
    verdict = json.loads((in_tmp / "pair.verdict.json").read_text())
    assert verdict["converged"] is True
    csv = (in_tmp / "pair.trajectory.csv").read_text()
    assert csv.splitlines()[0] == "step,x1,x2"


def test_simulate_deterministic_given_seed(in_tmp):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    run(["simulate", str(path), "--trials", "4", "--steps", "200", "--seed", "5", "-o", "a"])
    run(["simulate", str(path), "--trials", "4", "--steps", "200", "--seed", "5", "-o", "b"])
    assert (in_tmp / "a.verdict.json").read_bytes() == (in_tmp / "b.verdict.json").read_bytes()
    assert (in_tmp / "a.trajectory.csv").read_bytes() == (in_tmp / "b.trajectory.csv").read_bytes()


def test_simulate_box_that_is_not_two_numbers_is_usage_error(in_tmp, capsys):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    with pytest.raises(SystemExit) as exc:
        run(["simulate", str(path), "--trials", "2", "--steps", "10", "--box", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--box" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "verb, flags",
    [
        ("simulate", ["--trials", "1"]),
        ("simulate", ["--trials", "0"]),
        ("simulate", ["--steps", "0"]),
        ("simulate", ["--steps", "-5"]),
        ("simulate", ["--tol", "-1"]),
        ("simulate", ["--tol", "nan"]),
        ("simulate", ["--seed", "-1"]),
        ("sets", ["--max-results", "0"]),
        ("sets", ["--max-results", "-1"]),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_out_of_range_count_or_tolerance_is_usage_error(in_tmp, capsys, verb, flags):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    with pytest.raises(SystemExit) as exc:
        run([verb, str(path), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "Traceback" not in err
    assert not list(in_tmp.glob("pair.verdict.json"))


def test_simulate_reversed_box_is_domain_error(in_tmp, capsys):
    path = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    code = run(["simulate", str(path), "--trials", "2", "--steps", "10", "--box", "1,-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lo <= hi" in err
    assert not (in_tmp / "pair.verdict.json").exists()


@pytest.mark.parametrize("domain", ["[-inf,-20]", "[1e300,inf]"])
def test_simulate_one_sided_domain_needs_a_box(in_tmp, capsys, domain):
    path = in_tmp / "one.net"
    path.write_text(f"network one\nnode x1 domain {domain}\nupdate x1 = 0.5*x1\n")
    assert run(["simulate", str(path), "--trials", "2", "--steps", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the default sampling box of x1") and "--box" in err
    assert not (in_tmp / "one.verdict.json").exists()
    box = "--box=-30,-20" if domain.startswith("[-inf") else "--box=1e300,2e300"
    assert run(["simulate", str(path), "--trials", "2", "--steps", "10", box]) == 0


def test_simulate_box_wider_than_the_float_range_is_an_error(in_tmp, capsys):
    path = in_tmp / "wide.net"
    path.write_text("network wide\nnode x1 domain [-1e308,1e308]\nupdate x1 = 0.5*x1\n")
    pair = _write(in_tmp, "pair.net", gallery.undelayed_pair(0.5, 0.1, 1.0))
    for argv in ([str(path)], [str(pair), "--box=-1e308,1e308"]):
        assert run(["simulate", *argv, "--trials", "2", "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the sampling box of x1, [-1e+308, 1e+308], is wider than")
        assert err.endswith("give a box with --box or sample_box\n") and err.count("\n") == 1
    assert not list(in_tmp.glob("*.verdict.json"))


def test_expand_names_the_rule_whose_folding_fails_as_restrict_does(in_tmp, capsys):
    path = in_tmp / "loop.net"
    path.write_text("network loop\nnode s domain [-1,1]\nnode x domain [-1,1]\n"
                    "update s = 1e200*x\nupdate x = 1e200*s\n")
    for verb in ("restrict", "expand"):
        assert run([verb, str(path), "--set", "s", "-o", str(in_tmp / f"{verb}.net")]) == 1
        err = capsys.readouterr().err
        assert err == "error: update of 's': a constant folds to inf, out of the float range\n"
    assert [p.name for p in in_tmp.iterdir()] == ["loop.net"]


# inputs at the edges of what a network file can say: every verb must end
# in a result or one error line, never a traceback
HOSTILE = {
    "below_box": "node x1 domain [-inf,-20]\nupdate x1 = 0.5*x1\n",
    "above_box": "node x1 domain [1e300,inf]\nupdate x1 = 0.5*x1\n",
    "exp_on_the_line": "node x1 domain [-inf,inf]\nupdate x1 = exp(x1)\n",
    "huge_sum": "node x1 domain [-1,1]\nupdate x1 = 1e308*x1 + 1e308*x1\n",
    "extreme_delayed_weights": "node x1 domain [-1,1]\nnode x2 domain [-1,1]\n"
                               "update x1 = 5e-324*x1[-3] + 0.5*x2\n"
                               "update x2 = 1e300*x2[-64]\n",
    "duplicate_node": "node x1 domain [-1,1]\nnode x1 domain [-1,1]\nupdate x1 = 0.5*x1\n",
    # node ids that no rule can read
    "minus_in_id": "node x domain [-1,1]\nnode y domain [-1,1]\nnode x-y domain [-1,1]\n"
                   "update x = 0.5*x-y\nupdate y = 0.5*y\nupdate x-y = 0.5*x\n",
    "digit_first_id": "node 1x domain [-1,1]\nupdate 1x = 0.5\n",
    "comma_in_id": "node a,b domain [-1,1]\nupdate a,b = 0.5\n",
}


@pytest.mark.parametrize("verb", ["analyze", "simulate", "sets", "dedelay"])
@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_inputs_end_in_a_result_or_an_error_line(in_tmp, capsys, case, verb):
    path = in_tmp / f"{case}.net"
    path.write_text(f"network {case}\n{HOSTILE[case]}")
    flags = ["--trials", "3", "--steps", "20"] if verb == "simulate" else []
    code = run([verb, str(path), *flags])
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["minus_in_id", "digit_first_id", "comma_in_id"])
def test_node_ids_outside_the_grammar_are_domain_errors(in_tmp, capsys, case):
    path = in_tmp / f"{case}.net"
    path.write_text(HOSTILE[case])
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: node id ") and err.count("\n") == 1


def test_simulate_csv_start_window_lies_in_box(in_tmp):
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    path = _write(in_tmp, "pair.net", net)
    assert run([
        "simulate", str(path), "--trials", "2", "--steps", "5", "--box", "0.25,0.5",
    ]) == 0
    rows = (in_tmp / "pair.trajectory.csv").read_text().splitlines()[1:]
    window = [[float(v) for v in row.split(",")[1:]] for row in rows[: net.T]]
    assert [row.split(",")[0] for row in rows[: net.T]] == ["-3", "-2", "-1", "0"]
    assert all(0.25 <= v <= 0.5 for snapshot in window for v in snapshot)


_SQUARE = build_network([("x1", Interval(-2, 2))], [("x1", "x1*x1")])
_TURN = build_network(
    [("x1", Interval.whole()), ("x2", Interval.whole())],
    [("x1", "0.99*x2[-1]"), ("x2", "-0.99*x1")],
)

# (network, trials, steps, seed, box): the CSV is trial 0 of the batch
SIMULATE_CASES = {
    # trial 0 stops early (every trial does) and runs on alone
    "contracting": (build_benchmark_network(12), 6, 600, 4, None),
    # no trial stops: trial 0 runs all steps in the batch
    "not_contracting": (_TURN, 4, 300, 1, None),
    # |x| > 1 at the start of trial 0 (x = -1.66)
    "trial_0_diverges": (_SQUARE, 6, 200, 3, None),
    # trial 0 (x = -0.95) outlives trials that diverge or stop before it
    "others_go_first": (_SQUARE, 6, 200, 2, None),
    "undelayed": (gallery.undelayed_pair(0.5, 0.1, 1.0), 5, 300, 7, None),
    "box": (gallery.delayed_pair(0.5, 0.1, 1.0), 5, 300, 9, (-0.5, 0.5)),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_csv_is_the_orbit_of_trial_zero(in_tmp, monkeypatch, case):
    net, trials, steps, seed, box = SIMULATE_CASES[case]
    path = _write(in_tmp, "net.net", net)
    net = load_network(path.read_text())
    argv = ["simulate", str(path), "--trials", str(trials), "--steps", str(steps),
            "--seed", str(seed)]
    if box:
        argv.append(f"--box={box[0]},{box[1]}")
    batches = []
    orbit_batch = engine.run_orbit_batch

    def counted(*args, **kwargs):
        batches.append(args)
        return orbit_batch(*args, **kwargs)

    monkeypatch.setattr(engine, "run_orbit_batch", counted)
    assert run(argv) == 0
    monkeypatch.undo()

    sample_box = {node: box for node in net.nodes} if box else None
    lo, hi = sampling_box(net, sample_box)
    histories = np.random.default_rng(seed).uniform(lo, hi, (trials, net.T, net.size))
    want = iterate_orbit(net, histories[0], steps)
    assert (in_tmp / "net.trajectory.csv").read_text() == want.to_csv()
    verdict = verify_global_attraction(net, trials, steps, sample_box, 1e-8, seed)
    assert (in_tmp / "net.verdict.json").read_text() == verdict.to_json() + "\n"

    # each case runs the path it is named for
    done, diverged = engine.run_orbit_batch(
        engine.compile_network(net), histories, steps, stop_delta=1e-11
    )
    stopped_early = done[0] < steps and not diverged[0]
    # trial 0 runs on alone exactly when it stops early
    assert len(batches) == 1 + stopped_early
    assert (want.diverged_at is not None) == (case == "trial_0_diverges")
    if case == "contracting":
        assert stopped_early
    if case == "not_contracting":
        assert (done == steps).all()
    if case == "others_go_first":
        assert diverged[1:].any() and (done[1:][~diverged[1:]] < done[0]).any()
    if case == "undelayed":
        assert net.T == 1


def _one_rule_file(tmp_path: Path, rule: str) -> Path:
    path = tmp_path / "deep.net"
    path.write_text(f"network deep\nnode x1 domain [-1,1]\nupdate x1 = {rule}\n")
    return path


def test_long_sum_runs_through_analyze_and_simulate(in_tmp, capsys):
    n = 3000
    rule = " + ".join(f"{0.3 / n!r}*tanh(x1 - {i / n!r})" for i in range(n))
    path = _one_rule_file(in_tmp, rule)
    assert run(["analyze", str(path)]) == 0
    assert "verdict = stable" in capsys.readouterr().out
    assert run(["simulate", str(path), "--trials", "2", "--steps", "3"]) == 0


def test_deep_nesting_is_a_parse_error(in_tmp, capsys):
    path = _one_rule_file(in_tmp, "(" * 2000 + "0.5*x1" + ")" * 2000)
    for verb in ("analyze", "simulate"):
        assert run([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nesting deeper than" in err


@pytest.mark.parametrize("divisor", ["0.0", "(1.0 - 1.0)", "(x2 - x2)"])
def test_division_by_a_literal_zero_is_rejected(in_tmp, capsys, divisor):
    # the map is undefined everywhere: neither verb may certify or iterate it
    path = in_tmp / "zero.net"
    path.write_text(
        "node x1 domain [-1,1]\nnode x2 domain [-1,1]\n"
        f"update x1 = 0.5*tanh(x2) + 1.0 / {divisor}\nupdate x2 = 0.5*x1\n"
    )
    for verb in ("analyze", "simulate"):
        assert run([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'x1'" in err and "division by zero" in err


@pytest.mark.parametrize("rule", [
    "x1 + 1e200*1e200",
    "0.5*x1 + (1e308 + 1e308)",
    "0.5*x1 + 1e308/1e-10",
    "tanh(1e400)",
    "1e200*(1e200*x1 + 1.0)",  # loads; its partial folds out of range
])
def test_constants_out_of_the_float_range_are_errors(in_tmp, capsys, rule):
    path = _one_rule_file(in_tmp, rule)
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "float range" in err or "overflow" in err


@pytest.mark.parametrize("rule, message", [
    # the gradient walk folds 1e200*1e200
    ("1e200*(1e200*x1 + 1.0)",
     "differentiating the update of x1: a constant folds to inf, out of the float range"),
    # exp(799) overflows at the low end of the partial's enclosure, so the
    # enclosure is [max float, inf]
    ("1e-300*exp(x1 + 800.0)",
     "|d(x1)/d(x1)| is unbounded over the domain box (term: 1e-300 * exp(x1 + 800.0))"),
])
def test_overflow_errors_name_the_rule_they_arose_in(in_tmp, capsys, rule, message):
    path = _one_rule_file(in_tmp, rule)
    assert run(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_regression_verb_passes(in_tmp, capsys):
    assert run(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_bundled_network_files_parse():
    for path in NETWORKS.glob("*.net"):
        net = load_network(path.read_text())
        assert net.size >= 1
