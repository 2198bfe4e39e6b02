"""Benchmark the expression, restriction, spectral, structural and orbit layers.

Usage: python benchmarks/bench_layers.py [-o OUT.json] [--repeats N] [--layers 10,12,14]

The load layer reads four network files as every verb starts: two
13-node ``tests/gen.py`` random networks, dumped (the shape of the
``structural_search`` workload's files), a 16-node ring with neighbour
delays up to 16 (``perfbench``'s ``ring_spec``, the shape of
``delayed_certify``'s) and the unrestricted k = 10 diamond.  It records
the best of ``--repeats`` wall times in ms of ``load_network``
(``load_ms``) and, apart, of parsing every rule (``parse_ms``),
normalizing the parsed rules (``normalize_ms``) and finding what each
rule reads (``reads_ms``, ``TimeDelayedNetwork.reads``), with the
characters of the rules and the distinct nodes loaded.  Each timed call
drops what it built, so every file is loaded onto no live node of its own.

A k-layer diamond chain s -> (a1, b1) -> ... -> (ak, bk) -> s (the
construction of the ``restrict_diamond`` benchmark workload) has 2^k
branches through 2k + 1 nodes.  For each k this restricts it onto {s},
prints the result, loads it back and analyzes it, as ``netstab restrict``
followed by ``netstab analyze`` would, and records per step the best of
``--repeats`` wall times in ms (``total_ms`` sums restrict, dump, load
and analyze), plus the sizes that drive them: characters of the printed
rule, distinct expression nodes of the parsed rule and characters of the
report's derivative provenance (its entries and the texts of the shared
subexpressions they name).  ``report_json_ms`` times
``StabilityReport.to_json`` and ``report_chars`` counts what it writes,
as ``netstab analyze -o`` would.  The load is also
split into its two layers: ``parse_ms`` parses the printed rules and
``normalize_ms`` normalizes the parsed ones.  ``peak_rss_mb`` is the
process's peak resident set (``resource.getrusage``) once that k is done;
layers run in increasing k, so it is the peak of the largest k so far.
The ``live_nodes`` row counts the expression nodes alive in the process
(``gc.get_objects``, after a full collection) before one more round of
the largest k (restrict, print, load back, analyze both), while its
networks and reports are held, and after they are released: nodes are
hash-consed, so the held count is the distinct structures of the round
and the released count must return to the first.
The ``expand`` row times ``expand`` onto {s} of the k = 10 diamond, which
inlines once per branch and adds a delay chain per branch, and records its
coordinates (state dimension) and the distinct nodes of its update of s.
The ``expand_analyze`` rows analyze ``expand`` onto {s} of the k = 8 and
k = 10 diamonds, whose rules of s read 256 and 1,024 coordinates:
``partials_ms`` times the symbolic partials of every entry
(``stability._partials``, one derivative walk per rule),
``provenance_ms`` their texts and shared names (``stability._provenance``
alone), ``analyze_ms`` the whole ``analyze``; ``entries`` counts the
matrix entries and ``report_chars`` what ``StabilityReport.to_json``
writes.

The spectral layer assembles the stability matrix of seven rings
(``tests/gen.py``'s ``rescaled_ring``: the weights of the orbit layer's
ring with neighbour delays 0..D and self delay 1, scaled so that
rho = 1 - 1e-10)
and brackets its spectral radius, as ``netstab analyze`` does: n = 50,
D <= 32; n = 100, D <= 16; n = 200, D <= 8, each over a thousand lag
coordinates; n = 400, D = 0, where half the coordinates are the self
delay lines; that ring undelayed, where no row holds a single entry, so
nothing folds into lag blocks; and the two rings where the dense matrix
used to cost the most, n = 200, D <= 64 (8793 coordinates) and n = 1000,
D <= 8 (6451 coordinates, 1000 of them kept).  It also brackets three
1000-vertex components of ``tests/gen.py``'s ``chained_component``
(rng 1), whose kept block holds 25, 50 and 90 % of the vertices and whose
other vertices are delay chains spliced into its edges, and a
32,000-vertex chain where each vertex reads itself and its predecessor
(``chain_components``), so every vertex is a component of its own.
It records the best of ``--repeats`` wall times in ms, the dimension, the
nonzero entries, the vertices the lag-block reduction keeps (those whose
row does not hold exactly one entry), the certified bracket, whether
it reads ``stable`` (rings) and the process's peak resident set so far.
For a ring the times are ``assemble_ms`` (``stability_matrix``: the
partials and their bounds, no provenance text), ``analyze_ms`` (the
whole ``analyze``: assembly, provenance and bracket) and ``bracket_ms``.

The structural layer searches seven interaction graphs for their first
16 complete structural sets, as ``netstab sets`` does: those of
``tests/gen.py``'s random networks at 16, 24 and 40 nodes (rng seeded
with the node count), where most vertices read themselves and are forced
into every set, loop-free graphs of 20, 32 and 36 vertices where every
vertex reads two others (``loop_free_graph``, rng 0), where almost none
is, so the search runs through hundreds of thousands of candidates, and
the k = 10 diamond (rng 10), whose sets each have up to 2^10 branches.
It records the best of ``--repeats`` wall times in ms, the sets found,
the smallest set's size and ``report_chars``, what ``netstab sets -o``
writes for them.

The orbit layer runs the 48-node delayed ring of ``tests/gen.py``'s
``build_benchmark_network`` (the contracting ring of the
``attraction_sim`` workload) six ways, as ``netstab simulate`` and
``find_fixed_point`` do: ``verify_global_attraction`` with 200 trials of
up to 600 steps at the default tolerance; the same check allowed 20,000
steps (``long``: its trials stop at the same steps, so it holds and does
no more than the first); the 600-step batch through ``run_orbit_batch``
keeping no state; one 600-step trajectory recorded into a path, as
``iterate_orbit`` records it; the fixed-point iteration
from the origin; and ``netstab simulate`` itself, end to end on that ring
written to a temporary directory (200 trials, 600 steps, seed 0: load,
the attraction check, its verdict and the trajectory CSV).  The ``slow`` row runs ``verify_global_attraction``
with 20 trials of 1,000 steps on a non-contracting 12-node ring
(``perfbench``'s ``ring_spec`` with epsilon = 0.05, rng 12), the shape of
the ``attraction_sim`` workload's slow job, where every trial runs every
step.  Each records the best of ``--repeats`` wall times in ms, the
trial steps it ran (for the attraction checks also the steps of the
slowest trial; for ``simulate`` the characters of its CSV), ``peak_mb``,
the peak of the memory ``tracemalloc`` traces during one more call, and
the operands of one step of its ring's bound tape: ``gathers`` copied
into scratch blocks, ``views`` read in place, and of those ``strided``,
the ones not contiguous (a constant step or one row repeated).

The write layer times the writers of the output files, as ``netstab
sets -o``, ``analyze`` and ``simulate`` run them, and records the best of
``--repeats`` wall times in ms, the characters written and ``peak_mb``
of one more call: the ``sets -o`` text of the first 16 sets of the k = 10
diamond and of the 40-node random network (``sets_diamond10``,
``sets_random40``), ``StabilityReport.to_json`` of the expanded k = 10
diamond (``report_expand10``) and ``Trajectory.to_csv`` of the 48-node
ring's 600-step orbit from the orbit layer's first start window
(``csv_orbit48``), a contracting orbit whose later rows repeat values.

Prints one JSON document and writes it to ``-o`` when given.
``BENCH_layers.json`` keeps these documents as a history: one entry of
``pairs`` per change measured, oldest first, each keyed by its parent and
change commits and holding the ``before`` and ``after`` runs, both taken
with the same ``bench_layers.py``.  A new measurement appends a pair.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from netstab import cli, engine
from netstab.delays import state_indices, undelay
from netstab.expr import Expr, normalize, parse_expression
from netstab.network import (REPORT_SCHEMA, TimeDelayedNetwork, dump_network, interaction_graph,
                             load_network, report_json)
from netstab.sim import find_fixed_point, iterate_orbit, verify_global_attraction
from netstab.spectral import NonnegMatrix, spectral_bracket
from netstab.stability import _bounded, _partials, _provenance, analyze, stability_matrix
from netstab.structural import find_structural_sets
from netstab.transform import expand, restrict

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
from gen import (  # noqa: E402
    build_benchmark_network,
    chained_component,
    loop_free_graph,
    random_network,
    rescaled_ring,
)
from workloads import diamond_spec, diamond_text, ring_spec, ring_text  # noqa: E402

# the diamond expand is timed on: 2^10 branches, each with its own chain
EXPAND_LAYERS = 10
# the expanded diamonds analyze is timed on: s reads 2^k coordinates
EXPAND_ANALYZE_LAYERS = (8, 10)

# (nodes, largest neighbour delay, undelayed): the rings where the spectral
# layer's cost used to jump, a ring whose reduction keeps half of it, and
# that ring with nothing to fold
SPECTRAL_RINGS = (
    (50, 32, False), (100, 16, False), (200, 8, False), (400, 0, False), (400, 0, True),
    (200, 64, False), (1000, 8, False),
)
# the share of vertices in the kept block of each chained component
CHAINED_KEPT = (0.25, 0.5, 0.9)
# vertices of the chain whose every vertex is a one-vertex component
CHAIN_COMPONENTS = 32_000
# the steps the orbit layer's long attraction check allows
LONG_STEPS = 20_000


def distinct_nodes(*roots) -> int:
    """Expression nodes reachable from ``roots``, each counted once by identity."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        stack += [getattr(cur, f) for f in ("arg", "left", "right") if hasattr(cur, f)]
    return len(seen)


def best_of(repeats: int, fn):
    """(best wall time in ms, result of the last call)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def traced_peak_mb(fn) -> float:
    """Peak of the memory tracemalloc traces during one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
    finally:
        tracemalloc.stop()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_diamond(k: int, repeats: int) -> dict:
    spec = diamond_spec(np.random.default_rng(k), k)
    net = load_network(diamond_text(spec, "diamond"))
    restrict_ms, restricted = best_of(repeats, lambda: restrict(net, ["s"]))
    dump_ms, text = best_of(repeats, lambda: dump_network(restricted))
    load_ms, loaded = best_of(repeats, lambda: load_network(text))
    rules = [line.split("=", 1)[1].strip() for line in text.splitlines()
             if line.startswith("update ")]
    declared = set(restricted.nodes)
    parse_ms, parsed = best_of(
        repeats, lambda: [parse_expression(rule, declared) for rule in rules])
    normalize_ms, _ = best_of(repeats, lambda: [normalize(e) for e in parsed])
    analyze_ms, report = best_of(repeats, lambda: analyze(loaded))
    report_json_ms, report_text = best_of(repeats, report.to_json)
    provenance = [*report.provenance, *report.shared.values()]
    return {
        "layers": k,
        "restrict_ms": round(restrict_ms, 2),
        "dump_ms": round(dump_ms, 2),
        "load_ms": round(load_ms, 2),
        "parse_ms": round(parse_ms, 2),
        "normalize_ms": round(normalize_ms, 2),
        "analyze_ms": round(analyze_ms, 2),
        "report_json_ms": round(report_json_ms, 2),
        "total_ms": round(restrict_ms + dump_ms + load_ms + analyze_ms, 2),
        "rule_chars": len(text.splitlines()[-1]),
        "distinct_nodes": distinct_nodes(loaded.updates["s"]),
        "provenance_chars": sum(len(v) for v in provenance),
        "report_chars": len(report_text),
        "rho": report.rho,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def live_nodes() -> int:
    """Expression nodes alive in the process, after a full collection."""
    gc.collect()
    return sum(isinstance(o, Expr) for o in gc.get_objects())


def bench_live_nodes(k: int) -> dict:
    before = live_nodes()
    net = load_network(diamond_text(diamond_spec(np.random.default_rng(k), k), "diamond"))
    restricted = restrict(net, ["s"])
    loaded = load_network(dump_network(restricted))
    reports = analyze(restricted), analyze(loaded)
    held = live_nodes()
    del net, restricted, loaded, reports
    return {"layers": k, "before": before, "held": held, "released": live_nodes()}


def bench_load(repeats: int) -> list[dict]:
    """``load_network`` and its layers on the files of three workloads."""
    rng = np.random.default_rng(13)
    cases = [(f"random13_{i}", dump_network(random_network(rng, 13))) for i in (1, 2)]
    cases.append(("ring16_d16", ring_text(ring_spec(np.random.default_rng(16), 16, 16), "ring")))
    cases.append((f"diamond{EXPAND_LAYERS}", diamond_text(
        diamond_spec(np.random.default_rng(EXPAND_LAYERS), EXPAND_LAYERS), "diamond")))
    rows = []
    for name, text in cases:
        rules = [line.split("=", 1)[1].strip() for line in text.splitlines()
                 if line.startswith("update ")]
        declared = frozenset(line.split()[1] for line in text.splitlines()
                             if line.startswith("node "))
        # every timed call drops what it built, so no node of the file is
        # alive when the next one starts, as in a run that loads it once
        load_ms, _ = best_of(repeats, lambda: load_network(text) and None)
        parse_ms, _ = best_of(repeats, lambda: [parse_expression(r, declared) for r in rules] and None)
        parsed = [parse_expression(r, declared) for r in rules]
        normalize_ms, _ = best_of(repeats, lambda: [normalize(e) for e in parsed] and None)
        net = load_network(text)
        reads_ms, _ = best_of(
            repeats, lambda: TimeDelayedNetwork(net.nodes, net.domains, net.updates).reads and None)
        rows.append({
            "network": name,
            "nodes": net.size,
            "T": net.T,
            "rule_chars": sum(map(len, rules)),
            "distinct_nodes": distinct_nodes(*net.updates.values()),
            "load_ms": round(load_ms, 3),
            "parse_ms": round(parse_ms, 3),
            "normalize_ms": round(normalize_ms, 3),
            "reads_ms": round(reads_ms, 3),
        })
        del parsed, net
    return rows


def bench_expand(k: int, repeats: int) -> dict:
    net = load_network(diamond_text(diamond_spec(np.random.default_rng(k), k), "diamond"))
    ms, aug = best_of(repeats, lambda: expand(net, ["s"]))
    return {
        "layers": k,
        "ms": round(ms, 2),
        "coords": len(aug.coords),
        "distinct_nodes": distinct_nodes(aug.net.updates["s"]),
    }


def bench_expand_analyze(k: int, repeats: int) -> dict:
    net = load_network(diamond_text(diamond_spec(np.random.default_rng(k), k), "diamond"))
    aug = expand(net, ["s"]).net
    indices = state_indices(aug)
    partials_ms, _ = best_of(repeats, lambda: list(_partials(aug, indices)))
    _, partials = _bounded(aug)
    provenance_ms, _ = best_of(repeats, lambda: _provenance(aug, partials))
    analyze_ms, report = best_of(repeats, lambda: analyze(aug))
    return {
        "layers": k,
        "coords": aug.size,
        "reads_of_s": len(aug.reads["s"]),
        "entries": len(report.provenance),
        "partials_ms": round(partials_ms, 2),
        "provenance_ms": round(provenance_ms, 2),
        "analyze_ms": round(analyze_ms, 2),
        "report_chars": len(report.to_json()),
        "rho": report.rho,
    }


def spectral_row(matrix, repeats: int) -> dict:
    bracket_ms, (lower, upper) = best_of(repeats, lambda: spectral_bracket(matrix))
    per_row = np.bincount(matrix.rows, minlength=matrix.n)
    return {
        "dim": matrix.n,
        "nnz": int(per_row.sum()),
        "kept": int(np.sum(per_row != 1)),
        "bracket_ms": round(bracket_ms, 2),
        "rho_lower": lower,
        "rho_upper": upper,
    }


def bench_spectral(repeats: int) -> list[dict]:
    rows = []
    for nodes, max_delay, undelayed in SPECTRAL_RINGS:
        net = rescaled_ring(nodes, max_delay, -1e-10)
        if undelayed:
            net = undelay(net)
        assemble_ms, matrix = best_of(repeats, lambda: stability_matrix(net))
        analyze_ms, _ = best_of(repeats, lambda: analyze(net))
        row = spectral_row(matrix, repeats)
        rows.append({
            "nodes": nodes,
            "max_delay": max_delay,
            "undelayed": undelayed,
            "assemble_ms": round(assemble_ms, 2),
            "analyze_ms": round(analyze_ms, 2),
            **row,
            "stable": row["rho_upper"] < 1.0,
            "peak_rss_mb": round(peak_rss_mb(), 1),
        })
    for share in CHAINED_KEPT:
        dense = chained_component(np.random.default_rng(1), 1000, share)
        at = np.nonzero(dense)
        matrix = NonnegMatrix(map(str, range(len(dense))), *at, dense[at])
        del dense
        rows.append({"chained_kept": share, **spectral_row(matrix, repeats),
                     "peak_rss_mb": round(peak_rss_mb(), 1)})
    n = CHAIN_COMPONENTS
    matrix = NonnegMatrix(map(str, range(n)), np.r_[:n, 1:n], np.r_[:n, :n - 1],
                          np.r_[np.full(n, 0.5), np.full(n - 1, 0.25)])
    rows.append({"chain_components": n, **spectral_row(matrix, repeats),
                 "peak_rss_mb": round(peak_rss_mb(), 1)})
    return rows


def sets_text(reports) -> str:
    """What ``netstab sets -o`` writes for ``reports``, less its newline."""
    return report_json({"schema": REPORT_SCHEMA, "sets": [rep.to_json_dict() for rep in reports]})


def bench_structural(repeats: int) -> list[dict]:
    graphs = [(f"random{n}", interaction_graph(random_network(np.random.default_rng(n), n)))
              for n in (16, 24, 40)]
    graphs += [(f"loop_free{n}", loop_free_graph(np.random.default_rng(0), n))
               for n in (20, 32, 36)]
    diamond = diamond_text(diamond_spec(np.random.default_rng(10), 10), "diamond")
    graphs.append(("diamond10", interaction_graph(load_network(diamond))))
    rows = []
    for label, graph in graphs:
        ms, reports = best_of(repeats, lambda: find_structural_sets(graph))
        rows.append({
            "graph": label,
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "ms": round(ms, 2),
            "sets_found": len(reports),
            "min_set": min(len(rep.S) for rep in reports) if reports else None,
            "report_chars": len(sets_text(reports)),
            "peak_rss_mb": round(peak_rss_mb(), 1),
        })
    return rows


def tape_operands(program) -> dict:
    """The operands of one step of ``program``'s bound tape: gathered
    into scratch blocks, or views, and the views not contiguous."""
    tape = engine._bind(engine._plan(program, 1), engine._registers(program, 1))[0]
    gathers = views = strided = 0
    for _, operands, gathered, out in tape:
        blocks = [id(block) for _, block in gathered]
        for op in operands:
            if id(op) in blocks:
                gathers += 1
            else:
                views += 1
                strided += not op.flags.c_contiguous or op.shape != out.shape
    return {"gathers": gathers, "views": views, "strided": strided}


def bench_orbit(repeats: int) -> list[dict]:
    net = build_benchmark_network(48)
    program = engine.compile_network(net)
    slow = load_network(ring_text(ring_spec(np.random.default_rng(12), 12, 3, epsilon=0.05),
                                  "slow_ring"))
    histories = np.random.default_rng(0).uniform(-1, 1, (200, net.T, net.size))
    trials, steps = histories.shape[0], 600

    def attraction():
        return verify_global_attraction(net, trials=trials, steps=steps)

    def long_attraction():
        return verify_global_attraction(net, trials=trials, steps=LONG_STEPS)

    def batch():
        # verify_global_attraction's stop threshold at the default --tol 1e-8
        return engine.run_orbit_batch(program, histories, steps, stop_delta=1e-11)

    def single():
        path = np.empty((net.T + steps, net.size))
        return engine.run_orbit_batch(program, histories[:1], steps, path=path)

    def fixed():
        return find_fixed_point(net, np.zeros(net.size))

    def slow_attraction():
        return verify_global_attraction(slow, trials=20, steps=1000)

    attraction_ms, verdict = best_of(repeats, attraction)
    long_ms, long_verdict = best_of(repeats, long_attraction)
    batch_ms, (done, _) = best_of(repeats, batch)
    single_ms, (single_done, _) = best_of(repeats, single)
    fixed_ms, _ = best_of(repeats, fixed)
    slow_ms, slow_verdict = best_of(repeats, slow_attraction)
    ring = {"nodes": net.size, "T": net.T, "tape_ops": int(program.ops.shape[0]),
            **tape_operands(program)}
    slow_program = engine.compile_network(slow)
    slow_ring = {"nodes": slow.size, "T": slow.T, "tape_ops": int(slow_program.ops.shape[0]),
                 **tape_operands(slow_program)}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench_ring.net"
        path.write_text(dump_network(net))
        argv = ["simulate", str(path), "--trials", str(trials), "--steps", str(steps),
                "-o", str(Path(tmp) / "sim")]

        def simulate():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(argv)

        simulate_ms, _ = best_of(repeats, simulate)
        simulate_peak = traced_peak_mb(simulate)
        csv_chars = len((Path(tmp) / "sim.trajectory.csv").read_text())
    return [
        {"case": "attraction", **ring, "trials": trials, "steps": steps,
         "iterations_used": verdict.iterations_used, "trial_steps": verdict.trial_steps,
         "ms": round(attraction_ms, 2),
         "peak_mb": traced_peak_mb(attraction)},
        {"case": "long", **ring, "trials": trials, "steps": LONG_STEPS,
         "iterations_used": long_verdict.iterations_used,
         "trial_steps": long_verdict.trial_steps, "ms": round(long_ms, 2),
         "peak_mb": traced_peak_mb(long_attraction)},
        {"case": "batch", **ring, "trials": trials, "steps": steps,
         "trial_steps": int(done.sum()), "ms": round(batch_ms, 2),
         "peak_mb": traced_peak_mb(batch)},
        {"case": "single", **ring, "trials": 1, "steps": steps,
         "trial_steps": int(single_done[0]), "ms": round(single_ms, 2),
         "peak_mb": traced_peak_mb(single)},
        {"case": "fixed_point", **ring, "ms": round(fixed_ms, 2),
         "peak_mb": traced_peak_mb(fixed)},
        {"case": "simulate", **ring, "trials": trials, "steps": steps,
         "csv_chars": csv_chars, "ms": round(simulate_ms, 2), "peak_mb": simulate_peak},
        {"case": "slow", **slow_ring, "trials": 20, "steps": 1000,
         "iterations_used": slow_verdict.iterations_used,
         "trial_steps": slow_verdict.trial_steps, "ms": round(slow_ms, 2),
         "peak_mb": traced_peak_mb(slow_attraction)},
    ]


def bench_write(repeats: int) -> list[dict]:
    diamond = load_network(diamond_text(diamond_spec(np.random.default_rng(10), 10), "diamond"))
    writers = []
    for label, net in (("diamond10", diamond),
                       ("random40", random_network(np.random.default_rng(40), 40))):
        reports = find_structural_sets(interaction_graph(net))
        writers.append((f"sets_{label}", lambda reports=reports: sets_text(reports)))
    report = analyze(expand(diamond, ["s"]).net)
    writers.append((f"report_expand{EXPAND_LAYERS}", report.to_json))
    ring = build_benchmark_network(48)
    window = np.random.default_rng(0).uniform(-1, 1, (ring.T, ring.size))
    writers.append(("csv_orbit48", iterate_orbit(ring, window, 600).to_csv))
    rows = []
    for case, write in writers:
        ms, text = best_of(repeats, write)
        rows.append({"case": case, "ms": round(ms, 2), "chars": len(text),
                     "peak_mb": traced_peak_mb(write)})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=Path)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--layers", default="10,12,14")
    args = parser.parse_args()

    results = {
        "benchmark": "bench_layers",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": args.repeats,
        "load": bench_load(args.repeats),
        "diamond": [
            bench_diamond(int(k), args.repeats) for k in args.layers.split(",")
        ],
        "live_nodes": [bench_live_nodes(max(int(k) for k in args.layers.split(",")))],
        "expand": [bench_expand(EXPAND_LAYERS, args.repeats)],
        "expand_analyze": [bench_expand_analyze(k, args.repeats) for k in EXPAND_ANALYZE_LAYERS],
        "spectral": bench_spectral(args.repeats),
        "structural": bench_structural(args.repeats),
        "orbit": bench_orbit(args.repeats),
        "write": bench_write(args.repeats),
    }
    text = json.dumps(results, indent=2)
    print(text)
    if args.output:
        args.output.write_text(text + "\n")


if __name__ == "__main__":
    main()
