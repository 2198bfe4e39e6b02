"""Benchmark the expression, restriction and orbit layers.

Usage: python benchmarks/bench_layers.py [-o OUT.json] [--repeats N] [--layers 10,12,14]

A k-layer diamond chain s -> (a1, b1) -> ... -> (ak, bk) -> s (the
construction of the ``restrict_diamond`` benchmark workload) has 2^k
branches through 2k + 1 nodes.  For each k this restricts it onto {s},
prints the result, parses it back and analyzes it, as ``netstab restrict``
followed by ``netstab analyze`` would, and records per step the best of
``--repeats`` wall times in ms, plus the sizes that drive them: characters
of the printed rule, distinct expression nodes of the parsed rule and
characters of the report's derivative provenance.  ``peak_rss_mb`` is the
process's peak resident set (``resource.getrusage``) once that k is done;
layers run in increasing k, so it is the peak of the largest k so far.

The orbit layer runs the 48-node delayed ring of ``bench_orbit.py`` (the
contracting ring of the ``attraction_sim`` workload) three ways, as
``netstab simulate`` and ``find_fixed_point`` do: a batch of 200 trials
of up to 600 steps that stop early at the default tolerance, one
600-step trajectory, and the fixed-point iteration from the origin.  Each
records the best of ``--repeats`` wall times in ms and the trial steps
it ran.

Prints one JSON document and writes it to ``-o`` when given.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from bench_orbit import build_benchmark_network
from netstab import engine
from netstab.network import dump_network, load_network
from netstab.sim import find_fixed_point
from netstab.stability import analyze
from netstab.transform import restrict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import diamond_spec, diamond_text  # noqa: E402


def distinct_nodes(e) -> int:
    """Expression nodes reachable from ``e``, each counted once by identity."""
    seen: set[int] = set()
    stack = [e]
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


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_diamond(k: int, repeats: int) -> dict:
    spec = diamond_spec(np.random.default_rng(k), k)
    net = load_network(diamond_text(spec, "diamond"))
    restrict_ms, restricted = best_of(repeats, lambda: restrict(net, ["s"]))
    dump_ms, text = best_of(repeats, lambda: dump_network(restricted))
    load_ms, loaded = best_of(repeats, lambda: load_network(text))
    analyze_ms, report = best_of(repeats, lambda: analyze(loaded))
    return {
        "layers": k,
        "restrict_ms": round(restrict_ms, 2),
        "dump_ms": round(dump_ms, 2),
        "load_ms": round(load_ms, 2),
        "analyze_ms": round(analyze_ms, 2),
        "total_ms": round(restrict_ms + dump_ms + load_ms + analyze_ms, 2),
        "rule_chars": len(text.splitlines()[-1]),
        "distinct_nodes": distinct_nodes(loaded.updates["s"]),
        "provenance_chars": sum(len(v) for v in report.provenance.values()),
        "rho": report.rho,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def bench_orbit(repeats: int) -> list[dict]:
    net = build_benchmark_network(48)
    program = engine.compile_network(net)
    histories = np.random.default_rng(0).uniform(-1, 1, (200, net.T, net.size))
    steps = 600
    # verify_global_attraction's stop threshold at the default --tol 1e-8
    batch_ms, (_, done, _) = best_of(
        repeats, lambda: engine.run_orbit_batch(program, histories, steps, stop_delta=1e-11)
    )
    single_ms, (_, single_done, _) = best_of(
        repeats, lambda: engine.run_orbit(program, histories[0], steps)
    )
    fixed_ms, _ = best_of(repeats, lambda: find_fixed_point(net, np.zeros(net.size)))
    ring = {"nodes": net.size, "T": net.T, "tape_ops": int(program.ops.shape[0])}
    return [
        {"case": "batch", **ring, "trials": histories.shape[0], "steps": steps,
         "trial_steps": int(done.sum()), "ms": round(batch_ms, 2)},
        {"case": "single", **ring, "trials": 1, "steps": steps,
         "trial_steps": single_done, "ms": round(single_ms, 2)},
        {"case": "fixed_point", **ring, "ms": round(fixed_ms, 2)},
    ]


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
        "diamond": [
            bench_diamond(int(k), args.repeats) for k in args.layers.split(",")
        ],
        "orbit": bench_orbit(args.repeats),
    }
    text = json.dumps(results, indent=2)
    print(text)
    if args.output:
        args.output.write_text(text + "\n")


if __name__ == "__main__":
    main()
