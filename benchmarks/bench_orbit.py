"""Benchmark the orbit interpreter on a delayed ring.

Usage: python benchmarks/bench_orbit.py [--trials N] [--steps K] [--nodes M]

Prints the best of three wall times for one batch of trials, and the
share of trials that stayed finite.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from netstab import engine
from netstab.network import make_cohen_grossberg


def build_benchmark_network(nodes: int):
    """Delayed ring with leak: every node reads both neighbors through
    tanh at heterogeneous delays."""
    rng = np.random.default_rng(12345)
    W = np.zeros((nodes, nodes))
    delays = np.zeros((nodes, nodes), dtype=int)
    for j in range(nodes):
        for i in ((j - 1) % nodes, (j + 1) % nodes):
            W[i, j] = rng.uniform(0.05, 0.25)
            delays[i, j] = int(rng.integers(0, 4))
    return make_cohen_grossberg(
        W, 0.5, b=1.0, c=rng.uniform(-0.2, 0.2, nodes),
        delays=delays, self_delays=np.ones(nodes, dtype=int),
        name="bench_ring",
    )


def time_batch(program, histories, steps, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, _, diverged = engine.run_orbit_batch(program, histories, steps)
        best = min(best, time.perf_counter() - t0)
    return best, diverged


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--nodes", type=int, default=12)
    args = parser.parse_args()

    net = build_benchmark_network(args.nodes)
    program = engine.compile_network(net)
    rng = np.random.default_rng(0)
    histories = rng.uniform(-1, 1, (args.trials, net.T, net.size))

    print(f"network: {net.size} nodes, T = {net.T}, "
          f"{program.ops.shape[0]} instructions per step")
    print(f"workload: {args.trials} trials x {args.steps} steps")

    best, diverged = time_batch(program, histories, args.steps)
    print(f"batch: {best * 1e3:9.2f} ms "
          f"({best / (args.trials * args.steps) * 1e6:.2f} us per trial-step)")
    print(f"finite trials: {args.trials - int(diverged.sum())}/{args.trials}")


if __name__ == "__main__":
    main()
