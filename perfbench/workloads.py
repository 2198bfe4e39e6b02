"""Seeded inputs and job lists for the four benchmark workloads.

Everything here is plain numpy and text: the networks are written as
``.net`` files by this module, so the program under test only ever sees
the generated files, and the reference checks in ``refs.py`` can work
from the same parameters without importing netstab.

A workload is a list of rounds.  Round ``r`` of seed ``s`` draws its
inputs from ``numpy.random.default_rng([s, r, ...])``, so one seed always
gives the same inputs, and successive rounds of one run cover different
networks (which is what keeps a run's median steady across seeds even
where a single network's cost depends heavily on its draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("delayed_certify", "attraction_sim", "restrict_diamond", "structural_search")

# the seed under which the contracting attraction_sim ring of round 0 is
# exactly benchmarks/bench_orbit.py's 48-node ring (its rng is 12345)
DEFAULT_SEED = 12345

BOUNDED_FUNCS = ("tanh", "sin", "cos", "sech")


@dataclass
class Job:
    """One closed-loop request: a CLI verb (``argv``) or a library call.

    ``spec`` holds the generator parameters the reference checks need;
    ``outputs`` maps an output kind to the path the job writes.
    """

    id: str
    verb: str
    net_path: Path
    argv: list[str] | None
    outputs: dict[str, Path]
    spec: dict = field(default_factory=dict)


def _num(v: float) -> str:
    return repr(float(v))


def _read(node: str, delay: int) -> str:
    return node if delay == 0 else f"{node}[-{delay}]"


def _net_text(name: str, nodes: list[str], rules: dict[str, list[str]]) -> str:
    lines = [f"network {name}"]
    lines += [f"node {v} domain [-inf,inf]" for v in nodes]
    lines += [f"update {v} = {' + '.join(rules[v])}" for v in nodes]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# delayed Cohen-Grossberg rings (the construction of benchmarks/bench_orbit.py)


def ring_spec(rng, n: int, max_delay: int, epsilon: float = 0.5,
              wlo: float = 0.05, whi: float = 0.25) -> dict:
    """Ring where node j reads both neighbours through tanh at delays
    drawn from U{0..max_delay} and itself at delay 1, weighted
    ``1 - epsilon``.  Draw order follows bench_orbit.py."""
    W = np.zeros((n, n))
    delays = np.zeros((n, n), dtype=int)
    for j in range(n):
        for i in ((j - 1) % n, (j + 1) % n):
            W[i, j] = rng.uniform(wlo, whi)
            delays[i, j] = int(rng.integers(0, max_delay + 1))
    c = rng.uniform(-0.2, 0.2, n)
    return {"kind": "ring", "W": W, "delays": delays, "epsilon": epsilon,
            "self_delay": 1, "c": c}


def ring_edges(spec: dict):
    """(source, target, weight, delay) for every neighbour read."""
    W, delays = spec["W"], spec["delays"]
    src, tgt = np.nonzero(W)
    return src, tgt, W[src, tgt], delays[src, tgt]


def ring_text(spec: dict, name: str) -> str:
    n = spec["W"].shape[0]
    nodes = [f"x{j + 1}" for j in range(n)]
    leak = 1.0 - spec["epsilon"]
    rules: dict[str, list[str]] = {v: [] for v in nodes}
    for j, v in enumerate(nodes):
        rules[v].append(f"{_num(leak)}*{_read(v, spec['self_delay'])}")
    for i, j, w, d in zip(*ring_edges(spec)):
        rules[nodes[j]].append(f"{_num(w)}*tanh({_read(nodes[i], int(d))})")
    for j, v in enumerate(nodes):
        c = float(spec["c"][j])
        rules[v].append(_num(c) if c >= 0 else f"({_num(c)})")
    return _net_text(name, nodes, rules)


# ---------------------------------------------------------------------------
# diamond chains for restriction


def diamond_spec(rng, k: int) -> dict:
    """s -> (a1, b1) -> ... -> (ak, bk) -> s.  a_i reads layer i-1 with
    weights (p_i, q_i) and b_i with (q_i, p_i), p_i != q_i, so no two
    branches ever normalize into one term."""
    return {
        "kind": "diamond",
        "k": k,
        "into": rng.uniform(0.4, 0.9, 2),  # s -> a1, s -> b1
        "p": rng.uniform(0.2, 0.4, k - 1),
        "q": rng.uniform(0.5, 0.7, k - 1),
        "back": float(rng.uniform(0.4, 0.5)),  # ak -> s and bk -> s
    }


def diamond_nodes(k: int) -> list[str]:
    return ["s"] + [f"{c}{i}" for i in range(1, k + 1) for c in "ab"]


def diamond_edges(spec: dict):
    """(source, target, weight) for every read."""
    k = spec["k"]
    edges = [("s", "a1", spec["into"][0]), ("s", "b1", spec["into"][1])]
    for i in range(2, k + 1):
        p, q = spec["p"][i - 2], spec["q"][i - 2]
        edges += [(f"a{i - 1}", f"a{i}", p), (f"b{i - 1}", f"a{i}", q),
                  (f"a{i - 1}", f"b{i}", q), (f"b{i - 1}", f"b{i}", p)]
    edges += [(f"a{k}", "s", spec["back"]), (f"b{k}", "s", spec["back"])]
    return [(s, t, float(w)) for s, t, w in edges]


def diamond_text(spec: dict, name: str) -> str:
    nodes = diamond_nodes(spec["k"])
    rules: dict[str, list[str]] = {v: [] for v in nodes}
    for s, t, w in diamond_edges(spec):
        rules[t].append(f"{_num(w)}*tanh({s})")
    return _net_text(name, nodes, rules)


# ---------------------------------------------------------------------------
# random undelayed networks for the structural-set search (the vocabulary
# of tests/gen.py: optional leak plus 1-3 bounded terms per node)


def random_spec(rng, n: int, amplitude: float = 0.3) -> dict:
    nodes = [f"x{i + 1}" for i in range(n)]
    rules: dict[str, list[str]] = {}
    edges: set[tuple[str, str]] = set()
    for node in nodes:
        terms = []
        if rng.random() < 0.7:
            terms.append(f"{_num(rng.uniform(-0.6, 0.6))}*{node}")
            edges.add((node, node))
        for _ in range(int(rng.integers(1, 4))):
            src = nodes[int(rng.integers(0, n))]
            func = BOUNDED_FUNCS[int(rng.integers(0, len(BOUNDED_FUNCS)))]
            coeff = amplitude * rng.uniform(0.2, 1.0) * (1 if rng.random() < 0.5 else -1)
            inner = f"{_num(rng.uniform(0.3, 1.5))}*{src}"
            if rng.random() < 0.3:
                inner += f" + {_num(rng.uniform(0.0, 1.0))}"
            terms.append(f"({_num(coeff)})*{func}({inner})")
            edges.add((src, node))
        if rng.random() < 0.5:
            terms.append(_num(rng.uniform(0.0, 0.5)))
        rules[node] = terms
    return {"kind": "random", "nodes": nodes, "rules": rules, "edges": sorted(edges)}


def random_text(spec: dict, name: str) -> str:
    return _net_text(name, spec["nodes"], spec["rules"])


# ---------------------------------------------------------------------------
# rounds


def _rng(seed: int, r: int, slot: int):
    return np.random.default_rng([seed, r, slot])


# (n, max neighbour delay) of the stable rings in one delayed_certify round
CERTIFY_RINGS = ((12, 16), (12, 16), (16, 16), (16, 16))
# the ring whose weights U(0.3, 0.5) put rho above 1: verdict inconclusive
CERTIFY_HOT = (12, 16)

ATTRACT_STEPS = 600  # contracting ring: attraction stops by ~350, the CSV runs all
ATTRACT_TRIALS = 200
SLOW_STEPS = 1000  # non-contracting ring: every step runs
SLOW_TRIALS = 20

DIAMOND_LAYERS = 10
STRUCTURAL_SIZES = (13, 13)

# distinct rounds set-up writes: about 1.3 times what a 20 s run gets
# through on a 2-vCPU x86 VM, so a run (almost) never repeats a round and
# a faster program still finds fresh inputs
POOL_ROUNDS = {
    "delayed_certify": 48,
    "attraction_sim": 11,
    "restrict_diamond": 18,
    "structural_search": 66,
}


def build_round(workload: str, seed: int, r: int, root: Path) -> list[Job]:
    """Write round ``r``'s input files under ``root`` and return its jobs."""
    root.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def add(slot: str, verb: str, spec: dict, argv_tail, outputs, text=None, net_path=None):
        """A job on ``net_path``, or on a new file holding ``text``."""
        if net_path is None:
            net_path = root / f"r{r:02d}.{slot}.net"
            net_path.write_text(text)
        outs = {kind: root / f"r{r:02d}.{slot}.{suffix}" for kind, suffix in outputs.items()}
        argv = None if argv_tail is None else argv_tail(net_path, outs)
        job = Job(id=f"r{r:02d}.{slot}", verb=verb, net_path=net_path, argv=argv,
                  outputs=outs, spec=spec)
        jobs.append(job)
        return job

    def analyze(slot, spec, text=None, net_path=None):
        return add(slot, "analyze", spec,
                   lambda p, o: ["analyze", str(p), "-o", str(o["report"])],
                   {"report": "report.json"}, text, net_path)

    def simulate(slot, text, spec, trials, steps, sim_seed):
        spec = {**spec, "trials": trials, "steps": steps}
        return add(slot, "simulate", spec,
                   lambda p, o: ["simulate", str(p), "--trials", str(trials),
                                 "--steps", str(steps), "--seed", str(sim_seed),
                                 "-o", str(o["verdict"]).removesuffix(".verdict.json")],
                   {"verdict": "sim.verdict.json", "csv": "sim.trajectory.csv"}, text)

    if workload == "delayed_certify":
        for slot, (n, D) in enumerate(CERTIFY_RINGS):
            spec = ring_spec(_rng(seed, r, slot), n, D)
            analyze(f"ring{slot}", spec, ring_text(spec, f"ring_n{n}_D{D}"))
        n, D = CERTIFY_HOT
        spec = ring_spec(_rng(seed, r, 99), n, D, wlo=0.3, whi=0.5)
        analyze("hot", spec, ring_text(spec, f"hot_n{n}_D{D}"))

    elif workload == "attraction_sim":
        rng = np.random.default_rng(seed) if r == 0 else _rng(seed, r, 0)
        spec = ring_spec(rng, 48, 3)
        sim_seed = int(_rng(seed, r, 10).integers(0, 2**31))
        simulate("contracting", ring_text(spec, "bench_ring"), {**spec, "contracting": True},
                 ATTRACT_TRIALS, ATTRACT_STEPS, sim_seed)
        spec = ring_spec(_rng(seed, r, 1), 12, 3, epsilon=0.05)
        simulate("slow", ring_text(spec, "slow_ring"), spec, SLOW_TRIALS, SLOW_STEPS, sim_seed)
        rng = _rng(seed, r, 2)
        spec = ring_spec(rng, 24, 3, epsilon=0.1, wlo=0.01, whi=0.04)
        spec["guess"] = rng.uniform(-1.0, 1.0, 24)
        add("fixed", "fixed_point", spec, None, {}, ring_text(spec, "fixed_ring"))

    elif workload == "restrict_diamond":
        spec = diamond_spec(_rng(seed, r, 0), DIAMOND_LAYERS)
        job = add("diamond", "restrict", spec,
                  lambda p, o: ["restrict", str(p), "--set", "s", "-o", str(o["net"])],
                  {"net": "restricted.net"}, diamond_text(spec, "diamond"))
        analyze("restricted", {**spec, "kind": "diamond_restricted"},
                net_path=job.outputs["net"])
        analyze("direct", spec, net_path=job.net_path)

    elif workload == "structural_search":
        for slot, n in enumerate(STRUCTURAL_SIZES):
            spec = random_spec(_rng(seed, r, slot), n)
            add(f"graph{slot}", "sets", spec,
                lambda p, o: ["sets", str(p), "--basic", "-o", str(o["sets"])],
                {"sets": "sets.json"}, random_text(spec, f"random{n}"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
