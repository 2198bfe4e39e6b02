"""Traced replay: each job re-run as the public calls its verb makes.

Every call is wrapped in a span (name, start, end, parent) under one job
span.  Where a verb's public entry point hides a layer, that layer's own
public function is run once more on the same input as a span marked
``shadow`` (``load_network`` hides ``parse_expression`` and
``normalize``; ``analyze`` hides ``dedelay``, ``stability_matrix``,
``strongly_connected_components`` and ``spectral_radius``; the
simulators hide ``compile_network``).  Shadow spans are excluded when the
tracing overhead is computed.  Spans inside netstab itself are not
recorded.

Span names are the per-layer metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from netstab import expr
from netstab.delays import dedelay
from netstab.engine import compile_network
from netstab.network import dump_network, interaction_graph, load_network
from netstab.sim import find_fixed_point, iterate_orbit, verify_global_attraction
from netstab.spectral import spectral_radius, strongly_connected_components
from netstab.stability import analyze, stability_matrix
from netstab.structural import find_structural_sets
from netstab.transform import restrict
from refs import sha256

# per-layer metrics that are the summed self time of one span name
TIMED_LAYERS = (
    "spectral.radius", "spectral.scc", "cli.report_json", "delays.dedelay",
    "stability.assemble", "stability.analyze", "network.load", "expr.parse",
    "expr.normalize", "network.dump", "transform.restrict", "structural.search",
    "structural.graph", "engine.compile", "sim.orbit", "sim.attraction",
    "sim.fixed_point", "cli.csv",
)
# per-layer counts: metric -> (span name, span attribute, how a round's
# spans combine)
COUNTS = {
    "spectral.dim": ("stability.assemble", "dim", sum),
    "spectral.scc_max": ("spectral.scc", "scc_max", max),
    "cli.report_mb": ("cli.report_json", "mb", sum),
    "delays.coords": ("delays.dedelay", "coords", sum),
    "stability.entries": ("stability.assemble", "entries", sum),
    "network.rule_chars": ("network.load", "rule_chars", sum),
    "structural.sets_found": ("structural.search", "sets", sum),
    "structural.min_set": ("structural.search", "min_set", max),
    "engine.tape_ops": ("engine.compile", "tape_ops", sum),
    "sim.orbit_steps": ("sim.orbit", "steps", sum),
    "sim.attraction_trial_steps": ("sim.attraction", "trial_steps", sum),
    "cli.csv_mb": ("cli.csv", "mb", sum),
}


class Tracer:
    """Spans kept in memory; ``write`` dumps them as JSON lines."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, shadow: bool = False, **attrs):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "shadow": shadow, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load(tr: Tracer, job):
    with tr.span("cli.read"):
        text = job.net_path.read_text()
    with tr.span("network.load") as a:
        net = load_network(text, name_hint=job.net_path.stem)
    rules = [ln.split("=", 1)[1].strip() for ln in text.splitlines() if ln.startswith("update")]
    a["rule_chars"] = sum(len(rule) for rule in rules)
    declared = set(net.nodes)
    with tr.span("expr.parse", shadow=True):
        parsed = [expr.parse_expression(rule, declared) for rule in rules]
    with tr.span("expr.normalize", shadow=True):
        for e in parsed:
            expr.normalize(e)
    return net


def _analyze(tr: Tracer, job, expected: dict) -> list[str]:
    net = _load(tr, job)
    with tr.span("stability.analyze"):
        report = analyze(net)
    work = net
    if net.T > 1:
        with tr.span("delays.dedelay", shadow=True) as a:
            aug = dedelay(net)
            a["coords"] = len(aug.coords) - net.size
        work = aug.net
    with tr.span("stability.assemble", shadow=True) as a:
        matrix = stability_matrix(work)
    a["dim"] = matrix.n
    a["entries"] = int((matrix.data > 0).sum())
    with tr.span("spectral.scc", shadow=True) as a:
        comps = strongly_connected_components(matrix)
    a["scc_max"] = max(len(c.indices) for c in comps)
    with tr.span("spectral.radius", shadow=True):
        rho = spectral_radius(matrix)
    with tr.span("cli.report_json") as a:
        text = report.to_json() + "\n"
        a["mb"] = len(text) / 1e6
    with tr.span("cli.write"):
        job.outputs["report"].write_text(text)
    errors = []
    if rho != report.rho:
        errors.append(f"shadow spectral_radius {rho!r} != analyze rho {report.rho!r}")
    if (report.rho, report.verdict) != (expected["rho"], expected["verdict"]):
        errors.append("replayed rho/verdict differ from the untraced run")
    if sha256(text) != expected["digests"]["report"]:
        errors.append("replayed report differs from the untraced run")
    return errors


def _restrict(tr: Tracer, job, expected: dict) -> list[str]:
    net = _load(tr, job)
    S = tuple(job.argv[job.argv.index("--set") + 1].split(","))
    with tr.span("transform.restrict"):
        restricted = restrict(net, S)
    with tr.span("network.dump"):
        text = dump_network(restricted)
    with tr.span("cli.write"):
        job.outputs["net"].write_text(text)
    if sha256(text) != expected["digests"]["net"]:
        return ["replayed restricted text differs from the untraced run"]
    return []


def _sets(tr: Tracer, job, expected: dict) -> list[str]:
    net = _load(tr, job)
    with tr.span("structural.graph"):
        graph = interaction_graph(net)
    with tr.span("structural.search") as a:
        reports = find_structural_sets(graph, want_basic=False)
        a["sets"] = len(reports)
        a["min_set"] = min((len(r.S) for r in reports), default=0)
    with tr.span("cli.sets_json"):
        rows = [r.to_json_dict() for r in reports]
    if rows != expected["rows"]:
        return ["replayed structural sets differ from the untraced run"]
    return []


def _simulate(tr: Tracer, job, expected: dict) -> list[str]:
    spec = job.spec
    argv = job.argv
    seed = int(argv[argv.index("--seed") + 1])
    net = _load(tr, job)
    with tr.span("engine.compile", shadow=True) as a:
        a["tape_ops"] = int(compile_network(net).ops.shape[0])
    with tr.span("sim.attraction") as a:
        verdict = verify_global_attraction(net, trials=spec["trials"], steps=spec["steps"],
                                           seed=seed)
        a["trial_steps"] = verdict.trials * verdict.iterations_used
    with tr.span("cli.verdict_json"):
        verdict_text = verdict.to_json() + "\n"
        job.outputs["verdict"].write_text(verdict_text)
    # the CLI draws the start window itself; replay it from the window
    # the untraced run wrote as its trajectory's first T rows
    with tr.span("sim.orbit") as a:
        traj = iterate_orbit(net, expected["window"], spec["steps"])
        a["steps"] = traj.steps
    with tr.span("cli.csv") as a:
        csv_text = traj.to_csv()
        a["mb"] = len(csv_text) / 1e6
    with tr.span("cli.write"):
        job.outputs["csv"].write_text(csv_text)
    errors = []
    if sha256(verdict_text) != expected["digests"]["verdict"]:
        errors.append("replayed attraction verdict differs from the untraced run")
    if sha256(csv_text) != expected["digests"]["csv"]:
        errors.append("replayed trajectory differs from the untraced run")
    return errors


def _fixed_point(tr: Tracer, job, expected: dict) -> list[str]:
    net = _load(tr, job)
    with tr.span("engine.compile", shadow=True) as a:
        a["tape_ops"] = int(compile_network(net).ops.shape[0])
    with tr.span("sim.fixed_point"):
        x = find_fixed_point(net, job.spec["guess"])
    if [float(v) for v in x] != expected["x"]:
        return ["replayed fixed point differs from the untraced run"]
    return []


REPLAY = {
    "analyze": _analyze,
    "restrict": _restrict,
    "sets": _sets,
    "simulate": _simulate,
    "fixed_point": _fixed_point,
}


def replay(tr: Tracer, job, expected: dict, round_index: int) -> list[str]:
    """Replay one job under a job span; returns mismatches with the
    untraced run of the same job."""
    with tr.span("job", verb=job.verb, job=job.id, round=round_index):
        return REPLAY[job.verb](tr, job, expected)


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one replayed round from its spans."""
    children: dict[int, list[dict]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)

    def duration(rec):
        return rec["end"] - rec["start"]

    def self_time(rec):
        return duration(rec) - sum(duration(c) for c in children.get(rec["id"], ()))

    out = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
    for rec in spans:
        if rec["name"] in TIMED_LAYERS:
            out[f"{rec['name']}_s"] += self_time(rec)
    for metric, (name, attr, combine) in COUNTS.items():
        values = [rec["attrs"][attr] for rec in spans if rec["name"] == name]
        out[metric] = float(combine(values)) if values else 0.0
    jobs = [rec for rec in spans if rec["name"] == "job"]
    covered = sum(duration(c) for j in jobs for c in children.get(j["id"], ()))
    out["trace.coverage"] = covered / sum(duration(j) for j in jobs)
    return out


def shadow_seconds(spans: list[dict]) -> float:
    return sum(rec["end"] - rec["start"] for rec in spans if rec["shadow"])
