"""Command-line front end.

Verbs: analyze, graph, sets, restrict, expand, undelay, dedelay,
simulate, verify-paper.  Exit status 0 on success, 1 on domain errors
(bad rules, unbounded bounds, invalid structural sets) and when the
reader of stdout goes away, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import regressions
from .delays import dedelay, undelay
from .errors import NetstabError
from .network import (REPORT_SCHEMA, InteractionGraph, dump_network, interaction_graph,
                      load_network, report_json)
from .sim import _attraction
from .stability import analyze
from .structural import _check_subset, find_structural_sets
from .transform import expand, restrict

__all__ = ["main", "run", "emit_dot"]


def emit_dot(graph: InteractionGraph, S=None) -> str:
    """Render the interaction graph in DOT; S vertices get double rings
    and edges carry their delay sets when delayed.  Every name in S must
    be a vertex."""
    marked = set(_check_subset(graph, S or ()))
    lines = ["digraph interactions {"]
    for v in graph.vertices:
        attrs = ' [peripheries=2, style=bold]' if v in marked else ""
        lines.append(f'  "{v}"{attrs};')
    for (src, tgt) in sorted(graph.edges):
        delays = sorted(graph.edges[(src, tgt)])
        if delays != [0]:
            label = ",".join(str(d) for d in delays)
            lines.append(f'  "{src}" -> "{tgt}" [label="{label}"];')
        else:
            lines.append(f'  "{src}" -> "{tgt}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_network(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text()
    except OSError as err:
        # unreadable input is a usage problem, not a domain one
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    return load_network(text, name_hint=path.stem)


def _parse_set(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(s.strip() for s in arg.split(",") if s.strip())


def _out_path(args, default: str) -> Path:
    return Path(args.output) if args.output else Path(default)


def _cmd_analyze(args) -> int:
    net = _read_network(args.network)
    report = analyze(net)
    print(f"rho = {report.rho:.6g} verdict = {report.verdict}")
    print(f"certified bracket: {report.rho_lower!r} <= rho <= {report.rho_upper!r}")
    if report.boundary:
        print("note: the certified bracket contains 1; verdict is a boundary case")
    if report.cg_criterion is not None:
        print(f"cohen-grossberg criterion |1-eps| + L*rho(|W|) = {report.cg_criterion:.6g}")
    out = _out_path(args, f"{Path(args.network).stem}.report.json")
    out.write_text(report.to_json() + "\n")
    return 0


def _cmd_graph(args) -> int:
    net = _read_network(args.network)
    dot = emit_dot(interaction_graph(net), _parse_set(args.set))
    out = _out_path(args, f"{Path(args.network).stem}.dot")
    out.write_text(dot)
    print(f"wrote {out}")
    return 0


def _cmd_sets(args) -> int:
    net = _read_network(args.network)
    graph = interaction_graph(net)
    reports = find_structural_sets(graph, want_basic=False, max_results=args.max_results)
    rows = []
    for rep in reports:
        flag = ""
        if args.basic:
            flag = " basic" if rep.basic else " non-basic"
        print(f"{{{','.join(rep.S)}}} complete{flag}")
        rows.append(rep.to_json_dict())
    if not reports:
        print("no complete structural sets found")
    if args.output:
        Path(args.output).write_text(report_json({"schema": REPORT_SCHEMA, "sets": rows}) + "\n")
    return 0


def _transformed(args, verb: str):
    net = _read_network(args.network)
    if verb in ("restrict", "expand"):
        S = _parse_set(args.set)
        if not S:
            print(f"error: {verb} requires --set", file=sys.stderr)
            raise SystemExit(2)
        base = undelay(net) if net.T > 1 and args.undelay_first else net
        if verb == "restrict":
            return restrict(base, S)
        return expand(base, S).net
    if verb == "undelay":
        return undelay(net)
    return dedelay(net).net


def _cmd_transform(args, verb: str) -> int:
    result = _transformed(args, verb)
    out = _out_path(args, f"{Path(args.network).stem}.{verb}.net")
    out.write_text(dump_network(result))
    print(f"wrote {out} ({result.size} nodes, T = {result.T})")
    return 0


def _cmd_simulate(args) -> int:
    net = _read_network(args.network)
    box = {node: args.box for node in net.nodes} if args.box else None
    # the trajectory is trial 0 of the attraction batch, run to --steps
    verdict, traj = _attraction(
        net, args.trials, args.steps, box, args.tol, args.seed, record=True
    )
    stem = Path(args.network).stem
    prefix = Path(args.output) if args.output else Path(stem)
    verdict_path = Path(f"{prefix}.verdict.json")
    verdict_path.write_text(verdict.to_json() + "\n")
    csv_path = Path(f"{prefix}.trajectory.csv")
    csv_path.write_text(traj.to_csv())

    state = "converged" if verdict.converged else "not converged"
    print(f"{state}: final diameter {verdict.final_diameter:.3g} over "
          f"{verdict.trials} trials ({verdict.iterations_used} steps used)")
    print(f"wrote {verdict_path} and {csv_path}")
    return 0


def _box_arg(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}") from None
    return lo, hi


def _checked(kind, ok, what: str):
    """argparse type: ``kind(text)`` when ``ok`` holds for it, else a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def _int_at_least(least: int):
    return _checked(int, lambda v: v >= least, f"an integer >= {least}")


def _cmd_verify(args) -> int:
    results = regressions.run_regressions()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"[{mark}] {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no
    state in it, so every :func:`run` reads its own argv alone."""
    parser = argparse.ArgumentParser(
        prog="netstab",
        description="Stability analysis of discrete-time dynamical networks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_common(p, needs_set=False):
        p.add_argument("network", help="network definition file")
        p.add_argument("-o", "--output", help="output path", default=None)
        if needs_set:
            p.add_argument("--set", help="comma-separated vertex set", default=None)
        return p

    with_common(sub.add_parser("analyze", help="stability matrix, rho, verdict"))
    with_common(sub.add_parser("graph", help="interaction graph as DOT"), needs_set=True)

    p_sets = with_common(sub.add_parser("sets", help="list complete structural sets"))
    p_sets.add_argument("--basic", action="store_true",
                        help="also flag each set basic / non-basic")
    p_sets.add_argument("--max-results", type=_int_at_least(1), default=16)

    for verb in ("restrict", "expand"):
        p = with_common(sub.add_parser(verb, help=f"{verb} onto a structural set"),
                        needs_set=True)
        p.add_argument("--undelay-first", action="store_true",
                       help="remove delays before transforming a delayed network")
    with_common(sub.add_parser("undelay", help="set every delay to zero"))
    with_common(sub.add_parser("dedelay", help="augment with canonical delay lines"))

    p_sim = with_common(sub.add_parser("simulate", help="random-history attraction check"))
    p_sim.add_argument("--trials", type=_int_at_least(2), default=20)
    p_sim.add_argument("--steps", type=_int_at_least(1), default=5000)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--tol", default=1e-8, type=_checked(
        float, lambda v: math.isfinite(v) and v > 0, "a finite positive number"))
    p_sim.add_argument("--box", type=_box_arg, default=None,
                       help="lo,hi sampling box applied to every node "
                            "(write --box=-1,1 when lo is negative)")

    sub.add_parser("verify-paper", help="run the bundled regression table")
    return parser


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "analyze":
            return _cmd_analyze(args)
        if args.verb == "graph":
            return _cmd_graph(args)
        if args.verb == "sets":
            return _cmd_sets(args)
        if args.verb in ("restrict", "expand", "undelay", "dedelay"):
            return _cmd_transform(args, args.verb)
        if args.verb == "simulate":
            return _cmd_simulate(args)
        if args.verb == "verify-paper":
            return _cmd_verify(args)
    except NetstabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``netstab sets FILE | head -1``): stop
        # quietly, with stdout on devnull so the exit-time flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
