"""Built-in regression suite over the bundled reference networks.

Each check compares a computed quantity against its closed form.  The
CLI's ``verify-paper`` verb prints one pass/fail line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gallery
from .delays import dedelay, undelay
from .expr import normalize
from .network import interaction_graph, is_non_distributed
from .sim import conjugacy_check
from .spectral import spectral_radius
from .stability import analyze, local_spectral_radius
from .structural import is_basic_structural, is_complete_structural
from .transform import delayed_expansion, expand, restrict

__all__ = ["RegressionResult", "run_regressions"]


@dataclass(frozen=True)
class RegressionResult:
    name: str
    passed: bool
    detail: str


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_ring_closed_form() -> RegressionResult:
    eps, a, b = 0.5, 0.1, 1.0
    net = gallery.cg_ring(6, a, b, eps)
    report = analyze(net)
    expected = abs(1 - eps) + 2 * abs(a * b)
    w_rho = spectral_radius(np.abs(np.array(net.cg.weights)))
    ok = (
        _close(report.rho, expected, 1e-10)
        and _close(w_rho, 2 * abs(a), 1e-10)
        and _close(report.cg_criterion, expected, 1e-10)
        and report.verdict == "stable"
    )
    return RegressionResult(
        "ring: rho = |1-eps| + 2|ab|, rho(|W|) = 2|a|",
        ok,
        f"rho={report.rho:.12g} expected={expected:.12g} rho(|W|)={w_rho:.12g}",
    )


def _check_delayed_pair_quartic() -> RegressionResult:
    eps, a, b = 0.5, 0.1, 1.0
    net = gallery.delayed_pair(eps, a, b)
    rho = analyze(net).rho
    beta, g = abs(1 - eps), 2 * abs(a * b)
    residual = rho**4 - beta * rho**2 - g
    closed = math.sqrt((beta + math.sqrt(beta**2 + 8 * abs(a * b))) / 2)
    # the first theorem's hypothesis: each source is read at one delay
    ok = abs(residual) <= 1e-8 and _close(rho, closed, 1e-8) and is_non_distributed(net)
    return RegressionResult(
        "delayed pair: non-distributed, rho solves rho^4 - |1-eps| rho^2 - 2|ab| = 0",
        ok,
        f"rho={rho:.12g} closed={closed:.12g} residual={residual:.3e}",
    )


def _check_undelayed_pair() -> RegressionResult:
    eps, a, b = 0.5, 0.1, 1.0
    report = analyze(gallery.undelayed_pair(eps, a, b))
    ok = _close(report.rho, 0.7, 1e-10) and report.verdict == "stable"
    return RegressionResult(
        "undelayed pair: rho = |1-eps| + 2|ab| = 0.7, stable",
        ok,
        f"rho={report.rho:.12g} verdict={report.verdict}",
    )


def _check_distributed_pair() -> RegressionResult:
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    local = local_spectral_radius(net, np.zeros(2))
    expected = (1 + math.sqrt(17)) / 4
    undelayed_rho = analyze(undelay(net)).rho
    # each node reads the other at delays 0 and 1: the first theorem does not apply
    ok = (_close(local, expected, 1e-9) and _close(undelayed_rho, 0.5, 1e-10)
          and not is_non_distributed(net))
    return RegressionResult(
        "distributed pair: distributed, local rho = (1+sqrt(17))/4, undelayed rho = 1/2",
        ok,
        f"local={local:.12g} expected={expected:.12g} undelayed={undelayed_rho:.12g}",
    )


def _check_tanh_ring_transforms() -> RegressionResult:
    c = 3.5
    net = gallery.tanh_ring(6, c)
    S = gallery.even_vertices(net)
    rho_orig = analyze(net).rho
    rho_exp = analyze(expand(net, S).net).rho
    rho_res = analyze(restrict(net, S)).rho
    s = 1.0 / math.cosh(c - 2.0)
    ok = (
        _close(rho_orig, 2.0, 1e-10)
        and _close(rho_exp, 2.0 * s, 1e-8)
        and _close(rho_res, 4.0 * s * s, 1e-8)
    )
    return RegressionResult(
        "tanh ring: rho = 2; expansion 2 sech(c-2); restriction 4 sech^2(c-2)",
        ok,
        f"rho={rho_orig:.12g} expansion={rho_exp:.12g} restriction={rho_res:.12g}",
    )


def _check_delay_removal_identity() -> RegressionResult:
    net = gallery.tanh_ring(6, 3.0)
    S = gallery.even_vertices(net)
    left = undelay(delayed_expansion(net, S))
    right = restrict(net, S)
    ok = all(
        normalize(left.updates[n]) == normalize(right.updates[n]) for n in right.nodes
    )
    return RegressionResult(
        "undelaying the delayed expansion recovers the restriction",
        ok,
        f"components={len(right.nodes)}",
    )


def _check_six_node_sets() -> RegressionResult:
    net = gallery.six_node()
    graph = interaction_graph(net)
    S = ("x1", "x3", "x5")
    complete = is_complete_structural(graph, S)
    basic = is_basic_structural(graph, S)
    res = restrict(net, S)
    res_edges = set(interaction_graph(res).edges)
    expected_edges = {
        ("x5", "x1"),
        ("x1", "x3"),
        ("x5", "x3"),
        ("x1", "x5"),
        ("x3", "x5"),
    }
    ok = complete and not basic and res_edges == expected_edges
    return RegressionResult(
        "six-node: {x1,x3,x5} complete but not basic; restriction wiring",
        ok,
        f"complete={complete} basic={basic} edges={sorted(res_edges)}",
    )


def _check_conjugacy() -> RegressionResult:
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.2, c2=-0.1)
    rng = np.random.default_rng(0)
    history = rng.uniform(-2, 2, size=(net.T, net.size))
    ok = conjugacy_check(net, history, steps=100)
    return RegressionResult(
        "delayed orbit equals projected de-delayed orbit (100 steps)",
        ok,
        "max deviation <= 1e-12" if ok else "orbits disagree",
    )


def _check_dedelay_dimensions() -> RegressionResult:
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    aug = dedelay(net)
    ok = len(aug.coords) == 8 and aug.net.T == 1
    return RegressionResult(
        "delayed pair de-delays to 8 canonical coordinates",
        ok,
        f"coords={len(aug.coords)}",
    )


def run_regressions() -> list[RegressionResult]:
    checks = [
        _check_ring_closed_form,
        _check_delayed_pair_quartic,
        _check_undelayed_pair,
        _check_distributed_pair,
        _check_dedelay_dimensions,
        _check_tanh_ring_transforms,
        _check_delay_removal_identity,
        _check_six_node_sets,
        _check_conjugacy,
    ]
    return [check() for check in checks]
