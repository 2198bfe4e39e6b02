"""Each reference check accepts a correct output and rejects a corrupted one.

Correct outputs are built from the independent references themselves, so
these tests need numpy but not netstab.  Run with

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import refs  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def ring():
    spec = workloads.ring_spec(np.random.default_rng(3), 12, 4)
    return {**spec, "trials": 20, "steps": 80, "contracting": True}


@pytest.fixture
def diamond():
    return workloads.diamond_spec(np.random.default_rng(3), 6)


def _certify_result(spec):
    rho = refs.spectral_radius(refs.ring_companion(spec))
    dim = spec["W"].shape[0] + int(refs.ring_depths(spec).sum())
    return {"rho": rho, "verdict": "stable" if rho < 1 else "inconclusive", "dim": dim}, rho


def test_certify_rejects_flipped_verdict_and_wrong_dimension(ring):
    good, rho = _certify_result(ring)
    assert refs.check_certify(ring, good, rho) == ([], False)
    flipped = {**good, "verdict": "inconclusive" if good["verdict"] == "stable" else "stable"}
    assert refs.check_certify(ring, flipped, rho)[0]
    assert refs.check_certify(ring, {**good, "dim": good["dim"] + 1}, rho)[0]


def test_certify_counts_a_shifted_rho_as_a_miss(ring):
    good, rho = _certify_result(ring)
    errors, missed = refs.check_certify(ring, {**good, "rho": rho + 1e-6}, rho)
    assert missed and not errors


def test_hot_ring_is_inconclusive():
    # every row of the undelayed bound sums to at least 0.5 + 2 * 0.3
    for seed in range(5):
        spec = workloads.ring_spec(np.random.default_rng(seed), *workloads.CERTIFY_HOT,
                                   wlo=0.3, whi=0.5)
        assert refs.spectral_radius(refs.ring_companion(spec)) > 1.01


def test_restricted_rho_closed_form_and_shift(diamond):
    fixed = {"k": 11, "into": [0.5, 0.8], "p": [0.3] * 10, "q": [0.6] * 10, "back": 0.45}
    assert refs.diamond_path_sum(fixed) == pytest.approx(0.45 * 1.3 * 0.9 ** 10, rel=1e-12)
    ref = refs.diamond_path_sum(diamond)
    good = {"rho": ref, "verdict": "stable"}
    assert refs.check_rho(good, ref, "restricted") == []
    assert refs.check_rho({**good, "rho": ref + 1e-6}, ref, "restricted")
    assert refs.check_rho({**good, "verdict": "inconclusive"}, ref, "restricted")


def test_direct_rho_is_the_root_of_the_path_sum(diamond):
    # every cycle passes s and has k + 1 edges, so rho^(k+1) = path sum
    rho = refs.spectral_radius(refs.diamond_matrix(diamond))
    assert rho ** (diamond["k"] + 1) == pytest.approx(refs.diamond_path_sum(diamond), rel=1e-9)


def _csv(spec, steps):
    T = refs.ring_window(spec)
    history = np.random.default_rng(1).uniform(-1, 1, (T, spec["W"].shape[0]))
    states = np.vstack([history, refs.ring_free_run(spec, history, steps)])
    header = "step," + ",".join(f"x{j + 1}" for j in range(states.shape[1]))
    rows = [f"{k - T + 1}," + ",".join(repr(float(v)) for v in row)
            for k, row in enumerate(states)]
    return "\n".join([header] + rows) + "\n", states


def test_trajectory_rejects_a_perturbed_row(ring):
    text, states = _csv(ring, 60)
    assert refs.check_trajectory(ring, text) == []
    T = refs.ring_window(ring)
    lines = text.splitlines()
    cells = lines[1 + T + 20].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[1 + T + 20] = ",".join(cells)
    assert refs.check_trajectory(ring, "\n".join(lines) + "\n")


def test_simulation_rejects_a_witness_off_the_fixed_point(ring):
    text, states = _csv(ring, 400)
    witness = [float(v) for v in states[-1]]
    verdict = {"trials": 20, "converged": True, "witness": witness}
    assert refs.check_simulation(ring, verdict, text) == []
    assert refs.check_simulation(ring, {**verdict, "converged": False}, text)
    moved = [witness[0] + 1e-3] + witness[1:]
    assert refs.check_simulation(ring, {**verdict, "witness": moved}, text)
    assert refs.check_fixed_point(ring, witness) == []
    assert refs.check_fixed_point(ring, moved)


def _complete_sets(spec):
    """Complete sets of minimum size, by brute force over the checker."""
    from itertools import combinations

    for size in range(len(spec["nodes"]) + 1):
        found = []
        for S in combinations(sorted(spec["nodes"]), size):
            order = refs.topological_order(spec["nodes"], spec["edges"], set(S))
            if order is None:
                continue
            basic = all(c <= 1 for c in
                        refs.branch_counts(spec["nodes"], spec["edges"], S, order).values())
            if not refs.check_structural_set(spec, S, basic):
                found.append({"S": list(S), "complete": True, "basic": basic})
        if found:
            return found


def _stdout(rows):
    return "".join(f"{{{','.join(r['S'])}}} complete {'basic' if r['basic'] else 'non-basic'}\n"
                   for r in rows)


def test_sets_reject_a_set_with_a_vertex_removed():
    spec = workloads.random_spec(np.random.default_rng(5), 8)
    rows = _complete_sets(spec)
    assert refs.check_sets(spec, rows, _stdout(rows)) == []
    shrunk = [{**rows[0], "S": rows[0]["S"][1:]}] + rows[1:]
    assert refs.check_sets(spec, shrunk, _stdout(shrunk))


def test_sets_reject_a_flipped_basic_flag_and_bad_order():
    spec = workloads.random_spec(np.random.default_rng(5), 8)
    rows = _complete_sets(spec)
    flipped = [{**rows[0], "basic": not rows[0]["basic"]}] + rows[1:]
    assert refs.check_sets(spec, flipped, _stdout(flipped))
    if len(rows) > 1:
        swapped = rows[::-1]
        assert refs.check_sets(spec, swapped, _stdout(swapped))
    assert refs.check_sets(spec, rows, "")


def test_diamond_basic_set_and_empty_set():
    spec = workloads.diamond_spec(np.random.default_rng(0), 4)
    graph = {"nodes": workloads.diamond_nodes(4),
             "edges": sorted({(s, t) for s, t, _ in workloads.diamond_edges(spec)})}
    # 2^4 branches from s back to s: complete but not basic
    assert refs.check_structural_set(graph, ["s"], basic=False) == []
    assert refs.check_structural_set(graph, ["s"], basic=True)
    assert refs.check_structural_set(graph, [], basic=True)
