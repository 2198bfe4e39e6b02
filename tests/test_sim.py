import tracemalloc

import numpy as np
import pytest

from gen import (build_benchmark_network, full_orbit_batch, network_as_built, random_network,
                 reference_attraction)

from netstab import engine, gallery, sim
from netstab.delays import dedelay, undelay
from netstab.errors import ConvergenceError, NetstabError, NetworkError
from netstab.expr import Interval, Var
from netstab.network import build_network, make_cohen_grossberg
from netstab.sim import (
    conjugacy_check,
    find_fixed_point,
    iterate_orbit,
    sampling_box,
    verify_global_attraction,
)
from netstab.stability import analyze

R = Interval.whole()


def test_orbit_geometric():
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    traj = iterate_orbit(net, [[2.0]], 3)
    assert traj.states.ravel().tolist() == [2.0, 1.0, 0.5, 0.25]
    assert traj.steps == 3
    assert traj.diverged_at is None


def test_orbit_zero_fixed_point_of_delayed_pair():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    traj = iterate_orbit(net, np.zeros((4, 2)), 20)
    assert np.abs(traj.states).max() == 0.0


def test_orbit_snapshot_indexing():
    net = build_network([("x1", R)], [("x1", "x1[-1] + 1")])
    traj = iterate_orbit(net, [[0.0], [10.0]], 2)
    assert traj.snapshot(-1) == [0.0]
    assert traj.snapshot(0) == [10.0]
    # x^1 reads x1[-1] = x^{-1} = 0; x^2 reads x^0 = 10
    assert traj.snapshot(1) == [1.0]
    assert traj.snapshot(2) == [11.0]


def test_orbit_divergence_flag():
    net = build_network([("x1", Interval(1, 10))], [("x1", "exp(x1)")])
    traj = iterate_orbit(net, [[5.0]], 50)
    assert traj.diverged_at is not None
    assert np.isfinite(traj.states).all()


def test_orbit_domain_exit_flag():
    net = build_network([("x1", Interval(-1, 1))], [("x1", "x1 + 1")])
    traj = iterate_orbit(net, [[0.5]], 3)
    assert traj.left_domain
    assert traj.steps == 3  # iteration continues on the real line


def test_orbit_rejects_bad_history():
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(NetworkError):
        iterate_orbit(net, np.zeros((2, 2)), 5)
    with pytest.raises(NetworkError):
        iterate_orbit(net, np.full((4, 2), np.nan), 5)


def test_orbit_repelling_fixed_point_moves_away():
    # the distributed pair's origin repels: the orbit leaves a 0.11 ball
    net = gallery.distributed_pair(eps=0.5, b=1.0)
    traj = iterate_orbit(net, [[0.0, 0.0], [0.1, 0.1]], 50)
    dists = np.abs(traj.states).max(axis=1)
    assert dists.max() > 0.12
    assert dists[-10:].max() > 0.02  # does not settle back to the origin


def test_orbit_csv():
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    csv = iterate_orbit(net, [[2.0]], 2).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "step,x1"
    assert lines[1] == "0,2.0"
    assert lines[-1] == "2,0.5"


def _plain_csv(traj: sim.Trajectory) -> str:
    rows = enumerate(traj.states.tolist(), start=1 - traj.T)
    return "".join(["step," + ",".join(traj.nodes) + "\n"]
                   + [f"{step}," + ",".join(map(repr, row)) + "\n" for step, row in rows])


# snapshots of three nodes; the CSV writer takes two rows per block here
_CSV_CASES = {
    "signed_zeros": [[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]],
    "non_finite": [[np.nan, np.inf, -np.inf], [-np.nan, 1.0, np.nan]],
    "subnormal": [[5e-324, -2.5e-310, 2.2250738585072014e-308], [0.0, 5e-324, 1.0]],
    "repeated_across_blocks": [[0.1, -0.2, 0.3]] * 3 + [[0.3, 0.1, -0.2]] * 2,
    "single_row": [[1.5, -1e300, 1e-05]],
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_writes_the_repr_of_every_value(monkeypatch, case):
    monkeypatch.setattr(sim, "_CSV_BLOCK_VALUES", 6)
    states = np.array(_CSV_CASES[case])
    traj = sim.Trajectory(nodes=("a", "b", "c"), T=1, states=states)
    assert traj.to_csv() == _plain_csv(traj)


def test_csv_of_an_orbit_several_blocks_long():
    net = build_benchmark_network(12)
    lo, hi = sampling_box(net)
    window = np.random.default_rng(5).uniform(lo, hi, (net.T, net.size))
    traj = iterate_orbit(net, window, 1000)
    assert traj.states.size > 2 * sim._CSV_BLOCK_VALUES
    assert traj.to_csv() == _plain_csv(traj)


def test_fixed_point_linear():
    net = build_network([("x1", R)], [("x1", "0.5*x1 + 1")])
    fp = find_fixed_point(net, [0.0], tol=1e-12)
    assert fp[0] == pytest.approx(2.0, abs=1e-10)


def test_fixed_point_distributed_pair():
    net = gallery.distributed_pair()
    fp = find_fixed_point(net, [0.05, -0.03], tol=1e-11)
    assert np.abs(fp).max() < 1e-9


def test_fixed_point_odd_symmetry():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    fp = find_fixed_point(net, [0.4, -0.2], tol=1e-12)
    assert np.abs(fp).max() < 1e-10


def test_fixed_point_damping_handles_overshoot():
    # |f'| > 1 with sign flip: plain iteration oscillates, damping settles
    net = build_network([("x1", R)], [("x1", "-1.2*x1 + 1")])
    fp = find_fixed_point(net, [3.0], tol=1e-10)
    assert fp[0] == pytest.approx(1.0 / 2.2, abs=1e-8)


def test_fixed_point_cap(monkeypatch):
    monkeypatch.setenv("NETSTAB_MAX_ITERS", "5")
    net = build_network([("x1", R)], [("x1", "0.999*x1 + 1")])
    with pytest.raises(ConvergenceError):
        find_fixed_point(net, [0.0], tol=1e-14)


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_fixed_point_rejects_bad_cap(monkeypatch, raw):
    monkeypatch.setenv("NETSTAB_MAX_ITERS", raw)
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    with pytest.raises(NetstabError, match="NETSTAB_MAX_ITERS"):
        find_fixed_point(net, [0.0])


def test_fixed_points_of_delayed_and_undelayed_coincide():
    rng = np.random.default_rng(109)
    for _ in range(10):
        net = random_network(rng, 3, max_delay=2, amplitude=0.15, require_delay=True)
        guess = rng.uniform(-1, 1, 3)
        try:
            fp_d = find_fixed_point(net, guess, tol=1e-11)
            fp_u = find_fixed_point(undelay(net), fp_d, tol=1e-11)
        except ConvergenceError:
            continue
        assert np.abs(fp_d - fp_u).max() < 1e-8


def test_attraction_stable_pair():
    verdict = verify_global_attraction(
        gallery.undelayed_pair(0.5, 0.1, 1.0), trials=20, steps=5000, tol=1e-8, seed=0
    )
    assert verdict.converged
    assert verdict.final_diameter <= 1e-8
    assert verdict.witness is not None


def test_attraction_contraction_to_zero():
    net = build_network([("x1", R)], [("x1", "0.5*x1")])
    verdict = verify_global_attraction(net, trials=5, steps=2000, tol=1e-8, seed=1)
    assert verdict.converged
    assert abs(verdict.witness[0]) < 1e-8


def test_attraction_fails_on_repeller():
    verdict = verify_global_attraction(
        gallery.distributed_pair(), trials=10, steps=2000, tol=1e-8, seed=0
    )
    assert not verdict.converged


@pytest.mark.parametrize("steps", [0, -1, -10])
def test_attraction_rejects_steps_below_one(steps):
    # as iterate_orbit does: no verdict over the start window alone
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(ValueError, match="steps must be positive"):
        verify_global_attraction(net, trials=5, steps=steps)
    with pytest.raises(ValueError, match="steps must be positive"):
        iterate_orbit(net, np.zeros((net.T, net.size)), steps)


def test_attraction_seed_reproducible():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    a = verify_global_attraction(net, trials=5, steps=500, seed=3)
    b = verify_global_attraction(net, trials=5, steps=500, seed=3)
    assert a.to_json() == b.to_json()


def test_attraction_verdict_json():
    verdict = verify_global_attraction(
        gallery.undelayed_pair(0.5, 0.1, 1.0), trials=4, steps=1000, seed=0
    )
    data = verdict.to_json_dict()
    assert data["schema"] == "netstab-report/5"
    assert data["converged"] is True
    assert data["trials"] == 4


def _full_history_verdict(net, trials, steps, tol, seed):
    """verify_global_attraction's verdict, read off every state of every trial."""
    lo, hi = sampling_box(net)
    histories = np.random.default_rng(seed).uniform(lo, hi, size=(trials, net.T, net.size))
    states, done, diverged = full_orbit_batch(
        engine.compile_network(net), histories, steps, stop_delta=tol * 1e-3
    )
    endpoints, shrinking = [], True
    for t in range(trials):
        length = net.T + int(done[t])
        endpoints.append(states[t, length - 1])
        tail = states[t, max(0, length - max(8, length // 4)) : length]
        half = tail.shape[0] // 2
        d1, d2 = (float(np.ptp(part, axis=0).max()) if part.size else 0.0
                  for part in (tail[:half], tail[half:]))
        shrinking &= d2 <= d1 * (1.0 + 1e-9) + 1e-15
    n_div = int(diverged.sum())
    spread = float(np.ptp(endpoints, axis=0).max()) if n_div == 0 else np.inf
    converged = n_div == 0 and shrinking and spread <= tol
    return {
        "converged": converged,
        "witness": np.mean(endpoints, axis=0).tolist() if converged else None,
        # the verdict JSON writes a diameter that is not finite as null
        "final_diameter": spread if np.isfinite(spread) else None,
        "iterations_used": int(done.max()),
        "trial_steps": int(done.sum()),
        "diverged_trials": n_div,
        "shrinking": shrinking,
    }


def test_attraction_verdict_equals_the_full_history_reference():
    rng = np.random.default_rng(163)
    nets = [
        random_network(rng, int(rng.integers(2, 7)), max_delay=3,
                       amplitude=float(rng.choice([0.2, 0.6, 1.5])))
        for _ in range(12)
    ]
    nets += [gallery.distributed_pair(), build_network([("x1", Interval(-2, 2))], [("x1", "x1*x1")])]
    seen = set()
    for i, net in enumerate(nets):
        for steps in (3, 40, 700):
            want = _full_history_verdict(net, 9, steps, 1e-8, i)
            got = verify_global_attraction(net, trials=9, steps=steps, tol=1e-8, seed=i)
            data = got.to_json_dict()
            assert {k: data[k] for k in want if k in data} == {
                k: v for k, v in want.items() if k != "shrinking"
            }
            tail_note = "tail diameter increased in at least one trial" in got.notes
            assert tail_note == (not want["shrinking"])
            seen.add((want["converged"], want["shrinking"], want["diverged_trials"] > 0))
    assert {(True, True, False), (False, False, False), (False, False, True)} <= seen


@pytest.mark.parametrize("values", [1, 500])
def test_attraction_tail_check_in_chunks_of_trials(monkeypatch, values):
    # the batch hands over one ended trial's tail at a time, or a few: the
    # verdict is the full-history one
    monkeypatch.setattr(engine, "_TAIL_VALUES", values)
    rng = np.random.default_rng(167)
    nets = [random_network(rng, 3, max_delay=2, amplitude=a) for a in (0.2, 0.6, 1.5)]
    nets.append(build_network([("x1", Interval(-2, 2))], [("x1", "x1*x1")]))
    seen = set()
    for i, net in enumerate(nets):
        for steps in (3, 40, 300):
            want = _full_history_verdict(net, 9, steps, 1e-8, i)
            data = verify_global_attraction(net, trials=9, steps=steps, tol=1e-8, seed=i).to_json_dict()
            assert {k: data[k] for k in want if k in data} == {
                k: v for k, v in want.items() if k != "shrinking"
            }
            tail_note = "tail diameter increased in at least one trial" in data["notes"]
            assert tail_note == (not want["shrinking"])
            seen.add((want["converged"], want["shrinking"], want["diverged_trials"] > 0))
    assert {(True, True, False), (False, False, False), (False, False, True)} <= seen


def test_attraction_counts_the_steps_each_trial_ran():
    # trials that settle at different times stop at different steps, so the
    # steps run fall short of every trial running as long as the slowest
    net = build_benchmark_network(12)
    verdict = verify_global_attraction(net, trials=20, steps=600, seed=4)
    assert verdict.converged and verdict.iterations_used < 600
    assert 0 < verdict.trial_steps < verdict.trials * verdict.iterations_used
    assert verdict.to_json_dict()["trial_steps"] == verdict.trial_steps


def test_attraction_memory_is_bounded_by_the_tail():
    # the 48-node benchmark ring, 200 trials x 600 steps: the whole history
    # would be 200 * 604 * 48 * 8 B = 46.4 MB
    net = build_benchmark_network(48)
    full = 200 * (net.T + 600) * net.size * 8
    tracemalloc.start()
    try:
        verdict = verify_global_attraction(net, trials=200, steps=600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.converged
    assert peak < full / 2


def test_attraction_holds_no_path_of_trial_zero():
    # the library check keeps the batch's tail of each trial; only the CLI's
    # recording allocates the (T + steps, n) path of trial 0
    net = build_benchmark_network(48)
    steps = 5000
    path = (net.T + steps) * net.size * 8
    peaks = []
    for record in (False, True):
        tracemalloc.start()
        try:
            sim._attraction(net, 2, steps, None, 1e-8, 0, record=record)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < path <= peaks[1]


def test_recorded_trial_zero_is_the_orbit_iterate_orbit_runs():
    rng = np.random.default_rng(171)
    nets = [
        random_network(rng, int(rng.integers(2, 6)), max_delay=3, amplitude=amplitude)
        for amplitude in (0.2, 0.6, 1.5)
        for _ in range(3)
    ]
    nets += [
        build_network([("x1", Interval(1, 10))], [("x1", "exp(x1)")]),
        build_network([("x1", Interval(-1, 1))], [("x1", "0.5*x1[-1] + 0.9")]),
    ]
    seen: set[str] = set()
    for seed, net in enumerate(nets):
        for steps in (3, 40, 700):
            verdict, traj = sim._attraction(net, 5, steps, None, 1e-8, seed, record=True)
            want = verify_global_attraction(net, 5, steps, None, 1e-8, seed)
            assert verdict.to_json() == want.to_json()
            lo, hi = sampling_box(net)
            history = np.random.default_rng(seed).uniform(lo, hi, (net.T, net.size))
            orbit = iterate_orbit(net, history, steps)
            assert np.array_equal(traj.states, orbit.states)
            assert (traj.nodes, traj.T, traj.left_domain, traj.diverged_at) == (
                orbit.nodes, orbit.T, orbit.left_domain, orbit.diverged_at
            )
            if orbit.diverged_at is not None:
                seen.add("diverged")
            elif orbit.left_domain:
                seen.add("left its domain")
            if verdict.iterations_used < steps:
                seen.add("ran on after the batch stopped")
    assert seen == {"diverged", "left its domain", "ran on after the batch stopped"}


def _attraction_cases():
    """(network, trials, steps, sample box) of the attraction oracle."""
    two = Interval(-2, 2)
    # x/2 from up to 1e6 stops at every phase of a block
    yield build_network([("x1", R)], [("x1", "0.5*x1")]), 64, 301, {"x1": (-1e6, 1e6)}
    # squaring: trials inside the unit interval stop, the others diverge
    yield build_network([("x1", two)], [("x1", "x1*x1")]), 9, 45, None
    # every trial diverges within the first block, at fewer than 8 states
    yield build_network([("x1", Interval(1, 10))], [("x1", "exp(x1)")]), 5, 40, None
    # x1 flips sign at every step, so no trial ever stops
    yield build_network([("x1", two), ("x2", two)], [("x1", "-x1"), ("x2", "0.5*x2[-2]")]), 4, 45, None
    yield gallery.delayed_pair(0.5, 0.1, 1.0), 2, 300, None
    yield gallery.distributed_pair(), 6, 203, None
    rng = np.random.default_rng(173)
    for steps in (3, 8, 45, 301):
        for amplitude in (0.2, 0.6, 1.5):
            yield random_network(rng, int(rng.integers(2, 6)), max_delay=3,
                                 amplitude=amplitude), 7, steps, None


def _verdict_fields(verdict):
    return (verdict.to_json(), None if verdict.witness is None else verdict.witness.tobytes(),
            repr(verdict.final_diameter))


@pytest.mark.parametrize("record", [False, True])
def test_attraction_is_the_ring_based_reference(record):
    seen = set()
    for seed, (net, trials, steps, box) in enumerate(_attraction_cases()):
        got, traj = sim._attraction(net, trials, steps, box, 1e-8, seed, record)
        want, want_traj = reference_attraction(net, trials, steps, box, 1e-8, seed, record)
        assert _verdict_fields(got) == _verdict_fields(want)
        if record:
            assert np.array_equal(traj.states, want_traj.states)
            assert (traj.left_domain, traj.diverged_at) == (want_traj.left_domain,
                                                            want_traj.diverged_at)
        # what the case covers, from the same start windows
        lo, hi = sampling_box(net, box)
        histories = np.random.default_rng(seed).uniform(lo, hi, (trials, net.T, net.size))
        done, diverged = engine.run_orbit_batch(engine.compile_network(net), histories, steps, 1e-11)
        stopped = (done < steps) & ~diverged
        seen.update(f"stop at phase {p}" for p in done[stopped] % engine.STOP_STREAK)
        if (diverged & (net.T + done < engine.STOP_STREAK)).any():
            seen.add("ended in the first block")
        if diverged.any():
            seen.add("diverged")
        if ((done == steps) & ~diverged).any() and steps > 200:
            seen.add("never stopped")
        if steps % engine.STOP_STREAK:
            seen.add("steps not a multiple of STOP_STREAK")
        if trials == 2:
            seen.add("two trials")
        if stopped[0]:
            seen.add("trial 0 stopped early")
    assert seen == {f"stop at phase {p}" for p in range(engine.STOP_STREAK)} | {
        "ended in the first block", "diverged", "never stopped",
        "steps not a multiple of STOP_STREAK", "two trials", "trial 0 stopped early",
    }


def test_long_converging_run_holds_only_the_live_tails():
    # a converging 4-node Cohen-Grossberg ring whose trials all stop within
    # a few hundred steps: the batch holds their tails while they run, not
    # 50 x 50,001 x 4 states, the longest tail that 200,000 steps allow
    ring = np.zeros((4, 4))
    delays = np.zeros((4, 4), dtype=int)
    for j in range(4):
        for i in ((j - 1) % 4, (j + 1) % 4):
            ring[i, j], delays[i, j] = 0.2, 2
    net = make_cohen_grossberg(ring, 0.5, delays=delays, self_delays=np.ones(4, dtype=int))
    tracemalloc.start()
    try:
        verdict = verify_global_attraction(net, trials=50, steps=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.converged and verdict.iterations_used < 1000
    assert peak < 4 * 2**20


def test_a_million_steps_give_the_600_step_verdict():
    # every trial of the benchmark ring stops within 600 steps, so a run
    # allowed 10^6 steps is the same run and holds as much
    net = build_benchmark_network(48)
    want = verify_global_attraction(net, trials=200, steps=600)
    tracemalloc.start()
    try:
        got = verify_global_attraction(net, trials=200, steps=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert want.converged and _verdict_fields(got) == _verdict_fields(want)
    assert peak < 16 * 2**20


def test_attraction_rejects_non_finite_sample_box():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(NetworkError, match="finite"):
        verify_global_attraction(net, trials=2, steps=10, sample_box={"x1": (np.inf, 1.0)})


def test_attraction_rejects_sample_box_wider_than_the_float_range():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(NetworkError, match=r"box of x2, .* wider than the float range; .* --box"):
        verify_global_attraction(net, trials=2, steps=10, sample_box={"x2": (-1e308, 1e308)})


def test_attraction_rejects_reversed_sample_box():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(NetworkError, match="lo <= hi"):
        verify_global_attraction(net, trials=2, steps=10, sample_box={"x2": (1.0, -1.0)})


def test_attraction_rejects_sample_box_of_unknown_node():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    with pytest.raises(NetworkError, match="unknown nodes"):
        verify_global_attraction(net, trials=2, steps=10, sample_box={"x9": (0.0, 1.0)})


def test_sampling_box_mixes_box_and_domain_bounds():
    net = build_network([("x1", R), ("x2", Interval(-1.0, 2.0))], [("x1", "0"), ("x2", "0")])
    lo, hi = sampling_box(net, {"x1": (0.5, 0.75)})
    assert lo.tolist() == [0.5, -1.0] and hi.tolist() == [0.75, 2.0]
    lo, hi = sampling_box(net)
    assert lo.tolist() == [-10.0, -1.0] and hi.tolist() == [10.0, 2.0]


def test_sampling_box_of_one_sided_domains():
    # an infinite end still defaults to -10 or 10 wherever the box that
    # leaves is not empty
    inf = float("inf")
    for (dom_lo, dom_hi), want in (((-inf, -5.0), [-10.0, -5.0]), ((5.0, inf), [5.0, 10.0]),
                                   ((-inf, -10.0), [-10.0, -10.0]), ((10.0, inf), [10.0, 10.0])):
        net = build_network([("x1", Interval(dom_lo, dom_hi))], [("x1", "0.5*x1")])
        assert [b.item() for b in sampling_box(net)] == want
    # beyond it, the node must be given a box
    for dom_lo, dom_hi in ((-inf, -20.0), (1e300, inf)):
        net = build_network([("x1", Interval(dom_lo, dom_hi))], [("x1", "0.5*x1")])
        with pytest.raises(NetworkError, match=r"sampling box of x1, .* --box or sample_box"):
            sampling_box(net)
        with pytest.raises(NetworkError, match="sample_box"):
            verify_global_attraction(net, trials=2, steps=10)
        lo, hi = sampling_box(net, {"x1": (dom_lo if dom_lo > -inf else -30.0,
                                            dom_hi if dom_hi < inf else 2e300)})
        assert lo[0] < hi[0]


def test_conjugacy_trivial_on_undelayed():
    net = gallery.undelayed_pair(0.5, 0.1, 1.0)
    assert conjugacy_check(net, [[0.3, -0.4]], 50)


def test_conjugacy_delayed_pair():
    net = gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.1)
    rng = np.random.default_rng(4)
    assert conjugacy_check(net, rng.uniform(-2, 2, (4, 2)), 100)


def test_conjugacy_negative_control():
    # corrupt the delay wiring: line(1,2) reads line(2,1) instead of line(1,1)
    net = gallery.delayed_pair(0.5, 0.1, 1.0)
    aug = dedelay(net)
    broken_updates = dict(aug.net.updates)
    broken_updates["x1_d2"] = Var("x2_d1", 0)
    broken = network_as_built(aug.net.nodes, aug.net.domains, broken_updates)

    rng = np.random.default_rng(5)
    history = rng.uniform(-2, 2, (4, 2))
    x0 = np.array([
        history[net.T - 1 - aug.projection[c][1], net.nodes.index(aug.projection[c][0])]
        for c in aug.coords
    ])
    good = iterate_orbit(aug.net, x0[None, :], 40)
    bad = iterate_orbit(broken, x0[None, :], 40)
    assert np.abs(good.states[:, :2] - bad.states[:, :2]).max() > 1e-6


def test_conjugacy_random_suite_small():
    rng = np.random.default_rng(113)
    for _ in range(20):
        net = random_network(
            rng, int(rng.integers(2, 5)), max_delay=3,
            amplitude=float(rng.choice([0.2, 0.6])), require_delay=True,
        )
        history = rng.uniform(-2, 2, (net.T, net.size))
        assert conjugacy_check(net, history, 100)


def _conjugate_step_by_step(net, history, steps, tol):
    """conjugacy_check as one comparison per step, each step's max
    difference against ``tol``."""
    hist = np.asarray(history, dtype=np.float64)
    aug = dedelay(net)
    x0 = np.array([
        hist[net.T - 1 - aug.projection[c][1], net.nodes.index(aug.projection[c][0])]
        for c in aug.coords
    ])
    delayed, undelayed = iterate_orbit(net, hist, steps), iterate_orbit(aug.net, x0[None], steps)
    if delayed.steps != undelayed.steps:
        return False
    return all(
        not np.max(np.abs(delayed.states[net.T - 1 + k] - undelayed.states[k, : net.size])) > tol
        for k in range(1, delayed.steps + 1)
    )


def test_conjugacy_check_is_the_step_by_step_comparison():
    rng = np.random.default_rng(173)
    nets = [random_network(rng, int(rng.integers(1, 5)), max_delay=3, require_delay=True)
            for _ in range(8)]
    nets.append(build_network([("x1", R), ("x2", R)],
                              [("x1", "x1*x1 + 0.1*tanh(x2[-2])"), ("x2", "0.5*x2 - 0.2*x1[-1]")]))
    outcomes = set()
    for net in nets:
        history = rng.uniform(-2, 2, (net.T, net.size))
        for tol in (-1.0, 0.0, 1e-12):
            want = _conjugate_step_by_step(net, history, 30, tol)
            assert conjugacy_check(net, history, 30, tol) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_trajectory_flags_a_domain_exit_as_a_scan_per_node_does():
    net = build_network(
        [("x1", Interval(-1.0, 1.0)), ("x2", Interval(0.0, np.inf)), ("x3", R)],
        [("x1", "x1"), ("x2", "x2"), ("x3", "x3")],
    )
    rng = np.random.default_rng(179)
    special = np.array([np.nan, np.inf, -np.inf, -1.0, 1.0, 0.0, -0.0])
    for _ in range(200):
        states = rng.uniform(-1.2, 1.2, (net.T + 3, 3))
        mask = rng.random(states.shape) < 0.2
        states[mask] = rng.choice(special, mask.sum())
        want = any(
            ((states[:, i] < net.domains[node].lo) | (states[:, i] > net.domains[node].hi)).any()
            for i, node in enumerate(net.nodes)
        )
        assert sim._trajectory(net, states, 3, False).left_domain == want


def test_stability_implies_empirical_attraction_small():
    rng = np.random.default_rng(127)
    done = 0
    while done < 8:
        net = random_network(rng, int(rng.integers(2, 5)), max_delay=2, amplitude=0.12)
        if analyze(net).rho >= 1 - 1e-3:
            continue
        verdict = verify_global_attraction(net, trials=10, steps=3000, tol=1e-6, seed=11)
        assert verdict.converged, net.name
        done += 1
