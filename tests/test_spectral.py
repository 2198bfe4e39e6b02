import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gen import (
    build_benchmark_network,
    chained_component,
    diamond_network,
    random_network,
    rescaled_ring,
)

from netstab import gallery
from netstab.errors import ConvergenceError, NetstabError
from netstab.spectral import (
    NonnegMatrix,
    _bracket,
    _coo,
    spectral_bracket,
    spectral_radius,
    strongly_connected_components,
    theta_extension,
)
from netstab.transform import restrict


def eig_radius(M) -> float:
    """Oracle: max modulus of the eigenvalues (characteristic roots)."""
    data = M.data if isinstance(M, NonnegMatrix) else np.asarray(M, float)
    return float(np.max(np.abs(np.linalg.eigvals(data))))


def pivots(M, lam) -> list[Fraction]:
    """The pivots of Gaussian elimination without pivoting on lam I - M, in
    rational arithmetic, up to and including the first that is not positive."""
    a = [[Fraction(lam) * (i == j) - Fraction(x) for j, x in enumerate(row)]
         for i, row in enumerate(np.asarray(M, dtype=float).tolist())]
    out = []
    for k, pivot_row in enumerate(a):
        out.append(pivot_row[k])
        if pivot_row[k] <= 0:
            break
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / pivot_row[k]
                for j in range(k + 1, len(a)):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
    return out


def exceeds_radius(M, lam) -> bool:
    """Exactly whether lam > rho(M), for nonnegative M: then and only then
    is lam I - M a nonsingular M-matrix, whose elimination meets only
    positive pivots."""
    return all(p > 0 for p in pivots(M, lam))


def reaches_radius(M, lam) -> bool:
    """Exactly whether lam >= rho(M), for nonnegative M and lam >= 0.

    rho(M) is the largest radius of M's irreducible diagonal blocks M_C,
    and lam >= rho(M_C) iff lam I - M_C is a possibly singular M-matrix:
    its elimination meets positive pivots but for the last, which is >= 0.
    """
    M = np.asarray(M, dtype=float)
    for comp in strongly_connected_components(M):
        if comp.trivial:
            continue
        p = pivots(M[np.ix_(comp.indices, comp.indices)], lam)
        if len(p) < len(comp.indices) or p[-1] < 0:
            return False
    return True


def forbid_dense_eigensolvers(monkeypatch):
    """Fail the test if a dense eigensolver or a matrix power runs."""
    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.eig or matrix_power ran")
    monkeypatch.setattr(np.linalg, "eig", fail)
    monkeypatch.setattr(np.linalg, "matrix_power", fail)


def random_nonneg(rng, n, density=0.6):
    M = np.where(rng.random((n, n)) < density, rng.uniform(0, 2, (n, n)), 0.0)
    return M


def perron(M) -> tuple[float, np.ndarray]:
    """(rho, v): the midpoint of the bracket and the positive vector, max 1
    on each component, that the bracket holds at."""
    lower, upper, v = _bracket(_coo(M))
    return 0.5 * (lower + upper), v


def random_irreducible(rng, n):
    # random nonnegative plus a weighted cycle through all vertices
    M = random_nonneg(rng, n, density=0.4)
    perm = rng.permutation(n)
    for i in range(n):
        M[perm[i], perm[(i + 1) % n]] += rng.uniform(0.1, 1.0)
    return M


# ---------------------------------------------------------------------------
# strongly connected components


def test_scc_zero_matrix():
    comps = strongly_connected_components(np.zeros((2, 2)))
    assert len(comps) == 2
    assert all(c.trivial for c in comps)


def test_scc_ring_is_one_component():
    n = 6
    M = np.zeros((n, n))
    for i in range(n):
        M[i, (i + 1) % n] = 1.0
        M[i, (i - 1) % n] = 1.0
    comps = strongly_connected_components(M)
    assert len(comps) == 1
    assert comps[0].indices == tuple(range(n))
    assert not comps[0].trivial


def test_scc_self_loop_is_nontrivial():
    comps = strongly_connected_components(np.array([[2.0]]))
    assert comps[0].trivial is False
    comps = strongly_connected_components(np.array([[0.0]]))
    assert comps[0].trivial is True


def test_scc_reverse_topological_order():
    # 0 -> 1 -> 2, no cycles: sink component first
    M = np.zeros((3, 3))
    M[0, 1] = 1.0
    M[1, 2] = 1.0
    comps = strongly_connected_components(M)
    order = [c.indices[0] for c in comps]
    assert order.index(2) < order.index(1) < order.index(0)


def test_scc_mixed_structure():
    # two 2-cycles bridged one-way plus an isolated vertex
    M = np.zeros((5, 5))
    M[0, 1] = M[1, 0] = 1.0
    M[2, 3] = M[3, 2] = 1.0
    M[1, 2] = 1.0
    comps = strongly_connected_components(M)
    sets = {c.indices for c in comps}
    assert (0, 1) in sets and (2, 3) in sets and (4,) in sets


def test_scc_of_delayed_pair_matrix_is_single_cycle():
    from netstab import gallery
    from netstab.stability import stability_matrix

    M = stability_matrix(gallery.delayed_pair(0.5, 0.1, 1.0))
    comps = strongly_connected_components(M)
    assert len(comps) == 1
    assert not comps[0].trivial


# ---------------------------------------------------------------------------
# spectral radius


def test_radius_identity():
    assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_radius_ring_row_sums():
    n, a = 6, 0.3
    M = np.zeros((n, n))
    for i in range(n):
        M[i, (i + 1) % n] = a
        M[i, (i - 1) % n] = a
    assert spectral_radius(M) == pytest.approx(2 * a, abs=1e-10)


def test_radius_periodic_matrix():
    # pure 4-cycle: eigenvalues are 4th roots of unity
    M = np.zeros((4, 4))
    for i in range(4):
        M[i, (i + 1) % 4] = 1.0
    assert spectral_radius(M) == pytest.approx(1.0, abs=1e-10)


def test_radius_triangular_is_zero():
    M = np.array([[0.0, 3.0, 1.0], [0, 0, 2.0], [0, 0, 0]])
    assert spectral_radius(M) == 0.0


def test_radius_matches_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        M = random_nonneg(rng, n)
        assert spectral_radius(M) == pytest.approx(eig_radius(M), abs=1e-8)


def test_radius_bracketed_by_row_sums():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = random_nonneg(rng, n)
        rho = spectral_radius(M)
        sums = M.sum(axis=1)
        assert rho <= sums.max() + 1e-9
        if (M > 0).all():
            assert rho >= sums.min() - 1e-9


def test_radius_homogeneous():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        M = random_nonneg(rng, n)
        c = float(rng.uniform(0, 3))
        assert spectral_radius(c * M) == pytest.approx(
            c * spectral_radius(M), abs=1e-10 * max(1, c)
        )


def test_radius_monotone_in_entries():
    # adding nonnegative mass to an irreducible matrix raises the radius
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        A = random_irreducible(rng, n)
        B = np.zeros((n, n))
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        B[i, j] = float(rng.uniform(0.05, 1.0))
        assert spectral_radius(A + B) > spectral_radius(A)


def test_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_radius_respects_iteration_cap(monkeypatch):
    monkeypatch.setenv("NETSTAB_MAX_ITERS", "2")
    M = np.array([[0.3, 1.7], [0.2, 0.1]])
    with pytest.raises(ConvergenceError, match=r"rho in \[[0-9.e-]+, [0-9.e-]+\]"):
        spectral_radius(M)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_radius_rejects_bad_iteration_cap(monkeypatch, raw):
    monkeypatch.setenv("NETSTAB_MAX_ITERS", raw)
    with pytest.raises(NetstabError, match="NETSTAB_MAX_ITERS"):
        spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# certified bracket


def test_bracket_of_scalar_and_triangular_is_exact():
    assert spectral_bracket(np.array([[0.7]])) == (0.7, 0.7)
    assert spectral_bracket(np.array([[0.0, 3.0], [0.0, 0.0]])) == (0.0, 0.0)


def test_bracket_contains_eigenvalue_radius():
    # eigvals is itself off by up to 13 ulps on these draws, while a
    # 40-digit mpmath radius lies inside every bracket, so eigvals gets 64
    # ulps of slack; the brackets are ~1e-13 wide
    rng = np.random.default_rng(59)
    for k in range(600):
        n = int(rng.integers(1, 8))
        M = random_irreducible(rng, n + 1) if k % 2 else random_nonneg(rng, n)
        lower, upper = spectral_bracket(M)
        rho = eig_radius(M)
        slack = 64 * np.spacing(rho)
        assert lower - slack <= rho <= upper + slack, (M, lower, rho, upper)
        assert upper - lower <= 1e-11 * max(1.0, upper)


def test_bracket_contains_eigenvalue_radius_of_delayed_networks():
    # these brackets are ~1e-14 wide, narrower than the error of eigvals on
    # the full matrix, so both ends are checked against rho exactly
    from netstab.stability import stability_matrix

    rng = np.random.default_rng(61)
    for _ in range(60):
        net = random_network(rng, int(rng.integers(2, 7)), max_delay=int(rng.integers(0, 5)))
        M = stability_matrix(net)
        lower, upper = spectral_bracket(M)
        assert not exceeds_radius(M.data, lower)
        assert reaches_radius(M.data, upper)


# ---------------------------------------------------------------------------
# the lag reduction


def test_bracket_of_simple_cycle_is_exact(monkeypatch):
    # every row holds one entry, so the least vertex of the cycle is kept,
    # R(r) is the scalar prod(a) r^-(L-1), and the lifted vector certifies
    # the root prod(a)^(1/L) to the rounding of the certificate, with no
    # dense eigensolver
    forbid_dense_eigensolvers(monkeypatch)
    rng = np.random.default_rng(79)
    for L in (2, 3, 7, 40):
        M = np.zeros((L, L))
        perm = rng.permutation(L)
        for i in range(L):
            M[perm[i], perm[(i + 1) % L]] = rng.uniform(0.1, 3.0)
        lower, upper = spectral_bracket(M)
        assert not exceeds_radius(M, lower) and exceeds_radius(M, upper)
        assert upper - lower <= 16 * np.finfo(np.float64).eps * upper


def test_bracket_when_lifted_chain_underflows():
    # chain weights of 1e-200 multiply to 0 two steps from the kept vertex
    # (vertex 0 of either matrix), so each chain is cut where its weight
    # leaves the normal range, and the bracket is as tight as at any scale
    M = np.zeros((3, 3))
    M[0, 1], M[1, 2], M[2, 0] = 1e-200, 2e-200, 3e-200
    chained = np.zeros((4, 4))
    chained[0, 0], chained[0, 1] = 1e-200, 1e-200
    chained[1, 2], chained[2, 3], chained[3, 0] = 2e-200, 3e-200, 4e-200
    for M in (M, chained):
        lower, upper = spectral_bracket(M)
        assert lower <= eig_radius(M) <= upper
        assert not exceeds_radius(M, lower) and exceeds_radius(M, upper)
        assert upper - lower <= 1e-12 * upper


@pytest.mark.parametrize("rows, scale", [
    ([[0, 1, 0], [0, 0, 2], [3, 0, 0]], 1e-200),
    ([[0, 1, 0], [0, 0, 2], [3, 0, 0]], 1e200),
    ([[0, 0, 1, 2], [0, 0, 3, 1], [2, 1, 0, 0], [1, 3, 0, 0]], 1e15),
])
def test_bracket_is_tight_at_extreme_scales(rows, scale):
    # the iteration scales by the largest entry before it shifts by I: a
    # shift added first vanishes beside entries of 1e-200 (the bracket
    # stays the row sums), and beside 1e200 or 1e15 it leaves the cycle
    # periodic and the bipartite matrix nearly so
    M = np.array(rows, dtype=float) * scale
    lower, upper = spectral_bracket(M)
    assert not exceeds_radius(M, lower) and exceeds_radius(M, upper)
    assert upper - lower <= 1e-12 * upper


def test_bracket_of_scc_without_in_degree_one_vertex(monkeypatch):
    # nothing folds away, so R(s) is the component itself; eigvals gets the
    # 64 ulps of test_bracket_contains_eigenvalue_radius, and the exact
    # radius none
    forbid_dense_eigensolvers(monkeypatch)
    rng = np.random.default_rng(83)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = random_irreducible(rng, n) + np.diag(rng.uniform(0.1, 1.0, n))
        lower, upper = spectral_bracket(M)
        rho = eig_radius(M)
        assert lower - 64 * np.spacing(rho) <= rho <= upper + 64 * np.spacing(rho)
        assert not exceeds_radius(M, lower) and exceeds_radius(M, upper)
        assert upper - lower <= 1e-11 * upper


def test_bracket_of_seeded_delayed_rings(monkeypatch):
    # the base nodes are kept and the delay lines fold into lag blocks; the
    # lifted vector certifies rho = 1 -+ 1e-10 with no dense eigensolver
    from netstab.stability import stability_matrix

    forbid_dense_eigensolvers(monkeypatch)
    for seed in range(4):
        for n, max_delay in ((8, 6), (12, 8), (20, 4)):
            excess = 1e-10 if seed % 2 else -1e-10
            M = stability_matrix(rescaled_ring(n, max_delay, excess, seed=seed))
            lower, upper = spectral_bracket(M)
            assert not exceeds_radius(M.data, lower) and reaches_radius(M.data, upper)
            assert upper - lower <= 1e-13 * upper
            assert (upper < 1.0) == (excess < 0)


def test_bracket_is_sound_in_exact_arithmetic():
    # Collatz-Wielandt: every exact ratio (Mv)_i / v_i at the Perron vector
    # lies in the outward-rounded bracket, so the bracket holds for rho(M)
    rng = np.random.default_rng(67)
    for _ in range(500):
        M = random_irreducible(rng, int(rng.integers(2, 8)))
        M *= float(rng.uniform(0.01, 100.0))
        lower, upper = spectral_bracket(M)
        _, v = perron(M)
        vq = [Fraction(x) for x in v]
        for row, vi in zip(M, vq):
            ratio = sum(Fraction(a) * x for a, x in zip(row, vq)) / vi
            assert Fraction(lower) <= ratio <= Fraction(upper)


def test_lag_reduction_never_builds_the_dense_matrix(monkeypatch):
    # dim 2230 with 2430 nonzeros: the dense matrix alone would be 40 MB,
    # and the dense analysis peaked at 85 MB
    from netstab.stability import analyze, stability_matrix

    net = rescaled_ring(100, 32, -1e-10)
    tracemalloc.start()
    try:
        report = analyze(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.matrix.n == 2230 and report.matrix.values.size == 2430
    assert report.verdict == "stable"
    assert peak < 10e6
    M = stability_matrix(net)
    forbid_dense_eigensolvers(monkeypatch)
    assert spectral_bracket(M) == (report.rho_lower, report.rho_upper)


@pytest.mark.parametrize("kept", [0.25, 0.5, 0.9])
def test_bracket_of_large_partly_chained_components(kept):
    # a 1000-vertex component whose kept block holds 25-90 % of it: the
    # reduction is a dense solve per step, not a dense eigensolve
    M = chained_component(np.random.default_rng(int(100 * kept)), 1000, kept)
    lower, upper = spectral_bracket(M)
    rho = eig_radius(M)
    slack = 64 * np.spacing(rho)
    assert lower - slack <= rho <= upper + slack
    assert upper - lower <= 1e-12 * upper


def sweep_networks():
    """(id, network): every gallery network and the tests/gen.py families."""
    ring = gallery.tanh_ring(6, 1.5)
    nets = [
        ("cg_ring", gallery.cg_ring(5, 0.3, 1.5, 0.2)),
        ("delayed_pair", gallery.delayed_pair(0.5, 0.1, 1.0)),
        ("undelayed_pair", gallery.undelayed_pair(0.5, 0.1, 1.0)),
        ("distributed_pair", gallery.distributed_pair()),
        ("tanh_ring", gallery.tanh_ring(6, 3.0)),
        ("tanh_ring_restricted", restrict(ring, gallery.even_vertices(ring))),
        ("six_node", gallery.six_node()),
        ("bench_ring12", build_benchmark_network(12)),
        ("bench_ring48", build_benchmark_network(48)),
    ]
    for max_delay, n in ((8, 12), (16, 12), (64, 8)):
        for excess in (-1e-10, 1e-10):
            nets.append((f"rescaled_ring{n}_D{max_delay}_{excess:+.0e}",
                         rescaled_ring(n, max_delay, excess, seed=max_delay)))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        nets.append((f"random{seed}", random_network(rng, 3 + seed % 5, max_delay=seed % 4)))
    for k in range(1, 11):
        net = diamond_network(np.random.default_rng(k), k)
        nets += [(f"diamond{k}", net), (f"diamond{k}_restricted", restrict(net, ["s"]))]
    return nets


# (lower, upper) of each sweep network's stability matrix as the dense
# power iteration bracketed it before the lag reduction certified rho
DENSE_BRACKETS = {
    "cg_ring": (1.6999999999999988, 1.7000000000000022),
    "delayed_pair": (0.8731251561477185, 0.8731251561477211),
    "undelayed_pair": (0.6999999999999996, 0.7000000000000005),
    "distributed_pair": (1.9999999999999984, 2.0000000000000027),
    "tanh_ring": (1.9999999999999984, 2.0000000000000027),
    "tanh_ring_restricted": (4.0, 4.000000000000007),
    "six_node": (0.49200511886105724, 0.4920051188610584),
    "bench_ring12": (0.9305240927788097, 0.9305240927788206),
    "bench_ring48": (0.9281937637949438, 0.9281937637949874),
    "rescaled_ring12_D8_-1e-10": (0.9999999998999916, 0.999999999900009),
    "rescaled_ring12_D8_+1e-10": (1.0000000000999905, 1.0000000001000107),
    "rescaled_ring12_D16_-1e-10": (0.9999999998999606, 0.999999999900016),
    "rescaled_ring12_D16_+1e-10": (1.0000000000999836, 1.000000000100016),
    "rescaled_ring8_D64_-1e-10": (0.9999999998999572, 0.9999999999000424),
    "rescaled_ring8_D64_+1e-10": (1.0000000000999574, 1.0000000001000426),
    "random0": (0.2762559434833557, 0.2762559434833557),
    "random1": (0.6139261148414878, 0.6139261148414885),
    "random2": (0.8161437698868657, 0.8161437698868695),
    "random3": (0.7804917203504407, 0.7804917203504441),
    "random4": (0.6035839264777814, 0.6035839264777834),
    "random5": (0.5199677112480008, 0.5199677112480018),
    "random6": (0.7468728949638547, 0.7468728949638591),
    "random7": (0.9172980738782713, 0.9172980738782736),
    "diamond1": (0.6413189910518511, 0.6413189910518521),
    "diamond1_restricted": (0.411290048283765, 0.411290048283765),
    "diamond2": (0.6904638585726985, 0.6904638585726999),
    "diamond2_restricted": (0.32917197469027776, 0.32917197469027776),
    "diamond3": (0.7204244079002312, 0.7204244079002337),
    "diamond3_restricted": (0.269372758071652, 0.269372758071652),
    "diamond4": (0.8121020576591822, 0.812102057659186),
    "diamond4_restricted": (0.35322631809698984, 0.35322631809698984),
    "diamond5": (0.7837601415581287, 0.7837601415581333),
    "diamond5_restricted": (0.23179231922254712, 0.23179231922254712),
    "diamond6": (0.7992733870148524, 0.7992733870148563),
    "diamond6_restricted": (0.20838548694950318, 0.20838548694950318),
    "diamond7": (0.8253212985132776, 0.8253212985132986),
    "diamond7_restricted": (0.2152704518536733, 0.2152704518536733),
    "diamond8": (0.8092593024403595, 0.8092593024403644),
    "diamond8_restricted": (0.14886386923652253, 0.14886386923652253),
    "diamond9": (0.8613056148782303, 0.8613056148782517),
    "diamond9_restricted": (0.22468432961924298, 0.22468432961924298),
    "diamond10": (0.8705924400623651, 0.8705924400623771),
    "diamond10_restricted": (0.21775282963361836, 0.21775282963361836),
}


@pytest.mark.parametrize("name, net",
                         [pytest.param(*case, id=case[0]) for case in sweep_networks()])
def test_certificate_regression_sweep(name, net):
    from netstab.stability import stability_matrix

    M = stability_matrix(net)
    lower, upper = spectral_bracket(M)
    if M.n <= 40:
        assert not exceeds_radius(M.data, lower) and reaches_radius(M.data, upper)
    else:
        rho = eig_radius(M)
        assert lower - 64 * np.spacing(rho) <= rho <= upper + 64 * np.spacing(rho)
    assert upper - lower <= 1e-12 * upper
    dense_lower, dense_upper = DENSE_BRACKETS[name]
    assert max(lower, dense_lower) <= min(upper, dense_upper)


# ---------------------------------------------------------------------------
# irreducibility and Perron pairs


def test_irreducible_examples():
    def components(M):
        return len(strongly_connected_components(np.array(M)))

    assert components([[0, 1.0], [1.0, 0]]) == 1
    assert components([[0.0, 1.0], [0.0, 0.0]]) == 2
    assert components([[0.0]]) == 1  # single-vertex convention


def test_perron_exchange_matrix():
    rho, v = perron(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(v, [1.0, 1.0], atol=1e-9)


def test_perron_symmetric_coupling():
    # [[p, q], [q, p]] has Perron pair (p + q, (1, 1))
    p, q = 0.5, 0.2
    rho, v = perron(np.array([[p, q], [q, p]]))
    assert rho == pytest.approx(p + q, abs=1e-10)
    assert np.allclose(v, [1.0, 1.0], atol=1e-8)


def test_perron_scalar():
    rho, v = perron(np.array([[2.0]]))
    assert rho == 2.0 and v.tolist() == [1.0]


def test_perron_residual_and_positivity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        M = random_irreducible(rng, n)
        rho, v = perron(M)
        assert (v > 0).all()
        assert v.max() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(M @ v - rho * v)) <= 1e-8


def test_perron_root_is_spectral_radius_bit_for_bit():
    rng = np.random.default_rng(71)
    for _ in range(100):
        M = random_irreducible(rng, int(rng.integers(2, 9)))
        assert perron(M)[0] == spectral_radius(M)


# ---------------------------------------------------------------------------
# theta extension


def test_theta_extension_shape_and_values():
    M = NonnegMatrix(("v",), [0], [0], [2.0])
    Mt = theta_extension(M, 0, 0, alpha=2.0, lip=0.0, theta=1.0)
    assert Mt.data.tolist() == [[0.0, 2.0], [1.0, 0.0]]
    rho = spectral_radius(Mt)
    assert rho == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert 1.0 <= rho <= 2.0  # theta <= rho(Mt) <= rho(M) for theta <= rho(M)


def test_theta_extension_large_theta():
    Mt = theta_extension(np.array([[2.0]]), 0, 0, alpha=2.0, lip=0.0, theta=4.0)
    rho = spectral_radius(Mt)
    assert rho == pytest.approx(math.sqrt(8.0), abs=1e-10)
    assert 2.0 < rho < 4.0  # rho(M) < rho(Mt) < theta for theta > rho(M)


def test_theta_extension_zero_alpha_keeps_radius():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = random_nonneg(rng, n)
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        Mt = theta_extension(M, i, j, alpha=0.0, lip=float(M[i, j]), theta=2.0)
        assert spectral_radius(Mt) == pytest.approx(spectral_radius(M), abs=1e-9)


def test_theta_extension_rejects_bad_split():
    with pytest.raises(ValueError):
        theta_extension(np.array([[2.0]]), 0, 0, alpha=1.0, lip=0.5, theta=1.0)


def test_theta_threshold_biconditional_suite():
    # rho(M_theta) < theta iff rho(M) < theta, for any nonnegative M
    rng = np.random.default_rng(41)
    count = 0
    while count < 200:
        n = int(rng.integers(1, 7))
        M = random_nonneg(rng, n, density=float(rng.uniform(0.2, 0.9)))
        rho = spectral_radius(M)
        factor = float(rng.uniform(1.05, 3.0) if rng.random() < 0.5 else rng.uniform(0.3, 0.95))
        theta = max(rho * factor, 1e-3)
        if abs(rho - theta) <= 1e-6:
            continue
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        u = float(rng.random())
        alpha, lip = u * M[i, j], (1 - u) * M[i, j]
        lip = M[i, j] - alpha  # keep the split exact in floating point
        Mt = theta_extension(M, i, j, alpha=alpha, lip=lip, theta=theta)
        assert (spectral_radius(Mt) < theta) == (rho < theta), (M, i, j, alpha, theta)
        count += 1


def test_theta_extension_radius_bounds_irreducible():
    rng = np.random.default_rng(43)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        M = random_irreducible(rng, n)
        rho = spectral_radius(M)
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        u = float(rng.random())
        alpha = u * M[i, j]
        lip = M[i, j] - alpha
        below = float(rng.uniform(0.1, 0.95)) * rho
        above = float(rng.uniform(1.05, 3.0)) * rho
        rho_below = spectral_radius(theta_extension(M, i, j, alpha, lip, below))
        assert below <= rho_below + 1e-9
        assert rho_below <= rho + 1e-9
        rho_above = spectral_radius(theta_extension(M, i, j, alpha, lip, above))
        assert rho - 1e-9 <= rho_above <= above + 1e-9


def test_labeled_matrix_validation():
    for rows, cols, values in (
        ([0, 1], [1, 0], [1.0, -0.1]),  # negative
        ([0], [0], [math.inf]),
        ([0], [0], [math.nan]),
        ([0], [2], [1.0]),  # out of range
        ([-1], [0], [1.0]),
        ([0, 0], [1, 1], [1.0, 2.0]),  # repeated position
        ([0, 1], [1, 0], [1.0]),  # lengths differ
    ):
        with pytest.raises(ValueError):
            NonnegMatrix(("a", "b"), rows, cols, values)
    with pytest.raises(ValueError):
        spectral_bracket(np.zeros((2, 3)))
    M = NonnegMatrix(("a", "b"), [1, 0, 1], [1, 1, 0], [0.0, 2.0, 1.0])
    assert M.index == ("a", "b")
    # sorted by (row, col), the zero dropped
    assert (M.rows.tolist(), M.cols.tolist(), M.values.tolist()) == ([0, 1], [1, 0], [2.0, 1.0])
    assert M.data.tolist() == [[0.0, 2.0], [1.0, 0.0]]
    assert NonnegMatrix((), [], [], []).n == 0
