"""The k-NN KL sample estimator, the expert cell cloud, and expected
return."""

import os

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma

import firl.kl_eval
import firl.mdp
from firl.density_ratio import sample_states
from firl.divergence import divergence_exact
from firl.kl_eval import (CellCloud, _states_to_points, cell_gaps, knn_kl,
                          policy_return)
from firl.mdp import FiniteMdp, build_gridworld
from firl.scenarios import gaussian_density
from firl.soft_solver import forward_marginals, soft_backward


def _chain(horizon=2):
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = 1.0
    P[1, 0, 2] = 1.0
    P[2, 0, 2] = 1.0
    return FiniteMdp(P, [1.0, 0.0, 0.0], horizon=horizon)


def test_knn_near_zero_on_identical_distributions():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 2))
    y = rng.normal(size=(2000, 2))
    est = knn_kl(x, y, k=3, seed=1)
    assert abs(est) < 0.05


def test_knn_recovers_a_known_gaussian_kl():
    # KL between unit gaussians one unit apart is 1/2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4000, 2))
    y = rng.normal(size=(4000, 2)) + np.array([1.0, 0.0])
    est = knn_kl(x, y, k=3, seed=3)
    assert est == pytest.approx(0.5, abs=0.1)


def test_knn_is_seed_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 2))
    y = rng.normal(size=(200, 2))
    assert knn_kl(x, y, seed=5) == knn_kl(x, y, seed=5)


def test_knn_sample_count_guards():
    x = np.zeros((3, 2))
    y = np.zeros((10, 2))
    with pytest.raises(ValueError, match="more than k p-samples"):
        knn_kl(x, y, k=3)
    with pytest.raises(ValueError, match="at least k q-samples"):
        knn_kl(y, np.zeros((2, 2)), k=3)
    with pytest.raises(ValueError, match="matching dimension"):
        knn_kl(np.zeros((10, 2)), np.zeros((10, 3)))


def test_two_array_knn_keeps_its_values_bit_for_bit():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 2))
    y = rng.normal(size=(250, 2)) + np.array([0.5, 0.0])
    assert knn_kl(x, y, seed=12) == 0.13790980911169365
    assert knn_kl(y, x, k=5, seed=13) == 0.14227363302322718
    # exact repeats, separated only by the 1e-10 tie-break jitter
    stacked = np.repeat(np.arange(6.0), 20).reshape(-1, 2)
    assert knn_kl(stacked, x, seed=14) == 48.302304152497776


# ------------------------------------------------- the k-th neighbour search

def _repeated_cells(n, seed):
    """n visits to the centres of a 6x6 grid's cells, many repeated,
    separated only by the cloud's +-1e-10 tie-break jitter."""
    rng = np.random.default_rng(seed)
    mdp = build_gridworld(6, 6, horizon=2)
    pts = mdp.coords[rng.integers(0, 36, size=n)].astype(float)
    return pts + rng.uniform(-1e-10, 1e-10, size=pts.shape)


@pytest.mark.parametrize("n", [700, 1100])   # 1100^2 pairs pass the bound
@pytest.mark.parametrize("p", [2.0, np.inf])
def test_the_direct_search_equals_the_tree_bit_for_bit(n, p):
    pts = _repeated_cells(n, 40)
    probes = pts + np.random.default_rng(41).uniform(-0.5, 0.5, size=pts.shape)
    tree = cKDTree(pts)
    for k in range(1, 6):
        for queries in (pts, probes):
            want = tree.query(queries, k=[k], p=p)[0][:, 0]
            assert np.array_equal(firl.kl_eval._direct_kth(pts, queries, k, p), want)


@pytest.mark.parametrize("d", [1, 3, 4, 9])
def test_a_search_off_the_plane_takes_the_tree(monkeypatch, d):
    # 200 x 300 pairs are under the bound, but only 2-d points go direct
    rng = np.random.default_rng(42)
    scale = rng.uniform(0.1, 100.0, size=d)
    pts, queries = rng.normal(size=(300, d)) * scale, rng.normal(size=(200, d)) * scale
    assert not firl.kl_eval._uses_tree(len(queries), len(pts))
    monkeypatch.setattr(firl.kl_eval, "_direct_kth",
                        lambda *args: pytest.fail("the direct search ran"))
    want = cKDTree(pts).query(queries, k=[3])[0][:, 0]
    assert np.array_equal(firl.kl_eval._kth_distance(pts, queries, 3), want)


def test_the_search_takes_the_tree_only_past_the_bound():
    uses_tree = firl.kl_eval._uses_tree
    assert not uses_tree(2 ** 10, 2 ** 10)
    assert uses_tree(2 ** 10 + 1, 2 ** 10)
    # one query's row of distances must fit one table
    assert not uses_tree(1, 2 ** 16)
    assert uses_tree(1, 2 ** 16 + 1)


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_k_beyond_the_point_count_reads_inf_as_the_tree_does(p):
    pts = _repeated_cells(2, 43)
    want = cKDTree(pts).query(pts, k=[3], p=p)[0][:, 0]
    assert np.array_equal(firl.kl_eval._direct_kth(pts, pts, 3, p), want)
    assert np.all(np.isinf(want))
    assert np.array_equal(cell_gaps(np.zeros((1, 2))), [np.inf])


def test_integer_psi_is_scipy_digamma_bit_for_bit():
    n = np.arange(1, 300001)
    psi = np.array([firl.kl_eval._psi(int(i)) for i in n])
    assert np.array_equal(psi, digamma(n))


# --------------------------------------------------- expert cloud vs exact side

def _gaussian_case(sigma, near, seed):
    """5x5 grid, T = 40, a centred Gaussian target; the policy is the
    zero-reward walk or the soft optimum of log rho_e. Returns the
    target, the policy's marginal and a 10,000-visit expert cloud."""
    mdp = build_gridworld(5, 5, init_state=0, horizon=40)
    rho_e = gaussian_density(mdp, (2.5, 2.5), sigma)
    reward = np.log(rho_e) if near else np.zeros(25)
    q = forward_marginals(mdp, soft_backward(mdp, reward, 1.0)).marginal_avg
    rng = np.random.default_rng(seed)
    cloud = CellCloud(mdp, sample_states(rho_e, 10000, rng), seed=rng)
    return rho_e, q, cloud


@pytest.mark.parametrize("near", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cloud_fkl_tracks_the_exact_divergence_on_a_gaussian(near, seed):
    # both sides are uniform on the same cells, so the error is the
    # entropy estimator's bias plus the noise of the expert visits:
    # within +-0.041 over seeds 0..49 in both cases (exact 0.634, 0.611)
    rho_e, q, cloud = _gaussian_case(1.0, near, seed)
    want = divergence_exact("fkl", rho_e, q)
    assert abs(knn_kl(cloud, q) - want) < 0.05


@pytest.mark.parametrize("near", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cloud_rkl_tracks_the_exact_divergence_without_tiny_mass_cells(near, seed):
    # sigma 2 leaves every cell at least 2.3% of the expert mass, about
    # 230 of the 10,000 visits, so nearly every cell still gets 400 probes;
    # the error stayed within -0.030..+0.041 over seeds 0..49 (exact 0.235,
    # 0.301). Cells of tiny expert mass bias it low (see the kl_eval
    # docstring).
    rho_e, q, cloud = _gaussian_case(2.0, near, seed)
    want = divergence_exact("rkl", rho_e, q)
    assert abs(knn_kl(q, cloud) - want) < 0.05


def test_cell_cloud_is_seed_deterministic():
    mdp = build_gridworld(3, 3, horizon=2)
    states = np.random.default_rng(15).integers(0, 9, size=200)
    a, b, c = (CellCloud(mdp, states, seed=s) for s in (16, 16, 17))
    assert a.entropy == b.entropy
    assert np.array_equal(a.cell_log_density, b.cell_log_density)
    assert a.cell_log_density.shape == (9,)
    assert a.entropy != c.entropy


def test_tree_queries_on_one_core_give_the_same_bits(monkeypatch):
    # the queries split over cores, each answer independent of the split
    mdp = build_gridworld(6, 6, horizon=2)
    states = np.random.default_rng(19).integers(0, 36, size=3000)
    q = np.random.default_rng(20).dirichlet(np.ones(36))
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(3000, 2)), rng.normal(size=(2500, 2)) + 0.5

    def results():
        cloud = CellCloud(mdp, states, seed=22)
        return (cloud.entropy, cloud.cell_log_density,
                knn_kl(cloud, q), knn_kl(q, cloud),
                knn_kl(x, y, seed=23))

    spread = results()
    monkeypatch.setattr(firl.kl_eval, "_workers", lambda: 1)
    one = results()
    for a, b in zip(spread, one):
        assert np.array_equal(a, b)


def test_tree_queries_use_every_usable_core(monkeypatch):
    assert firl.kl_eval._workers() == len(os.sched_getaffinity(0)) >= 1
    # a platform without an affinity call falls back to the core count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert firl.kl_eval._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert firl.kl_eval._workers() == 1


def _default_tree_cloud(mdp, states, seed):
    """entropy and cell_log_density by the formulas of the cloud, with
    the draws in its order and scipy's default (balanced, compact) tree."""
    rng = np.random.default_rng(seed)
    n, k, log_disc = states.size, 3, np.log(np.pi)
    pts = mdp.coords[states].astype(float) + rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = pts + rng.uniform(-1e-10, 1e-10, size=pts.shape)
    tree = cKDTree(pts)
    rho = tree.query(pts, k=[k + 1])[0][:, 0]
    entropy = float(digamma(n) - digamma(k) + log_disc + 2.0 * np.mean(np.log(rho)))
    per_cell = np.clip(2 * np.bincount(states, minlength=mdp.n_states), 32, 400)
    cells = np.repeat(np.arange(mdp.n_states), per_cell)
    probes = mdp.coords[cells].astype(float) + rng.uniform(-0.5, 0.5,
                                                           size=(cells.size, 2))
    nu = tree.query(probes, k=[k])[0][:, 0]
    log_density = digamma(k) - digamma(n + 1) - log_disc - 2.0 * np.log(nu)
    sums = np.bincount(cells, log_density, minlength=mdp.n_states)
    return entropy, sums / per_cell


@pytest.mark.parametrize("side, sigma", [(5, 1.0), (15, 3.0)])
def test_the_cloud_tree_shape_moves_no_value(side, sigma):
    # the cloud builds an unbalanced, non-compact tree; k-th distances
    # are exact on any tree shape, so every bit matches the default tree
    mdp = build_gridworld(side, side, init_state=0, horizon=2)
    rho_e = gaussian_density(mdp, (side / 2.0, side / 2.0), sigma)
    states = sample_states(rho_e, 10000, np.random.default_rng(24))
    entropy, cell_log_density = _default_tree_cloud(mdp, states, 25)
    cloud = CellCloud(mdp, states, seed=25)
    assert np.array_equal(cloud.entropy, entropy)
    assert np.array_equal(cloud.cell_log_density, cell_log_density)


def _probe_case():
    """A 4x4 cloud whose cells hold 0 to 250 visits, on both sides of
    the probe counts' floor and cap."""
    mdp = build_gridworld(4, 4, horizon=2)
    visits = np.array([0, 3, 16, 17, 150, 200, 201, 250, 1, 0, 5, 40, 60, 90, 120, 7])
    states = np.random.default_rng(31).permutation(np.repeat(np.arange(16), visits))
    return mdp, visits, states


def test_each_cell_gets_two_probes_per_visit_between_the_floor_and_the_cap(
        monkeypatch):
    mdp, visits, states = _probe_case()
    drawn = []
    original = firl.kl_eval._states_to_points

    def recorded(mdp, states, seed=0):
        drawn.append(np.array(states))
        return original(mdp, states, seed=seed)

    monkeypatch.setattr(firl.kl_eval, "_states_to_points", recorded)
    cloud = CellCloud(mdp, states, seed=32)
    visited, cells = drawn
    assert np.array_equal(visited, states)
    assert np.array_equal(cells, np.repeat(np.arange(16), np.clip(2 * visits, 32, 400)))
    assert np.array_equal(np.bincount(cells)[[0, 1, 3, 4, 7]], [32, 32, 34, 300, 400])
    # the cloud's own draws come first, so its entropy keeps the bits it
    # had with 400 probes in every cell
    assert cloud.entropy == 2.1690230970034055


def test_the_cloud_queries_at_most_three_per_visit_and_the_floor_per_cell(
        monkeypatch):
    # 30x30, 10,000 visits: n + 400 S would be 370,000 queries
    mdp = build_gridworld(30, 30, init_state=0, horizon=1)
    rho_e = gaussian_density(mdp, (15.0, 15.0), 5.0)
    states = sample_states(rho_e, 10000, np.random.default_rng(33))
    sizes = []
    original = firl.kl_eval._kth_distance

    def recorded(points, queries, k, p=2.0):
        sizes.append(len(queries))
        return original(points, queries, k, p=p)

    monkeypatch.setattr(firl.kl_eval, "_kth_distance", recorded)
    CellCloud(mdp, states, seed=34)
    assert sizes[0] == 10000
    assert sum(sizes) <= 3 * 10000 + 32 * 900


def test_the_cloud_checks_its_probe_table_against_the_byte_cap(monkeypatch):
    mdp, visits, states = _probe_case()
    m = int(np.clip(2 * visits, 32, 400).sum())
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 16 * m - 1)
    with pytest.raises(ValueError, match=r"kNN probe points \(m, 2\) = \(%d, 2\)" % m):
        CellCloud(mdp, states, seed=32)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 16 * m)
    CellCloud(mdp, states, seed=32)


def test_a_failed_tree_build_raises_at_construction(monkeypatch):
    class TreeFailure(Exception):
        pass

    def failing_tree(*args, **kwargs):
        raise TreeFailure("no tree")

    # a 5-point cloud takes the direct search unless the bound is 0
    monkeypatch.setattr(firl.kl_eval, "DIRECT_PAIRS", 0)
    monkeypatch.setattr(firl.kl_eval, "_ckdtree", lambda: failing_tree)
    with pytest.raises(TreeFailure, match="no tree"):
        CellCloud(build_gridworld(2, 2, horizon=2), [0, 1, 2, 3, 0])


def test_a_failed_direct_search_raises_at_construction(monkeypatch):
    class SearchFailure(Exception):
        pass

    def failing_search(*args, **kwargs):
        raise SearchFailure("no search")

    monkeypatch.setattr(firl.kl_eval, "_direct_kth", failing_search)
    with pytest.raises(SearchFailure, match="no search"):
        CellCloud(build_gridworld(2, 2, horizon=2), [0, 1, 2, 3, 0])


def test_cloud_fkl_is_inf_where_the_policy_never_goes():
    # from corner 0 in one step the walk reaches 0, 1 and 3 only
    mdp = build_gridworld(3, 3, init_state=0, horizon=1)
    q = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0)).marginal_avg
    assert q[8] == 0.0
    cloud = CellCloud(mdp, [0, 1, 3, 0, 1, 3, 8], seed=18)
    assert knn_kl(cloud, q) == np.inf
    assert np.isfinite(knn_kl(q, cloud))
    reached = CellCloud(mdp, [0, 1, 3, 0, 1, 3, 1], seed=18)
    assert np.isfinite(knn_kl(reached, q))


def test_knn_kl_returns_a_float_on_every_branch():
    mdp = build_gridworld(3, 3, init_state=0, horizon=1)
    q = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0)).marginal_avg
    cloud = CellCloud(mdp, [0, 1, 3, 0, 1, 3, 8], seed=18)
    rng = np.random.default_rng(24)
    values = (knn_kl(cloud, q), knn_kl(q, cloud),
              knn_kl(rng.normal(size=(20, 2)), rng.normal(size=(20, 2))))
    assert values[0] == np.inf
    assert all(type(v) is float for v in values)


def test_knn_kl_refuses_the_k_and_seed_a_cloud_would_ignore():
    # the estimate on a cloud uses KNN_K and the jitter of the cloud's build
    mdp = build_gridworld(3, 3, init_state=0, horizon=1)
    q = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0)).marginal_avg
    cloud = CellCloud(mdp, [0, 1, 3, 0, 1, 3, 1], seed=18)
    for ignored in ({"k": 5}, {"seed": 1}):
        with pytest.raises(ValueError, match="KNN_K"):
            knn_kl(cloud, q, **ignored)
        with pytest.raises(ValueError, match="KNN_K"):
            knn_kl(q, cloud, **ignored)
    assert knn_kl(cloud, q, k=3, seed=0) == knn_kl(cloud, q)


def test_cell_cloud_guards():
    mdp = build_gridworld(2, 2, horizon=2)
    with pytest.raises(ValueError, match="more than k cloud points"):
        CellCloud(mdp, [0, 1, 2])
    cloud = CellCloud(mdp, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="cell density has shape"):
        knn_kl(cloud, np.full(5, 0.2))


def test_policy_return_on_a_deterministic_chain():
    mdp = _chain(horizon=2)
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(3), 1.0))
    assert policy_return(mdp, sol, [0.0, 1.0, 2.0]) == pytest.approx(3.0)


def test_policy_return_of_constant_reward_is_the_horizon():
    mdp = build_gridworld(3, 3, slip_prob=0.1, horizon=7)
    rng = np.random.default_rng(6)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=9), 1.0))
    assert policy_return(mdp, sol, np.ones(9)) == pytest.approx(7.0, abs=1e-10)


def test_policy_return_shape_check():
    mdp = _chain()
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(3), 1.0))
    with pytest.raises(ValueError, match="one value per state"):
        policy_return(mdp, sol, np.zeros(5))


def test_states_to_points_jitter_stays_in_the_cell():
    mdp = build_gridworld(4, 4, horizon=2)
    states = np.arange(16)
    pts = _states_to_points(mdp, states, seed=7)
    assert np.all(np.abs(pts - mdp.coords) < 0.5)


def test_states_to_points_accepts_a_generator():
    mdp = build_gridworld(2, 2, horizon=2)
    a = _states_to_points(mdp, [0, 1, 2], seed=np.random.default_rng(8))
    b = _states_to_points(mdp, [0, 1, 2], seed=np.random.default_rng(8))
    assert np.array_equal(a, b)


def test_states_to_points_equals_the_indexed_sum_bit_for_bit():
    # take plus an in-place add of the same draw, without the temporaries
    mdp = build_gridworld(7, 5, horizon=2)
    states = np.random.default_rng(27).integers(0, 35, size=5000)
    want = mdp.coords[states].astype(float) + np.random.default_rng(28).uniform(
        -0.5, 0.5, size=(5000, 2))
    assert np.array_equal(_states_to_points(mdp, states, seed=28), want)
