"""Release gate: thirteen numbered end-to-end checks with frozen
tolerances. One test per criterion; each prints a single verdict line
with its measured margin (visible under -s, and on any failure).

The heavy runs are shared through module fixtures: the Gaussian
density-matching pair feeds criteria 6 and 13, the trajectory-IRL run
feeds 10, 11 and 13, and the gradient sweep feeds 1 and 13. Everything
is seeded; the whole module is a couple of dozen seconds.
"""

import hashlib

import numpy as np
import pytest

from firl.divergence import KINDS, ExpertDensity, h_f
from firl.grad_engine import (analytic_grad_exact, enumeration_grad,
                              fd_grad_oracle, gradcheck_suite)
from firl.kl_eval import knn_kl
from firl.mdp import build_gridworld, modify_dynamics
from firl.reward_model import apply_update, reward_vector, tabular_reward
from firl.run_io import fmt_float, write_metrics_csv
from firl.scenarios import (density_matching, dynamics_transfer,
                            irl_from_trajectories, percentile_weights,
                            prior_reward_downstream, reward_recovery_check,
                            run_scenario)
from firl.soft_solver import forward_marginals, soft_backward
from firl.trainer import potential_shape

# generator formulas over complex arguments, local to this module so the
# h-consistency check shares nothing with the implementation
_COMPLEX_F = {
    "fkl": lambda u: u * np.log(u),
    "rkl": lambda u: -np.log(u),
    "js": lambda u: u * np.log(u) - (1.0 + u) * np.log((1.0 + u) / 2.0),
}


def _report(num, ok, detail):
    print("criterion %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


def _instance(seed=0, slip=0.0, grid=(3, 3), horizon=4, alpha=1.0):
    rng = np.random.default_rng(seed)
    mdp = build_gridworld(*grid, slip_prob=slip, horizon=horizon)
    model = apply_update(tabular_reward(mdp.n_states),
                         rng.normal(0, 0.3, mdp.n_states))
    rho_e = rng.dirichlet(np.full(mdp.n_states, 2.0))
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, alpha))
    return mdp, model, rho_e, sol


@pytest.fixture(scope="module")
def gradcheck_records():
    return gradcheck_suite(n_instances=20, seed=0)


@pytest.fixture(scope="module")
def gauss_runs():
    out = {}
    for kind in ("fkl", "rkl"):
        sc = density_matching("gaussian", grid=(5, 5), kind=kind, seed=0)
        out[kind] = (sc, run_scenario(sc))
    return out


@pytest.fixture(scope="module")
def irl_run():
    mdp = build_gridworld(5, 5, horizon=20)
    gt = np.zeros(25)
    gt[24] = 1.0
    sc = irl_from_trajectories(mdp, 16, gt, seed=0)
    return sc, run_scenario(sc)


def test_criterion_01_analytic_gradient_matches_the_fd_oracle(
        gradcheck_records):
    worst = max(r["rel_error"] for r in gradcheck_records)
    kinds = {r["kind"] for r in gradcheck_records}
    reward_kinds = {r["reward_kind"] for r in gradcheck_records}
    ok = (worst < 1e-4 and len(gradcheck_records) == 20
          and kinds == set(KINDS) and reward_kinds == {"tabular", "mlp"})
    _report(1, ok, "worst rel_error %.3g < 1e-4 over 20 instances, "
                   "kinds %s, reward kinds %s"
            % (worst, sorted(kinds), sorted(reward_kinds)))


def test_criterion_02_contraction_equals_trajectory_enumeration():
    worst = 0.0
    for seed, slip in ((1, 0.0), (2, 0.2), (3, 0.0)):
        mdp, model, rho_e, sol = _instance(seed=seed, slip=slip, alpha=0.8)
        for kind in KINDS:
            ga = analytic_grad_exact(mdp, model, 0.8, kind,
                                     rho_e=rho_e, sol=sol)
            ge = enumeration_grad(mdp, model, 0.8, kind, rho_e, sol=sol)
            worst = max(worst, float(np.linalg.norm(ga - ge)))
    _report(2, worst < 1e-10,
            "max deviation %.3g < 1e-10 over 9 instance/kind pairs" % worst)


def test_criterion_03_gradient_vanishes_at_the_matched_density():
    mdp, model, _, sol = _instance(seed=4)
    matched = ExpertDensity(sol.marginal_avg)
    worst = max(float(np.linalg.norm(
        analytic_grad_exact(mdp, model, 1.0, kind,
                            rho_e=matched, sol=sol)))
        for kind in KINDS)
    _report(3, worst < 1e-9, "max gradient norm %.3g < 1e-9" % worst)


def test_criterion_04_rkl_gradient_ignores_density_scale():
    mdp, model, rho_e, sol = _instance(seed=5)
    base = analytic_grad_exact(mdp, model, 1.0, "rkl",
                               rho_e=rho_e, sol=sol)
    worst = max(float(np.max(np.abs(
        analytic_grad_exact(
            mdp, model, 1.0, "rkl",
            rho_e=ExpertDensity(c * rho_e, normalized=False),
            sol=sol) - base)))
        for c in (0.1, 2.0, 10.0))
    _report(4, worst < 1e-12,
            "max deviation %.3g < 1e-12 for scales 0.1, 2, 10" % worst)


def test_criterion_05_h_transform_conformance():
    spot = max(abs(h_f("fkl", 1 / np.e) + 1 / np.e),
               abs(h_f("rkl", 1 / np.e) - 2.0),
               abs(h_f("js", 1 / np.e) + np.log(1 + 1 / np.e)))
    u = np.geomspace(1e-3, 1e3, 61)
    resid = 0.0
    for kind in KINDS:
        fp = np.imag(_COMPLEX_F[kind](u + 1e-20j)) / 1e-20
        want = _COMPLEX_F[kind](u.astype(complex)).real - fp * u
        if kind == "js":
            want = want - np.log(2.0)
        resid = max(resid, float(np.max(np.abs(h_f(kind, u) - want))))
    monotone = all(np.all(np.diff(h_f(kind, u)) < 0) for kind in KINDS)
    ok = spot < 1e-12 and resid < 1e-8 and monotone
    _report(5, ok, "spot error %.3g, f - f'u residual %.3g < 1e-8, "
                   "h decreasing on [1e-3, 1e3]" % (spot, resid))


def test_criterion_06_density_matching_converges(gauss_runs):
    finals = {kind: run[1].metrics[-1]["exact_" + kind]
              for kind, run in gauss_runs.items()}
    ok = all(v < 0.05 for v in finals.values())
    _report(6, ok, "final exact divergence fkl %.6f, rkl %.6f, both < 0.05"
            % (finals["fkl"], finals["rkl"]))


def test_criterion_07_discriminator_reaches_its_optimum():
    from firl.density_ratio import discriminator_fit, state_frequencies
    rng = np.random.default_rng(0)
    n_states, n = 6, 4000
    rho_e = rng.dirichlet(np.full(n_states, 5.0))
    rho_a = rng.dirichlet(np.full(n_states, 5.0))
    e = rng.choice(n_states, size=n, p=rho_e)
    a = rng.choice(n_states, size=n, p=rho_a)
    z = discriminator_fit(e, state_frequencies(a, n_states))
    d = 1.0 / (1.0 + np.exp(-z))
    c_e = np.bincount(e, minlength=n_states) / n
    c_a = np.bincount(a, minlength=n_states) / n
    gap = float(np.max(np.abs(d - c_e / (c_e + c_a))))
    _report(7, gap < 1e-3,
            "max |D - cE/(cE+cA)| %.3g < 1e-3 on %d well-sampled states"
            % (gap, n_states))


def test_criterion_08_knn_kl_estimator_sanity():
    rng = np.random.default_rng(0)
    same = abs(knn_kl(rng.normal(size=(5000, 2)),
                      rng.normal(size=(5000, 2))))
    shifted = np.median([
        knn_kl(np.random.default_rng(s).normal(0, 1, (10000, 1)),
               np.random.default_rng(100 + s).normal(1, 1, (10000, 1)))
        for s in range(5)])
    ok = same < 0.05 and abs(shifted - 0.5) < 0.08
    _report(8, ok, "identical-dist estimate %.4f < 0.05, shifted-Gaussian "
                   "median %.4f within 0.5 +/- 0.08" % (same, shifted))


def test_criterion_09_potential_shaping_keeps_the_policy():
    rng = np.random.default_rng(11)
    mdp = build_gridworld(4, 4, slip_prob=0.1, horizon=6)
    reward = rng.normal(size=16)
    phi = rng.normal(size=16)
    base = soft_backward(mdp, reward, 0.7)
    shaped = soft_backward(mdp, potential_shape(reward, phi, gamma=1.0,
                                                horizon=6), 0.7)
    gap = float(np.max(np.abs(shaped.policy - base.policy)))
    _report(9, gap < 1e-10, "max policy deviation %.3g < 1e-10" % gap)


def test_criterion_10_recovered_reward_retrains_the_expert(irl_run):
    sc, result = irl_run
    rec = dynamics_transfer(result.model, sc.mdp, sc.mdp, sc.gt_reward,
                            alpha=sc.cfg.alpha)
    weights = percentile_weights(sc.notes["expert_marginal"])
    fit = reward_recovery_check(result.model, sc.gt_reward, weights)
    ok = rec["ratio"] >= 0.9 and fit["offset_r2"] >= 0.9
    _report(10, ok, "retrained return ratio %.4f >= 0.9, offset-fit R^2 "
                    "%.4f >= 0.9 (offset %.3f)"
            % (rec["ratio"], fit["offset_r2"], fit["offset"]))


def test_criterion_11_reward_survives_a_dynamics_change(irl_run):
    sc, result = irl_run
    target = modify_dynamics(sc.mdp, action_remap={3: 4}, slip_override=0.3)
    rec = dynamics_transfer(result.model, sc.mdp, target, sc.gt_reward,
                            alpha=0.3)
    _report(11, rec["ratio"] >= 0.8,
            "return ratio on perturbed dynamics %.4f >= 0.8" % rec["ratio"])


def test_criterion_12_trained_prior_helps_downstream():
    sc = density_matching("uniform", grid=(6, 6), iterations=200, seed=0)
    result = run_scenario(sc)
    rows = prior_reward_downstream(reward_vector(result.model))
    controls = {r["alpha"]: r["return"] for r in rows if r["lambda"] == 0.0}
    gains = [(r["return"] - controls[r["alpha"]], r["lambda"], r["alpha"])
             for r in rows if r["lambda"] > 0.0]
    best = max(gains)
    _report(12, best[0] > 0.0,
            "best gain over the unshaped control %+.5f at lambda %s, "
            "alpha %s (%d of %d cells positive)"
            % (best[0], best[1], best[2],
               sum(1 for g in gains if g[0] > 0), len(gains)))


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _gradcheck_lines(records):
    lines = ["instance,n_states,n_actions,horizon,kind,reward_kind,rel_error"]
    for r in records:
        lines.append("%d,%d,%d,%d,%s,%s,%s"
                     % (r["instance"], r["n_states"], r["n_actions"],
                        r["horizon"], r["kind"], r["reward_kind"],
                        fmt_float(r["rel_error"])))
    return "\n".join(lines)


def test_criterion_13_reruns_are_bit_identical(tmp_path, gradcheck_records,
                                               gauss_runs, irl_run):
    pairs = []
    sc_g = density_matching("gaussian", grid=(5, 5), kind="fkl", seed=0)
    pairs.append(("density", gauss_runs["fkl"][1].metrics,
                  run_scenario(sc_g).metrics))
    mdp = build_gridworld(5, 5, horizon=20)
    gt = np.zeros(25)
    gt[24] = 1.0
    sc_i = irl_from_trajectories(mdp, 16, gt, seed=0)
    pairs.append(("irl", irl_run[1].metrics, run_scenario(sc_i).metrics))
    mismatches = []
    for name, first, second in pairs:
        a, b = str(tmp_path / (name + "_a.csv")), str(tmp_path / (name + "_b.csv"))
        write_metrics_csv(a, first)
        write_metrics_csv(b, second)
        if _sha(a) != _sha(b):
            mismatches.append(name)
    again = gradcheck_suite(n_instances=20, seed=0)
    if _gradcheck_lines(gradcheck_records) != _gradcheck_lines(again):
        mismatches.append("gradcheck")
    _report(13, not mismatches,
            "density, irl and gradcheck CSVs bit-identical on rerun"
            if not mismatches else "mismatched: %s" % mismatches)
