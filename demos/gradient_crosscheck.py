"""Three independent routes to the same gradient on one small MDP:
the pairwise-marginal contraction, brute-force trajectory enumeration,
and central finite differences on the divergence itself. Then the
Monte Carlo estimator closing in on the exact value as the batch grows.

Run:  python3 demos/gradient_crosscheck.py
"""

import numpy as np

from firl.divergence import h_table
from firl.grad_engine import (analytic_grad_exact, analytic_grad_mc,
                              enumeration_grad, fd_grad_oracle)
from firl.mdp import build_gridworld
from firl.reward_model import apply_update, tabular_reward
from firl.soft_solver import forward_marginals, sample_trajectories, soft_backward


def main():
    rng = np.random.default_rng(3)
    mdp = build_gridworld(3, 3, horizon=4)
    model = apply_update(tabular_reward(9), rng.normal(0, 0.3, 9))
    rho_e = rng.dirichlet(np.full(9, 2.0))
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, 1.0))

    exact = analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
    enum = enumeration_grad(mdp, model, 1.0, "fkl", rho_e, sol=sol)
    fd = fd_grad_oracle(mdp, model, 1.0, "fkl", rho_e)

    print("gradient norm (exact contraction): %.6f" % np.linalg.norm(exact))
    print("|exact - enumeration| = %.2e" % np.linalg.norm(exact - enum))
    print("|exact - finite diff| = %.2e" % np.linalg.norm(exact - fd))
    print()

    h = h_table("fkl", rho_e, sol.marginal_avg)
    print("Monte Carlo estimator vs the exact gradient:")
    for n in (200, 2000, 20000):
        batch = sample_trajectories(mdp, sol, n, seed=0)
        mc = analytic_grad_mc(batch, model, 1.0, h)
        rel = np.linalg.norm(mc - exact) / np.linalg.norm(exact)
        print("  %6d trajectories  rel error %.4f" % (n, rel))


if __name__ == "__main__":
    main()
