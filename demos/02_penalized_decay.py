"""Penalized dynamics against closed-form solutions.

Two scalar problems with known solutions:
  * static half-line {z <= 0}, A = I:   x(t) = x0 * exp(-t/lam)
  * same set, A = 2I (degenerate case): x(t) = x0 * exp(-2 t/lam)
The second shows how the operator constant m enters the decay rate.
A small refinement study recovers RK4's nominal order 4, and halving the
guard's step through h_max shows the accuracy setting RK4 offers.
"""

import math

import numpy as np

import sweepsolve as sw


def scenario(gamma, T, h_max=math.inf):
    op = sw.IdentityOperator() if gamma == 1.0 else sw.ScaledIdentityOperator(gamma)
    return sw.Scenario(
        n=1, T=T, x0=np.array([1.0]), operator=op,
        moving_set=sw.HalfSpaceSpec(normal=[1.0]),
        lambdas=(0.1,),
        integrator=sw.IntegratorConfig(h_max=h_max),
        allow_infeasible_start=True)


def main():
    lam = 0.1

    print("== A = I:  x(t) = exp(-t/lam) ==")
    traj = sw.integrate(scenario(1.0, T=0.1), lam)
    print(f"computed x(0.1) = {traj.states[-1, 0]:.8f}")
    print(f"exact    x(0.1) = {math.exp(-1.0):.8f}")

    print("\n== A = 2I: x(t) = exp(-2t/lam) ==")
    traj = sw.integrate(scenario(2.0, T=0.1, h_max=lam / 100), lam)
    print(f"computed x(0.1) = {traj.states[-1, 0]:.8f}")
    print(f"exact    x(0.1) = {math.exp(-2.0):.8f}")
    print(f"phi starts at {traj.phis[0]:.3f} (= |A(x0)| outside) and "
          f"decays to {traj.phis[-1]:.2e}")

    print("\n== observed RK4 convergence order on the 2I problem ==")
    T = 0.2
    exact = math.exp(-2.0 * T / lam)
    errs = [abs(sw.integrate(scenario(2.0, T=T, h_max=lam / k), lam).states[-1, 0] - exact)
            for k in (16, 32)]
    print(f"h = lam/16 -> lam/32: errors {errs[0]:.3e} -> {errs[1]:.3e}, "
          f"observed order {math.log2(errs[0] / errs[1]):.2f} (nominal 4)")

    print("\n== accuracy setting: RK4 at h_max = guard/2 against RK4 at the guard ==")
    guard = 0.2 * lam / (1.0 + 2.0)     # c*lambda/(1 + M) with c = 0.2 and M = 2
    for label, h_max in (("guard", math.inf), ("guard/2", guard / 2)):
        traj = sw.integrate(scenario(2.0, T=T, h_max=h_max), lam)
        print(f"h = {label:7s} = {traj.stats.h:.2e}: {traj.stats.n_accepted} steps, "
              f"{traj.stats.rhs_evals} RHS evaluations, "
              f"final error {abs(traj.states[-1, 0] - exact):.2e}")


if __name__ == "__main__":
    main()
