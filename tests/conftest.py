import math
from pathlib import Path

import numpy as np
import pytest

import sweepsolve as sw

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


def drift_halfspace_scenario(lambdas=(0.05,), T=1.0, gamma=1.0, h_max=math.inf):
    """Moving half-line {z >= t}: x(t) = t - lam*(1 - exp(-t/lam)) for gamma = 1."""
    op = sw.IdentityOperator() if gamma == 1.0 else sw.ScaledIdentityOperator(gamma)
    return sw.Scenario(
        n=1, T=T, x0=np.array([0.0]), operator=op,
        moving_set=sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0),
        lambdas=tuple(lambdas),
        integrator=sw.IntegratorConfig(h_max=h_max))


def decay_scenario(gamma=2.0, T=0.1, x0=1.0, lambdas=(0.1,), h_max=math.inf):
    """Static {z <= 0} with infeasible start: x(t) = x0*exp(-gamma*t/lam)."""
    op = sw.IdentityOperator() if gamma == 1.0 else sw.ScaledIdentityOperator(gamma)
    return sw.Scenario(
        n=1, T=T, x0=np.array([float(x0)]), operator=op,
        moving_set=sw.HalfSpaceSpec(normal=[1.0]),
        lambdas=tuple(lambdas),
        integrator=sw.IntegratorConfig(h_max=h_max),
        allow_infeasible_start=True)


def state_feedback_scenario(lambdas=(0.04,), T=1.0):
    """{z >= t + 0.5 x}: the tube bound is tight (phi -> 2*lam)."""
    return sw.Scenario(
        n=1, T=T, x0=np.array([0.0]), operator=sw.IdentityOperator(),
        moving_set=sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0,
                                    state_gain=-0.5, state_direction=[1.0]),
        lambdas=tuple(lambdas))


def moving_ball_scenario(lambdas=(0.02,), T=2.0, gamma=1.0):
    op = sw.IdentityOperator() if gamma == 1.0 else sw.ScaledIdentityOperator(gamma)
    return sw.Scenario(
        n=2, T=T, x0=np.zeros(2), operator=op,
        moving_set=sw.BallSpec(center=[0.0, 0.0], velocity=[1.0, 0.0], radius=1.0),
        lambdas=tuple(lambdas))


def static_interior_scenario(lambdas=(0.1,)):
    return sw.Scenario(
        n=2, T=1.0, x0=np.array([0.2, 0.1]), operator=sw.IdentityOperator(),
        moving_set=sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
        lambdas=tuple(lambdas))


def wedge_scenario(lambdas=(0.1, 0.05, 0.025), T=1.0):
    return sw.Scenario(
        n=2, T=T, x0=np.zeros(2), operator=sw.IdentityOperator(),
        moving_set=sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]),
        lambdas=tuple(lambdas),
        alpha_assumed=math.sqrt(2.0) / 2.0)
