"""Deterministic fluid limit of the status chain and its Gaussian corrections.

Rescaling the (undetermined, active, blocked) counts by n and time by n
turns the chain into the ODE system

    u' = -2u - a - b,   a' = u + b,   b' = u + a,
    u(0) = 1, a(0) = b(0) = 0,

solved by u(t) = 2 exp(-t) - 1 and a(t) = b(t) = 1 - exp(-t).  The
undetermined fraction hits zero at t* = ln 2, where a(t*) = 1/2.

Fluctuations around the trajectory are Gaussian with covariance obtained by
propagating the local jump covariance through the linearized flow.  The
drift Jacobian J satisfies J @ J = -J, so its exponential has the closed
form exp(sJ) = I + (1 - exp(-s)) J, and both absorption covariances are
exact closed forms (see :func:`covariance_matrix` and
:func:`discrete_step_covariance`).
"""

from __future__ import annotations

import math

import numpy as np

TIME_TO_ABSORPTION = math.log(2.0)


def t_star() -> float:
    """First zero of the undetermined fraction: ln 2."""
    return TIME_TO_ABSORPTION


def covariance_matrix() -> np.ndarray:
    """Covariance M of the limiting Gaussian vector at absorption time:

        M = int_0^t* P(s) G(s) P(s)^T ds = [[ 3/4, -3/8, -3/8],
                                            [-3/8,  1/4,  1/8],
                                            [-3/8,  1/8,  1/4]],

    with P(s) = exp((t* - s) J) the linearized flow and G(s) the local jump
    covariance (jump outer products weighted by their rates) at (u, a, b):

        G = [[4u + a + b, -2u - b, -2u - a],
             [-2u - b, u + b, u], [-2u - a, u, u + a]].

    Since exp(-(t* - s)) = e^s / 2, P(s) = I + (1 - e^s/2) J, while G(s) is
    affine in e^-s.  The integrand is therefore an exponential polynomial
    in e^s with exponents -1..2; its e^-s and constant terms cancel,
    leaving e^s A + e^2s B with

        A = [[ 3/2, -3/4, -3/4],     B = [[-1/2,  1/4,  1/4],
             [-3/4,  1/4,  1/2],          [ 1/4,    0, -1/4],
             [-3/4,  1/2,  1/4]],         [ 1/4, -1/4,    0]].

    As int_0^ln2 e^(ks) ds = (2^k - 1)/k, M = A + (3/2) B, which is
    rational; every entry is a dyadic fraction, so the float values are
    exact.  M is symmetric, positive semidefinite and singular: the three
    rescaled counts sum to one, so (1, 1, 1) spans its kernel.

    ``tests/oracles.py`` holds the ODE, G and P; ``tests/test_fluid.py``
    checks M against their quadrature.
    """
    return np.array([
        [3 / 4, -3 / 8, -3 / 8],
        [-3 / 8, 1 / 4, 1 / 8],
        [-3 / 8, 1 / 8, 1 / 4],
    ])


def clt_constants() -> tuple[float, float, float]:
    """(variance of the set-size statistic, variance of the first component,
    covariance of the two complementary set statistics), derived from the
    absorption covariance matrix M: (1/16, 3/4, -1/16).

    With Y the limit vector, the set-size fluctuation is Y2 + Y1/2 and its
    complement is Y3 + Y1/2.  The first component's variance is the
    continuous-time value M[0, 0] = 3/4, not the stopping-step variance of
    the chain, which is 3/4 - ln 2; see :func:`stopping_step_variance`.
    """
    m = covariance_matrix()
    var_size = m[1, 1] + m[0, 1] + m[0, 0] / 4
    var_first = m[0, 0]
    cov_pair = m[1, 2] + m[0, 1] / 2 + m[0, 2] / 2 + m[0, 0] / 4
    return float(var_size), float(var_first), float(cov_pair)


def discrete_step_covariance() -> np.ndarray:
    """Absorption covariance with the one-jump-per-step drift correction:
    M - (t*/4) f f^T with f = (-2, 1, 1) and M = :func:`covariance_matrix`.

    The chain takes exactly one transition per time increment 1/n, so the
    conditional covariance of an increment is the jump outer-product sum
    minus drift (x) drift; in continuous time that squared-drift term is
    O(dt) and drops out, here it survives.  Along the trajectory the drift
    is e^-s f, and J f = -f, so P(s) f = f - (1 - e^s/2) f = (e^s/2) f.
    The propagated correction is thus the constant f f^T / 4, and its
    integral over [0, t*] is (t*/4) f f^T.  It shifts the first
    component's variance from 3/4 down to 3/4 - ln 2 while leaving the
    set-size statistics (orthogonal to f) untouched.
    """
    f = np.array([-2.0, 1.0, 1.0])
    return covariance_matrix() - (TIME_TO_ABSORPTION / 4) * np.outer(f, f)


def stopping_step_variance() -> float:
    """Asymptotic variance of the rescaled stopping step: 3/4 - ln 2.

    The stopping step is the absorption time of the undetermined count,
    whose fluctuation equals the first limit component divided by the
    drift slope (which is -1 at t*); it is the [0, 0] entry of
    :func:`discrete_step_covariance`.
    """
    return float(discrete_step_covariance()[0, 0])
