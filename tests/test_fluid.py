"""Fluid limit: ODE solution, linearized flow, closed-form covariances
checked against a quadrature oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from cayley_greedy import (
    clt_constants,
    covariance_matrix,
    discrete_step_covariance,
    drift,
    flow_matrix,
    local_covariance,
    ode_solution,
    t_star,
)
from cayley_greedy.fluid import jacobian, stopping_step_variance

EXACT_M = [
    [Fraction(3, 4), Fraction(-3, 8), Fraction(-3, 8)],
    [Fraction(-3, 8), Fraction(1, 4), Fraction(1, 8)],
    [Fraction(-3, 8), Fraction(1, 8), Fraction(1, 4)],
]
EXPECTED_M = np.array(EXACT_M, dtype=float)


def quadrature_covariance(discrete: bool = False) -> np.ndarray:
    """Oracle for the closed forms: int_0^t* P(s) S(s) P(s)^T ds by a fixed
    composite Gauss-Legendre rule (4 pieces of 20 nodes), with
    P(s) = flow_matrix(t* - s) and S the local covariance, less the squared
    drift when ``discrete``.  The integrand is smooth, so the rule is exact
    to rounding."""
    x, w = np.polynomial.legendre.leggauss(20)
    total = np.zeros((3, 3))
    edges = np.linspace(0.0, t_star(), 5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for xi, wi in zip(x, w):
            s = mid + half * xi
            source = local_covariance(s)
            if discrete:
                f = np.array(drift(*ode_solution(s)[1:]))
                source = source - np.outer(f, f)
            p = flow_matrix(t_star() - s)
            total += wi * half * (p @ source @ p.T)
    return total


# ---------------------------------------------------------------------------
# Drift and trajectory
# ---------------------------------------------------------------------------

def test_drift_values():
    assert drift(1, 0, 0) == (-2, 1, 1)
    assert drift(0, 0.5, 0.5) == (-1, 0.5, 0.5)
    assert drift(0, 0, 0) == (0, 0, 0)


def test_trajectory_endpoints():
    p0 = ode_solution(0.0)
    assert (p0.u, p0.a, p0.b) == (1.0, 0.0, 0.0)
    ps = ode_solution(t_star())
    assert abs(ps.u) < 1e-15
    assert abs(ps.a - 0.5) < 1e-15 and abs(ps.b - 0.5) < 1e-15
    p1 = ode_solution(1.0)
    assert abs(p1.u - (2 / math.e - 1)) < 1e-15


def test_trajectory_rejects_negative_time():
    with pytest.raises(ValueError):
        ode_solution(-0.1)


def test_trajectory_solves_the_ode():
    h = 1e-5  # balances truncation against cancellation for the 1e-10 bound
    for t in np.linspace(h, t_star(), 100):
        lo = ode_solution(t - h)
        hi = ode_solution(t + h)
        du = (hi.u - lo.u) / (2 * h)
        da = (hi.a - lo.a) / (2 * h)
        db = (hi.b - lo.b) / (2 * h)
        mid = ode_solution(t)
        fu, fa, fb = drift(mid.u, mid.a, mid.b)
        assert abs(du - fu) < 1e-10
        assert abs(da - fa) < 1e-10
        assert abs(db - fb) < 1e-10


def test_trajectory_solves_the_ode_complex_step():
    # complex-step differentiation has no cancellation, so the residual of
    # the closed form can be pinned far below the finite-difference floor
    import cmath

    h = 1e-8
    for t in np.linspace(0.01, t_star(), 40):
        e = cmath.exp(-(t + 1j * h))
        du = (2 * e - 1).imag / h
        da = (1 - e).imag / h
        mid = ode_solution(t)
        fu, fa, fb = drift(mid.u, mid.a, mid.b)
        assert abs(du - fu) < 1e-12
        assert abs(da - fa) < 1e-12
        assert abs(da - fb) < 1e-12


def test_mass_conservation():
    for t in np.linspace(0, t_star(), 50):
        p = ode_solution(t)
        assert abs(p.u + p.a + p.b - 1.0) < 1e-14


def test_t_star_value_and_root():
    assert t_star() == math.log(2)
    root = scipy.optimize.brentq(lambda t: ode_solution(t).u, 0.1, 1.0,
                                 xtol=1e-15)
    assert abs(root - t_star()) < 1e-12
    assert abs(ode_solution(t_star()).u) < 1e-14


# ---------------------------------------------------------------------------
# Linearized flow
# ---------------------------------------------------------------------------

def test_flow_identity_at_zero():
    assert np.allclose(flow_matrix(0.0), np.eye(3), atol=1e-15)


def test_flow_group_property():
    s = 0.37
    assert np.abs(flow_matrix(s) @ flow_matrix(-s) - np.eye(3)).max() < 1e-10
    assert np.abs(
        flow_matrix(0.2) @ flow_matrix(0.5) - flow_matrix(0.7)
    ).max() < 1e-12


def test_flow_derivative_at_zero():
    h = 1e-7
    deriv = (flow_matrix(h) - flow_matrix(-h)) / (2 * h)
    assert np.abs(deriv - jacobian()).max() < 1e-6


def test_jacobian_squares_to_its_negative():
    j = jacobian()
    assert np.array_equal(j @ j, -j)


def flow_matrix_series(s: float, terms: int = 50) -> np.ndarray:
    """Taylor-series evaluation of exp(s J); oracle for :func:`flow_matrix`."""
    j = jacobian()
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ j * (s / k)
        acc = acc + term
    return acc


@pytest.mark.parametrize("s", [-1.5, -0.3, 0.0, 0.2, 0.7, 2.0])
def test_flow_matches_series_oracle(s):
    assert np.abs(flow_matrix(s) - flow_matrix_series(s)).max() < 1e-12


# ---------------------------------------------------------------------------
# Covariance source and the absorption covariance
# ---------------------------------------------------------------------------

def test_local_covariance_at_zero():
    g = local_covariance(0.0)
    assert np.allclose(g[0], [4, -2, -2])


def test_local_covariance_at_absorption():
    g = local_covariance(t_star())
    expected = np.array([[1, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(g - expected).max() < 1e-14


def test_local_covariance_symmetric():
    for s in np.linspace(0, t_star(), 20):
        g = local_covariance(s)
        assert np.array_equal(g, g.T)


def test_covariance_matrix_matches_closed_form():
    m = covariance_matrix()
    assert [[Fraction(x) for x in row] for row in m.tolist()] == EXACT_M
    assert np.abs(quadrature_covariance() - m).max() < 1e-10


def test_covariance_matrix_psd_and_singular():
    m = covariance_matrix()
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > -1e-10
    # the rescaled counts sum to one, so (1,1,1) spans the kernel
    ones = np.ones(3)
    assert np.abs(m @ ones).max() < 1e-8
    assert abs(np.linalg.det(m)) < 1e-10


def test_clt_constants():
    var_size, var_first, cov_pair = clt_constants()
    assert (var_size, var_first, cov_pair) == (1 / 16, 3 / 4, -1 / 16)
    # the two complementary statistics are almost surely opposite:
    # the variance of their sum vanishes
    assert 2 * var_size + 2 * cov_pair == 0


def test_discrete_step_covariance_closed_form():
    # one jump per step keeps the squared drift in the local covariance;
    # the drift is a (-1)-eigenvector of the Jacobian, so the correction is
    # exactly (t*/4) f f^T with f = (-2, 1, 1)
    f = np.array([-2.0, 1.0, 1.0])
    expected = EXPECTED_M - (t_star() / 4) * np.outer(f, f)
    mc = discrete_step_covariance()
    assert np.array_equal(mc, expected)
    assert np.abs(quadrature_covariance(discrete=True) - mc).max() < 1e-10


def test_drift_is_a_decaying_eigenvector():
    # drift(s) = exp(-s) f and J f = -f: the derivation of the correction
    f = np.array([-2.0, 1.0, 1.0])
    assert np.array_equal(jacobian() @ f, -f)
    for s in np.linspace(0, t_star(), 20):
        d = np.array(drift(*ode_solution(s)[1:]))
        assert np.abs(d - math.exp(-s) * f).max() < 1e-15


def test_discrete_correction_leaves_size_statistics_alone():
    mc = discrete_step_covariance()
    v = np.array([0.5, 1.0, 0.0])
    w = np.array([0.5, 0.0, 1.0])
    assert abs(v @ mc @ v - 1 / 16) < 1e-10
    assert abs(v @ mc @ w + 1 / 16) < 1e-10


def test_stopping_step_variance_value():
    assert stopping_step_variance() == 0.75 - math.log(2)
