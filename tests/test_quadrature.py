"""Oracle self-tests: closed-form integrals, singularity handling, algebra."""

import math
import random

import pytest

from conicrect import DomainError, IntegrandError, Tolerance, integrate


def test_polynomial():
    r = integrate(lambda t: t, 0.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(0.5, abs=1e-15)


def test_inverse_sqrt_endpoint():
    r = integrate(lambda t: 1.0 / math.sqrt(1.0 - t), 0.0, 1.0, singular_endpoints="hi")
    assert r.converged
    assert abs(r.value - 2.0) < 1e-12


@pytest.mark.parametrize("sigma", [-0.5, -0.25])
def test_power_singularity_relative_error(sigma):
    exact = 1.0 / (1.0 + sigma)
    r = integrate(lambda t: (1.0 - t) ** sigma, 0.0, 1.0, singular_endpoints="hi")
    assert r.converged
    assert abs(r.value - exact) / exact < 1e-12


def test_both_endpoints_singular():
    r = integrate(
        lambda t: t**-0.5 + (1.0 - t) ** -0.5, 0.0, 1.0, singular_endpoints="both"
    )
    assert abs(r.value - 4.0) < 1e-12


def test_lemniscate_integrand_vs_frozen():
    # quarter-arc integral; frozen value computed with this oracle and
    # confirmed against the AGM route in test_agm
    r = integrate(
        lambda t: 1.0 / math.sqrt(1.0 - t**4), 0.0, 1.0, singular_endpoints="hi"
    )
    assert abs(r.value - 1.3110287771460599) < 1e-12


def test_additivity_random_splits():
    rng = random.Random(1234)
    f = lambda t: math.exp(-t) * math.cos(3.0 * t)
    whole = integrate(f, 0.0, 2.0).value
    for _ in range(20):
        b = rng.uniform(0.05, 1.95)
        split = integrate(f, 0.0, b).value + integrate(f, b, 2.0).value
        assert abs(split - whole) < 1e-12


def test_linearity():
    f = math.sin
    g = lambda t: t * t
    alpha, beta = 2.5, -1.25
    combo = integrate(lambda t: alpha * f(t) + beta * g(t), 0.0, 1.5).value
    parts = alpha * integrate(f, 0.0, 1.5).value + beta * integrate(g, 0.0, 1.5).value
    assert abs(combo - parts) < 1e-12


def test_orientation():
    fwd = integrate(math.cos, 0.0, 1.0)
    rev = integrate(math.cos, 1.0, 0.0)
    assert rev.value == -fwd.value


def test_orientation_swaps_singular_flags():
    fwd = integrate(
        lambda t: 1.0 / math.sqrt(1.0 - t), 0.0, 1.0, singular_endpoints="hi"
    ).value
    rev = integrate(
        lambda t: 1.0 / math.sqrt(1.0 - t), 1.0, 0.0, singular_endpoints="lo"
    ).value
    assert abs(rev + fwd) < 1e-13


def test_empty_interval():
    r = integrate(lambda t: 1.0 / t, 3.0, 3.0)
    assert r.value == 0.0 and r.converged and r.evaluations == 0


def test_nan_is_hard_error():
    with pytest.raises(IntegrandError):
        integrate(lambda t: math.nan, 0.0, 1.0)


def test_determinism():
    f = lambda t: math.sqrt(abs(math.sin(7.0 * t)))
    r1 = integrate(f, 0.0, 3.0)
    r2 = integrate(f, 0.0, 3.0)
    assert r1 == r2


def test_budget_exhaustion_reports_not_converged():
    tol = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_iter=60)
    # needle the budget: 60 evaluations allow no refinement of a rough integrand
    r = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, tol)
    assert not r.converged
    assert r.error_estimate > 0.0
    assert abs(r.value - 5.0 / 18.0) < 1e-2  # best estimate still sane


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(abs_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=bad)
        with pytest.raises(DomainError):
            Tolerance(rel_tol=bad)
    with pytest.raises(DomainError):
        integrate(lambda t: t, 0.0, 1.0, singular_endpoints="left")  # type: ignore[arg-type]


def test_error_estimate_honest_when_converged():
    r = integrate(lambda t: math.exp(t), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - (math.e - 1.0)) <= max(1e-13, r.error_estimate)
