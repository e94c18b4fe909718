"""Oracle self-tests: closed-form integrals, singularity handling, algebra."""

import math
import random

import pytest

from conicrect import DEFAULT_TOLERANCE, DomainError, IntegrandError, Tolerance, integrate


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


def _excess_integrand(a, b):
    # excess_finite's integrand in theta: a^2 cos^2 / sqrt(b^2 + a^2 cos^2)
    a2, b2 = a * a, b * b

    def f(phi):
        cos = math.cos(phi)
        w = a2 * cos * cos
        return w / math.sqrt(b2 + w)

    return f


def _theta(a, p):
    return math.atan2(math.sqrt((a - p) * (a + p)), p)


# Every bit the oracle reports, recorded before its panel was unrolled:
# (repr(value), repr(error_estimate), evaluations, converged).
PINNED = {
    "exp": (
        (math.exp, 0.0, 1.0, "none", DEFAULT_TOLERANCE),
        ("1.718281828459045", "0.0", 15, True),
    ),
    "cos-oscillating": (
        (lambda t: math.cos(30.0 * t), 0.0, 3.0, "none", DEFAULT_TOLERANCE),
        ("0.02979988878668522", "4.107557123738272e-16", 945, True),
    ),
    "excess-b/a=0.01": (
        (_excess_integrand(1.0, 0.01), 0.0, _theta(1.0, 0.3), "none", DEFAULT_TOLERANCE),
        ("0.9538455337813099", "1.1013941317754598e-14", 45, True),
    ),
    "excess-b/a=0.01-p=1e-6": (
        (_excess_integrand(1.0, 0.01), 0.0, _theta(1.0, 1e-6), "none", DEFAULT_TOLERANCE),
        ("0.9997254359748291", "1.7593848314175952e-14", 225, True),
    ),
    "singular-lo": (
        (lambda t: math.cos(t) / math.sqrt(t), 0.0, 1.0, "lo", DEFAULT_TOLERANCE),
        ("1.809048475800544", "9.155989676921463e-14", 15, True),
    ),
    "singular-hi": (
        (lambda t: 1.0 / math.sqrt(1.0 - t**4), 0.0, 1.0, "hi", DEFAULT_TOLERANCE),
        ("1.3110287771460376", "2.516410837845003e-16", 75, True),
    ),
    "singular-hi-kink": (
        (lambda t: (1.0 - t) ** -0.25, 0.0, 1.0, "hi", DEFAULT_TOLERANCE),
        ("1.333333333333012", "1.2971115256541359e-12", 1395, True),
    ),
    "singular-both": (
        (lambda t: t**-0.5 + (1.0 - t) ** -0.5, 0.0, 1.0, "both", DEFAULT_TOLERANCE),
        ("3.9999999999999774", "1.5211905424480242e-12", 90, True),
    ),
    "reversed": (
        (math.cos, 1.0, 0.0, "none", DEFAULT_TOLERANCE),
        ("-0.8414709848078965", "0.0", 15, True),
    ),
    "reversed-singular-lo": (
        (lambda t: 1.0 / math.sqrt(1.0 - t), 1.0, 0.0, "lo", DEFAULT_TOLERANCE),
        ("-1.9999999999999785", "4.1567510586802654e-14", 15, True),
    ),
    "budget-exhausted": (
        (
            lambda t: abs(t - 1.0 / 3.0),
            0.0,
            1.0,
            "none",
            Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_iter=60),
        ),
        ("0.2778201309957064", "0.009544838632354474", 75, False),
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_pinned_bits(case):
    (f, lo, hi, singular, tol), expected = PINNED[case]
    r = integrate(f, lo, hi, tol, singular)
    assert (repr(r.value), repr(r.error_estimate), r.evaluations, r.converged) == expected


def _nan_where(inside):
    return lambda t: math.nan if inside(t) else 1.0 + t


@pytest.mark.parametrize(
    "inside, node",
    [
        # the panel on [0, 1] samples 0.5, then 0.5 -/+ d_i for i = 0..6
        (lambda t: t > 0.7, "0.9957276855604063"),
        (lambda t: 0.6 < t < 0.8, "0.7930436177338456"),
        (lambda t: t < 0.3, "0.004272314439593694"),
        (lambda t: t == 0.5, "0.5"),
    ],
)
def test_nan_names_the_first_node_in_sampling_order(inside, node):
    with pytest.raises(IntegrandError) as info:
        integrate(_nan_where(inside), 0.0, 1.0)
    assert str(info.value) == f"integrand returned NaN at x={node}"


@pytest.mark.parametrize(
    "f",
    [
        lambda t: math.inf if t > 0.99 else 1.0,
        lambda t: math.inf if t > 0.99 else (-math.inf if t < 0.01 else 1.0),
    ],
    ids=["+inf", "+inf-and--inf"],
)
def test_infinite_values_are_not_nan_values(f):
    # the sums turn NaN, but no value was NaN, so nothing raises
    r = integrate(f, 0.0, 1.0, Tolerance(max_iter=200))
    assert (repr(r.value), repr(r.error_estimate), r.evaluations, r.converged) == (
        "nan",
        "nan",
        225,
        False,
    )
