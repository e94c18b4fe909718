"""Oracle self-tests: closed-form integrals, singularity handling, algebra."""

import math
import random

import pytest

from conicrect import DomainError, IntegrandError, integrate, quadrature

# A rough integrand under a contract it cannot meet in 60 evaluations.
TIGHT_BUDGET = {"_ABS_TOL": 1e-15, "_REL_TOL": 1e-15, "_MAX_EVALUATIONS": 60}


def _at_hi(f, edge):
    # the caller's square-root substitution x = edge - v^2 for a singular
    # upper end: the integral of f over [lo, edge] is that of g over
    # [0, sqrt(edge - lo)]
    return lambda v: 2.0 * v * f(edge - v * v)


def test_polynomial():
    r = integrate(lambda t: t, 0.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(0.5, abs=1e-15)


def test_inverse_sqrt_endpoint():
    r = integrate(_at_hi(lambda t: 1.0 / math.sqrt(1.0 - t), 1.0), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-12


@pytest.mark.parametrize("sigma", [-0.5, -0.25])
def test_power_singularity_relative_error(sigma):
    exact = 1.0 / (1.0 + sigma)
    # 1 - x is v^2 exactly, so no node rounds onto the edge
    r = integrate(lambda v: 2.0 * v * (v * v) ** sigma, 0.0, 1.0)
    assert r.converged
    assert abs(r.value - exact) / exact < 1e-12


def test_both_endpoints_singular():
    # two calls split at the midpoint, one substitution at each edge
    f = lambda t: t**-0.5 + (1.0 - t) ** -0.5
    left = integrate(lambda v: 2.0 * v * f(v * v), 0.0, math.sqrt(0.5))
    right = integrate(_at_hi(f, 1.0), 0.0, math.sqrt(0.5))
    assert abs(left.value + right.value - 4.0) < 1e-12


def test_lemniscate_integrand_vs_frozen():
    # quarter-arc integral; frozen value computed with this oracle and
    # confirmed against the AGM route in test_agm
    r = integrate(_at_hi(lambda t: 1.0 / math.sqrt(1.0 - t**4), 1.0), 0.0, 1.0)
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
    # over [1, 0] the singular end is lo; the caller's substitution at x = 1
    # serves both orientations, since reversing v's interval negates too
    g = _at_hi(lambda t: 1.0 / math.sqrt(1.0 - t), 1.0)
    fwd = integrate(g, 0.0, 1.0).value
    rev = integrate(g, 1.0, 0.0).value
    assert rev == -fwd
    assert abs(fwd - 2.0) < 1e-13


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


def test_budget_exhaustion_reports_not_converged(monkeypatch):
    # needle the budget: 60 evaluations allow no refinement of a rough integrand
    for name, value in TIGHT_BUDGET.items():
        monkeypatch.setattr(quadrature, name, value)
    r = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0)
    assert not r.converged
    assert r.error_estimate > 0.0
    assert abs(r.value - 5.0 / 18.0) < 1e-2  # best estimate still sane


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
# (repr(value), repr(error_estimate), evaluations, converged).  The
# singular cases carry the caller's substitution x = edge -/+ v^2 and were
# recorded when the oracle made it on request; the one-panel cases were
# recorded before it left after a first panel that meets the contract.
PINNED = {
    "exp": (
        (math.exp, 0.0, 1.0),
        ("1.718281828459045", "0.0", 15, True),
    ),
    "cos-oscillating": (
        (lambda t: math.cos(30.0 * t), 0.0, 3.0),
        ("0.02979988878668522", "4.107557123738272e-16", 945, True),
    ),
    "excess-b/a=0.01": (
        (_excess_integrand(1.0, 0.01), 0.0, _theta(1.0, 0.3)),
        ("0.9538455337813099", "1.1013941317754598e-14", 45, True),
    ),
    "excess-b/a=0.01-p=1e-6": (
        (_excess_integrand(1.0, 0.01), 0.0, _theta(1.0, 1e-6)),
        ("0.9997254359748291", "1.7593848314175952e-14", 225, True),
    ),
    "singular-lo": (
        (lambda v: 2.0 * v * (math.cos(v * v) / math.sqrt(v * v)), 0.0, 1.0),
        ("1.809048475800544", "9.155989676921463e-14", 15, True),
    ),
    "singular-hi": (
        (_at_hi(lambda t: 1.0 / math.sqrt(1.0 - t**4), 1.0), 0.0, 1.0),
        ("1.3110287771460376", "2.516410837845003e-16", 75, True),
    ),
    "reversed": (
        (math.cos, 1.0, 0.0),
        ("-0.8414709848078965", "0.0", 15, True),
    ),
    "reversed-singular-lo": (
        (_at_hi(lambda t: 1.0 / math.sqrt(1.0 - t), 1.0), 1.0, 0.0),
        ("-1.9999999999999785", "4.1567510586802654e-14", 15, True),
    ),
    "budget-exhausted": (
        (lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, TIGHT_BUDGET),
        ("0.2778201309957064", "0.009544838632354474", 75, False),
    ),
    "one-panel": (
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 0.5),
        ("0.46364760900080615", "4.0742653561789426e-16", 15, True),
    ),
    # the same first panel misses a contract set at call time
    "one-panel-tight-contract": (
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 0.5, {"_ABS_TOL": 1e-16, "_REL_TOL": 1e-16}),
        ("0.46364760900080615", "2.3294179792273662e-20", 45, True),
    ),
    "one-panel-negative": (
        (lambda t: -math.log1p(t), 0.0, 0.5),
        ("-0.10819766216224658", "1.9024407928118017e-19", 15, True),
    ),
    # the panel's sum is -0.0, and the value is -0.0 + 0.0 = 0.0
    "one-panel-negative-zero": (
        (lambda t: -0.0, 0.0, 1.0),
        ("0.0", "0.0", 15, True),
    ),
    "reversed-one-panel": (
        (lambda t: 1.0 / (1.0 + t * t), 0.5, 0.0),
        ("-0.46364760900080615", "4.0742653561789426e-16", 15, True),
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_pinned_bits(case, monkeypatch):
    (f, lo, hi, *contract), expected = PINNED[case]
    for name, value in (contract[0] if contract else {}).items():
        monkeypatch.setattr(quadrature, name, value)
    r = integrate(f, lo, hi)
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
    "f, shown, node",
    [
        (lambda t: math.inf if t > 0.99 else 1.0, "inf", "0.9957276855604063"),
        (
            lambda t: math.inf if t > 0.99 else (-math.inf if t < 0.01 else 1.0),
            "-inf",
            "0.004272314439593694",
        ),
    ],
    ids=["+inf", "+inf-and--inf"],
)
def test_infinite_values_are_not_nan_values(f, shown, node):
    # an infinity fails the first panel, named as what it is, not as NaN
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    with pytest.raises(IntegrandError) as info:
        integrate(counted, 0.0, 1.0)
    assert str(info.value) == f"integrand returned {shown} at x={node}"
    assert len(calls) == 15


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)],
)
def test_non_finite_limits_or_width_are_domain_errors(lo, hi):
    with pytest.raises(DomainError):
        integrate(lambda t: 1.0, lo, hi)
    with pytest.raises(DomainError):
        integrate(lambda t: 1.0, hi, lo)


def test_finite_values_whose_panel_sum_overflows_integrate():
    # the weighted sum of the 15 values overflows, the integral does not;
    # the panel is summed again on the same values, scaled, without new calls
    calls = []

    def big(t):
        calls.append(t)
        return 1e308

    r = integrate(big, 0.0, 1.0)
    assert (r.value, r.converged, r.evaluations, len(calls)) == (1e308, True, 15, 15)
    r = integrate(lambda t: 1e308, 0.0, 0.5)
    assert (r.value, r.converged) == (5e307, True)
    # the Kronrod sum is finite but the sum of |f - resk/2| is not
    r = integrate(lambda t: 1.7e308 if t > 0.5 else -1.7e308, 0.0, 1.0)
    assert math.isfinite(r.error_estimate) and r.converged and abs(r.value) <= 1e-12 * 1.7e308


def test_finite_values_that_overflow_raise():
    # every value is finite, but the integral is not
    with pytest.raises(IntegrandError, match="overflows"):
        integrate(lambda t: 1e300, 0.0, 1e10)
    # an infinite first panel passes the contract test at once, and still raises
    with pytest.raises(IntegrandError, match="overflows"):
        integrate(lambda t: 1.5e308, 0.0, 2.0)
