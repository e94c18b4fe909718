"""The three two-ellipse routes, bit for bit, against a copy of the helpers
that the one tangent-point solve replaced.

The copy below is the solve as it stood before: a strict range check, a
pedal-distance helper and an angle helper that each ran it, and the
abscissae with their own closed-range check.  The routes compose them as
they did then; everything else they call is the package's own.  The draws
follow the ``_tangent`` distribution of ``benchmarks/inproc.py``, plus the
ends of the open range.
"""

import math
import random
import sys

from conicrect import (
    ConstructionPoints,
    ExcessBreakdown,
    LandenPair,
    ResidualReport,
    construction_points,
    fagnano_check,
    hyperbola_arc,
    hyperbola_point_from_pedal,
    hyperbola_tangent_length,
    integrate,
    landen_theorem_check,
    render_svg,
)

DRAWS = 1000
SVG_DRAWS = 8


def _check_tangent(m, n, t):
    if not 0.0 < t < m - n:
        raise AssertionError("the reference draws lie inside (0, m - n)")


def _tangent_pedal(m, n, t):
    _check_tangent(m, n, t)
    return math.sqrt((m - n - t) * (m - n + t))


def _g(m, n):
    return (m - n) * (m + n) / (m * m)


def _abscissae_from_tangent(m, n, t):
    assert 0.0 <= t <= (m - n) * (1.0 + 1e-12)
    g = _g(m, n)
    gm2 = g * m * m
    rad = max((m - n - t) * (m - n + t) * (m + n - t) * (m + n + t), 0.0)
    root = math.sqrt(rad)
    s = t * t + gm2 + root
    gs = g * s
    x2_minus = 2.0 * m * m * t * t / gs
    x2_plus = 0.5 * s / g
    return math.sqrt(x2_minus), math.sqrt(min(x2_plus, m * m))


def _tangent_angles(m, n, t):
    _check_tangent(m, n, t)
    x_minus, x_plus = _abscissae_from_tangent(m, n, t)
    return math.asin(min(x_minus / m, 1.0)), math.asin(min(x_plus / m, 1.0))


def _arc_integrand(m, n):
    g = _g(m, n)

    def f(theta):
        s = math.sin(theta)
        return m * math.sqrt(1.0 - g * s * s)

    return f


def _eta1_integrand(m, n):
    def f(tau):
        return math.sqrt(((m + n - tau) * (m + n + tau)) / ((m - n - tau) * (m - n + tau)))

    return f


def ref_landen_theorem_check(m, n, t):
    theta_minus, _ = _tangent_angles(m, n, t)
    H = LandenPair(m, n).hyperbola
    p = _tangent_pedal(m, n, t)
    t_hyp = hyperbola_tangent_length(H, p)
    hyp_arc = hyperbola_arc(H, p)
    eta1 = integrate(_eta1_integrand(m, n), 0.0, t).value
    eta2 = integrate(_arc_integrand(m, n), 0.0, theta_minus).value
    breakdown = ExcessBreakdown(hyp_arc, t_hyp, t, eta1, eta2)
    rhs = t_hyp + 2.0 * t + eta1 - 4.0 * eta2
    return breakdown, ResidualReport("landen-theorem", {"m": m, "n": n, "t": t}, hyp_arc, rhs)


def ref_fagnano_check(m, n, t):
    theta_minus, theta_plus = _tangent_angles(m, n, t)
    ds = _arc_integrand(m, n)
    lhs = integrate(ds, 0.0, theta_minus).value
    rhs = t + integrate(ds, theta_plus, 0.5 * math.pi).value
    return ResidualReport("fagnano", {"m": m, "n": n, "t": t}, lhs, rhs)


def ref_construction_points(pair, t):
    p = _tangent_pedal(pair.m, pair.n, t)
    m, n = pair.m, pair.n
    hyp = pair.hyperbola
    a, b = hyp.a, hyp.b
    x_e, _ = _abscissae_from_tangent(m, n, t)
    y_e = n * math.sqrt(max(1.0 - (x_e / m) ** 2, 0.0))
    nu = (x_e / (m * m), y_e / (n * n))
    nu2 = nu[0] * nu[0] + nu[1] * nu[1]
    return ConstructionPoints(
        S=(0.0, 0.0),
        A=(a, 0.0),
        N=(a, b),
        Z=(m + n, -(m - n)),
        E=(x_e, y_e),
        P=(nu[0] / nu2, nu[1] / nu2),
        H=(a, t),
        K=(p * p / a, p * t / a),
        F=hyperbola_point_from_pedal(hyp, p),
        pedal_radius=p,
    )


# the draws of benchmarks/inproc.py
def _logu(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _tangent(rng):
    m = _logu(rng, 0.5, 2.0)
    n = m * _logu(rng, 1e-3, 0.99)
    return m, n, (m - n) * rng.uniform(0.01, 0.99)


def _draws():
    rng = random.Random("tangent-bits")
    ends = [(2.0, 1.0, t) for t in (1e-9, 1e-6, 0.5, 1.0 - 1e-7, 1.0 - 1e-12)]
    return ends + [_tangent(rng) for _ in range(DRAWS)]


def test_every_route_keeps_its_bits():
    differ = [
        (name, (m, n, t))
        for m, n, t in _draws()
        for name, call, ref in (
            ("landen_theorem_check", lambda: landen_theorem_check(LandenPair(m, n), t),
             lambda: ref_landen_theorem_check(m, n, t)),
            ("fagnano_check", lambda: fagnano_check(LandenPair(m, n), t), lambda: ref_fagnano_check(m, n, t)),
            ("construction_points", lambda: construction_points(LandenPair(m, n), t),
             lambda: ref_construction_points(LandenPair(m, n), t)),
        )
        if call() != ref()
    ]
    assert differ == []


def test_every_figure_keeps_its_bytes(monkeypatch):
    # render_svg reads construction_points from its module at call time
    draws = _draws()[: SVG_DRAWS]
    figures = [render_svg(LandenPair(m, n), t) for m, n, t in draws]
    monkeypatch.setattr(sys.modules["conicrect.construction"], "construction_points", ref_construction_points)
    assert figures == [render_svg(LandenPair(m, n), t) for m, n, t in draws]
