"""Geometry of the hyperbola and its auxiliary ellipses, against the oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrect import (
    DomainError,
    Ellipse,
    Hyperbola,
    LandenPair,
    complete_E,
    ellipse_arc,
    ellipse_tangent_length,
    excess_finite,
    excess_infinity_closed,
    excess_infinity_landen,
    excess_infinity_series,
    fagnano_check,
    hyperbola_arc,
    hyperbola_point_from_pedal,
    integrate,
    landen_theorem_check,
    semiaxes_to_pair,
    simpson_arc,
)
from conicrect import conics
from conicrect.conics import hyperbola_tangent_length

SQRT8 = 2.0 * math.sqrt(2.0)


def maclaurin_integrand(H, p):
    """Derivative of the finite excess with respect to the pedal distance,
    -p^2 / sqrt((a - p)(a + p)(b^2 + p^2)) (test-side only)."""
    a, b = H.a, H.b
    return -p * p / math.sqrt((a - p) * (a + p) * (b * b + p * p))


def series_remainder_bound(H):
    """|fourth term| of the flat-hyperbola series, (pi a^2 / 2b) (175/2048) (a/b)^6,
    which bounds the three-term series while its terms decrease (test-side only)."""
    return 0.5 * math.pi * H.a * H.a / H.b * (175.0 / 2048.0) * ((H.a / H.b) ** 2) ** 3


def pedal_radius(H, p):
    """Center distance of the branch point whose tangent-foot distance is p."""
    return math.hypot(*hyperbola_point_from_pedal(H, p))


def pedal_form_arc(H, p_lo):
    """Independent arc oracle in the pedal variable (test-side only)."""
    a, b = H.a, H.b

    def f(p):
        return a * a * b * b / (p * p * math.sqrt((a - p) * (a + p) * (b * b + p * p)))

    # p = a - v^2 smooths the inverse-square-root end at p = a
    return integrate(lambda v: 2.0 * v * f(a - v * v), 0.0, math.sqrt(a - p_lo)).value


def cesso_r_oracle(a, b):
    """Limit excess via the rotated-frame integral that removes the
    infinity-minus-infinity indeterminacy (test-side oracle)."""
    c2 = a * a + b * b

    def f(x):
        w = x * x
        quartic = (c2 * c2 * w - 2.0 * a * a * b * b * (a * a - b * b)) * w + a**4 * b**4
        return (c2 * c2 * w - a * a * b * b * (a * a - b * b)) / math.sqrt(quartic)

    val = integrate(f, 0.0, a * b / math.sqrt(c2)).value
    return b - val / (a * b)


class TestTypes:
    def test_hyperbola_derived(self):
        H = Hyperbola(3.0, 2.0)
        assert H.focal_distance == pytest.approx(math.sqrt(13.0), rel=1e-15)
        assert H.modulus == pytest.approx(3.0 / math.sqrt(13.0), rel=1e-15)
        assert 0.0 < H.modulus < 1.0

    def test_ellipse_derived(self):
        E = Ellipse(2.0, 1.0)
        assert E.g == pytest.approx(0.75, abs=1e-16)
        assert E.eccentricity == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert Ellipse(1.0, 1.0).g == 0.0

    @pytest.mark.parametrize(
        "a,b",
        [
            (1.6120967570397818e-162, 4.995760828732668e-163),  # a^2 is subnormal: g was 0.0, not 0.904
            (1.4e154, 7e153),  # a^2 overflows: g was 0.0
            (1e160, 5e159),  # and here nan
            (1e-100, 1e300),  # (a - b)(a + b) overflows: g was -inf
        ],
    )
    def test_ellipse_g_out_of_range_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError):
            Ellipse(a, b).g

    def test_ellipse_g_keeps_its_bits_where_a_squared_is_normal(self):
        for a, b in ((1.5e-154, 1e-154), (1.3e154, 1e154), (2.0, 1.0), (1e-100, 1e-50)):
            assert Ellipse(a, b).g == (a - b) * (a + b) / (a * a)

    def test_landen_pair_derived(self):
        pair = LandenPair(2.0, 1.0)
        assert (pair.hyperbola.a, pair.hyperbola.b) == (1.0, SQRT8)
        assert (pair.ellipse_outer.a, pair.ellipse_outer.b) == (3.0, SQRT8)
        assert (pair.ellipse_inner.a, pair.ellipse_inner.b) == (2.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            Hyperbola(0.0, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for conic in (Hyperbola, Ellipse):
                with pytest.raises(DomainError):
                    conic(bad, 1.0)
                with pytest.raises(DomainError):
                    conic(1.0, bad)
        with pytest.raises(DomainError):
            LandenPair(1.0, 1.0)  # circle: no nonzero pedal tangent
        with pytest.raises(DomainError):
            LandenPair(1.0, 2.0)
        for m, n in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan), (math.inf, math.inf)):
            with pytest.raises(DomainError):
                LandenPair(m, n)


class TestSemiaxesPair:
    def test_paper_inversion(self):
        pair = semiaxes_to_pair(1.0, SQRT8)
        assert pair.m == pytest.approx(2.0, rel=1e-15)
        assert pair.n == pytest.approx(1.0, rel=1e-15)
        assert tuple(LandenPair(2.0, 1.0).hyperbola) == (1.0, SQRT8)

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(100):
            a = rng.uniform(0.05, 20.0)
            b = rng.uniform(0.05, 20.0)
            a2, b2 = semiaxes_to_pair(a, b).hyperbola
            assert abs(a2 - a) <= 1e-14 * a
            assert abs(b2 - b) <= 1e-14 * b

    def test_non_finite_semiaxes_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                semiaxes_to_pair(bad, 1.0)
            with pytest.raises(DomainError):
                semiaxes_to_pair(1.0, bad)


class TestPedal:
    def test_radius_examples(self):
        assert pedal_radius(Hyperbola(1.0, 1.0), 1.0) == 1.0
        assert pedal_radius(Hyperbola(1.0, SQRT8), 1.0) == pytest.approx(1.0, abs=1e-15)
        assert pedal_radius(Hyperbola(1.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_radius_monotone_unbounded(self):
        H = Hyperbola(1.5, 0.7)
        ps = [1.5 * 2.0**-i for i in range(0, 20)]
        rs = [pedal_radius(H, p) for p in ps]
        assert rs[0] == 1.5
        assert all(r0 < r1 for r0, r1 in zip(rs, rs[1:]))

    def test_point_vertex(self):
        assert hyperbola_point_from_pedal(Hyperbola(2.0, 3.0), 2.0) == (2.0, 0.0)

    def test_point_consistency(self):
        H = Hyperbola(1.0, 1.0)
        x, y = hyperbola_point_from_pedal(H, 0.5)
        assert x * x - y * y == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(x, y) == pytest.approx(2.0, abs=1e-12)
        # distance from center to the tangent line at (x, y)
        foot = 1.0 / math.sqrt(x * x / H.a**4 + y * y / H.b**4)
        assert foot == pytest.approx(0.5, abs=1e-12)

    def test_tiny_pedal_accepted(self):
        H = Hyperbola(1.0, 1.0)
        x, y = hyperbola_point_from_pedal(H, 1e-12)
        assert x > 1e10  # unbounded along the branch

    def test_pedal_whose_square_underflows(self):
        # p * p underflows to 0 at p = 1e-200; sqrt(s) = 2e200/sqrt(5) does not
        H = Hyperbola(1.0, 2.0)
        x, y = hyperbola_point_from_pedal(H, 1e-200)
        assert x == pytest.approx(2e200 / math.sqrt(5.0), rel=1e-15, abs=0.0)
        assert y == pytest.approx(4e200 / math.sqrt(5.0), rel=1e-15, abs=0.0)
        assert pedal_radius(H, 1e-200) == pytest.approx(2e200, rel=1e-15, abs=0.0)
        with pytest.raises(DomainError):
            hyperbola_point_from_pedal(H, 5e-324)  # the point itself overflows
        with pytest.raises(DomainError):
            hyperbola_tangent_length(H, 5e-324)  # so does its tangent segment

    def test_overflowing_squares_are_domain_errors(self):
        # (a - p)(a + p) and p sqrt(a^2 + b^2) both overflow, so the branch
        # root was inf/inf = NaN: a NaN point, and hi=nan in the arc
        H = Hyperbola(1e200, 1e200)
        for f in (hyperbola_point_from_pedal, hyperbola_arc, excess_finite):
            with pytest.raises(DomainError, match="overflows"):
                f(H, 5e199)
        # at the vertex a - p = 0 times an infinite b^2 + p^2 made a NaN length
        with pytest.raises(DomainError, match="overflows"):
            hyperbola_tangent_length(H, 1e200)
        # a^2 and b^2 are finite and their sum is not: the excess integrand
        # divided by an infinite root and returned 0.0 for 4.716e153
        for a, b in ((1e154, 1.3e154), (1.3e154, 1e154)):
            with pytest.raises(DomainError, match="overflows"):
                excess_finite(Hyperbola(a, b), 5e153)
        # the branch root is finite, and a sqrt(1 + s) and b sqrt(s) overflow:
        # the point was (inf, inf), and (376.2, inf)
        for H, p in (
            (Hyperbola(1.915749718712394e140, 1.6009030976443032e138), 3.242004666924486e-158),
            (Hyperbola(1.9768470600678305e-79, 2.1481343323265093e236), 1.0388012145488285e-160),
        ):
            with pytest.raises(DomainError, match="overflows"):
                hyperbola_point_from_pedal(H, p)
        # the branch point itself is still representable there
        assert hyperbola_point_from_pedal(Hyperbola(1e154, 1.3e154), 5e153) == pytest.approx(
            (1.6984576427783728e154, 1.7847245265552134e154), rel=1e-15, abs=0.0
        )

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=0.1, max_value=10.0),
        frac=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_pedal_identity(self, a, b, frac):
        H = Hyperbola(a, b)
        p = frac * a
        r, t = pedal_radius(H, p), hyperbola_tangent_length(H, p)
        assert abs(t**2 + p**2 - r**2) <= 1e-12 * r**2

    def test_pedal_identity_canonical_hyperbolae(self):
        rng = random.Random(31)
        for H in (Hyperbola(1.0, 1.0), Hyperbola(1.0, SQRT8)):
            for _ in range(100):
                p = rng.uniform(1e-3, 1.0) * H.a
                r, t = pedal_radius(H, p), hyperbola_tangent_length(H, p)
                assert abs(t**2 + p**2 - r**2) <= 1e-12 * r**2

    def test_domain(self):
        with pytest.raises(DomainError):
            hyperbola_point_from_pedal(Hyperbola(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            hyperbola_point_from_pedal(Hyperbola(1.0, 1.0), 1.5)


class TestTangentLength:
    def test_zeros(self):
        E = Ellipse(2.0, 1.0)
        assert ellipse_tangent_length(E, 0.0) == 0.0
        assert ellipse_tangent_length(E, 2.0) == 0.0

    def test_maximum(self):
        E = Ellipse(2.0, 1.0)
        x_star = math.sqrt(8.0 / 3.0)
        assert ellipse_tangent_length(E, x_star) == pytest.approx(1.0, abs=1e-14)
        grid_best = max(
            ellipse_tangent_length(E, 2.0 * i / 5000.0) for i in range(5001)
        )
        assert grid_best <= 1.0 + 1e-12

    def test_circle(self):
        assert ellipse_tangent_length(Ellipse(1.5, 1.5), 0.7) == 0.0

    def test_major_vertex_where_g_rounds_to_one(self):
        # a^2 - x^2 and a^2 - g x^2 are both 0: the 0/0 raised ZeroDivisionError
        E = Ellipse(1.0, 1e-9)
        assert E.g == 1.0
        assert ellipse_tangent_length(E, 1.0) == 0.0
        assert ellipse_tangent_length(E, 0.5) == 0.5

    def test_domain(self):
        for bad in (-0.1, 2.1, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                ellipse_tangent_length(Ellipse(2.0, 1.0), bad)

    def test_direct_r2_p2(self):
        # t^2 = r^2 - p^2 with r^2 = n^2 + g x^2 and p^2 = m^2 n^2/(m^2 - g x^2)
        m, n, x = 2.0, 1.0, 1.3
        g = (m * m - n * n) / (m * m)
        r2 = n * n + g * x * x
        p2 = m * m * n * n / (m * m - g * x * x)
        t = ellipse_tangent_length(Ellipse(m, n), x)
        assert t * t == pytest.approx(r2 - p2, rel=1e-13)


class TestAbscissae:
    def test_zero_tangent(self):
        pair = LandenPair(2.0, 1.0)
        xm, xp = conics._abscissae(pair, 0.0, pair.ellipse_inner.g)
        assert xm == 0.0 and xp == 2.0

    def test_double_root(self):
        pair = LandenPair(2.0, 1.0)
        xm, xp = conics._abscissae(pair, 1.0, pair.ellipse_inner.g)
        assert xm == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-14)
        assert xm == pytest.approx(xp, rel=1e-12)

    def test_forward_substitution(self):
        pair = LandenPair(2.0, 1.0)
        E = pair.ellipse_inner
        for t in (0.1, 0.5, 0.9, 0.999):
            xm, xp = conics._abscissae(pair, t, E.g)
            assert xm <= xp
            assert ellipse_tangent_length(E, xm) == pytest.approx(t, abs=1e-12)
            assert ellipse_tangent_length(E, xp) == pytest.approx(t, abs=1e-12)

    def test_tiny_tangent_stable_branch(self):
        # near t = 0 the plus root sits within ~t^2 of the vertex, where one
        # ulp of x moves t by ~1e-9; the minus root stays fully conditioned
        pair = LandenPair(2.0, 1.0)
        xm, xp = conics._abscissae(pair, 1e-6, pair.ellipse_inner.g)
        assert ellipse_tangent_length(pair.ellipse_inner, xm) == pytest.approx(
            1e-6, abs=1e-12
        )
        assert ellipse_tangent_length(pair.ellipse_inner, xp) == pytest.approx(
            1e-6, abs=1e-9
        )

    def test_domain(self):
        # the solve that every route reads takes t in the open range (0, m - n)
        for bad in (1.01, -0.1, math.nan, math.inf, -math.inf, 0.0, 1.0):
            with pytest.raises(DomainError):
                conics._tangent_point(LandenPair(2.0, 1.0), bad)

    @pytest.mark.parametrize(
        "m,n,t",
        [
            (1e154, 7.143588580224836e153, 6.144312542633946e152),  # the radicand overflows: x_minus was nan
            (1.5e-154, 1.4999999999999985e-154, 8.280421605278095e-170),  # g s underflows to 0
        ],
    )
    def test_g_s_out_of_range_is_a_domain_error(self, m, n, t):
        pair = LandenPair(m, n)
        with pytest.raises(DomainError, match="g s"):
            conics._abscissae(pair, t, pair.ellipse_inner.g)


class TestEllipseArc:
    def test_quarter_circle(self):
        assert ellipse_arc(Ellipse(1.0, 1.0), 0.0, 1.0) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_empty(self):
        assert ellipse_arc(Ellipse(2.0, 1.0), 0.7, 0.7) == 0.0

    def test_full_quadrant_two_one(self):
        arc = ellipse_arc(Ellipse(2.0, 1.0), 0.0, 2.0)
        assert arc == pytest.approx(2.0 * complete_E(math.sqrt(3.0) / 2.0), abs=1e-12)
        assert arc == pytest.approx(2.4221120551369193, abs=1e-12)

    def test_against_abscissa_integrand(self):
        E = Ellipse(2.0, 1.0)
        g = E.g

        def ds(x):
            return math.sqrt((4.0 - g * x * x) / ((2.0 - x) * (2.0 + x)))

        oracle = integrate(ds, 0.0, 1.3).value
        assert ellipse_arc(E, 0.0, 1.3) == pytest.approx(oracle, abs=1e-10)
        # x = 2 - v^2 smooths the vertex end
        oracle = integrate(lambda v: 2.0 * v * ds(2.0 - v * v), 0.0, math.sqrt(1.6)).value
        assert ellipse_arc(E, 0.4, 2.0) == pytest.approx(oracle, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellipse_arc(Ellipse(1.0, 2.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            ellipse_arc(Ellipse(2.0, 1.0), 1.0, 0.5)


class TestHyperbolaArc:
    def test_vertex(self):
        assert hyperbola_arc(Hyperbola(1.0, 1.0), 1.0) == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, SQRT8)])
    def test_two_parameterizations(self, a, b):
        H = Hyperbola(a, b)
        assert hyperbola_arc(H, 0.5) == pytest.approx(pedal_form_arc(H, 0.5), abs=1e-10)

    def test_monotone_in_pedal(self):
        H = Hyperbola(1.0, 2.0)
        arcs = [hyperbola_arc(H, p) for p in (1.0, 0.8, 0.5, 0.2, 0.05)]
        assert all(s0 < s1 for s0, s1 in zip(arcs, arcs[1:]))

    def test_underflowing_denominator_is_a_domain_error(self):
        # p sqrt(a^2 + b^2) underflows to 0, which divided by zero
        with pytest.raises(DomainError):
            hyperbola_arc(Hyperbola(1e-200, 2e-200), 5e-201)

    def test_overflowing_arc_is_a_domain_error(self):
        # the speed overflows near the far end, where the arc itself does;
        # this raised IntegrandError
        with pytest.raises(DomainError, match="overflows: integrand returned inf"):
            hyperbola_arc(Hyperbola(1.71e-160, 3.02e174), 2.2e-308)


class TestExcess:
    def test_finite_vertex(self):
        assert excess_finite(Hyperbola(1.0, 1.0), 1.0) == 0.0

    def test_finite_limits(self):
        assert excess_finite(Hyperbola(1.0, 1.0), 1e-4) == pytest.approx(
            0.5990701173677961, abs=1e-6
        )
        assert excess_finite(Hyperbola(1.0, SQRT8), 1e-4) == pytest.approx(
            0.2655964076372758, abs=1e-6
        )

    def test_finite_monotone(self):
        H = Hyperbola(1.0, 1.0)
        vals = [excess_finite(H, p) for p in (0.9, 0.7, 0.5, 0.3, 0.1)]
        assert all(v0 < v1 for v0, v1 in zip(vals, vals[1:]))

    def test_closed_values(self):
        assert excess_infinity_closed(Hyperbola(1.0, 1.0)) == pytest.approx(
            0.5990701173677961, abs=1e-13
        )
        assert excess_infinity_closed(Hyperbola(1.0, SQRT8)) == pytest.approx(
            0.2655964076372758, abs=1e-13
        )

    def test_closed_vs_rotated_frame_oracle(self):
        for a, b in ((1.0, 1.0), (1.0, SQRT8), (3.0, 2.0), (0.3, 1.0), (5.0, 1.0)):
            assert excess_infinity_closed(Hyperbola(a, b)) == pytest.approx(
                cesso_r_oracle(a, b), abs=1e-10
            )

    def test_closed_degenerate_limit(self):
        assert excess_infinity_closed(Hyperbola(1e-8, 1.0)) < 1e-7

    def test_closed_ratio_underflow(self):
        with pytest.raises(DomainError):
            excess_infinity_closed(Hyperbola(1e300, 1e-300))

    def test_closed_overflow_is_a_domain_error(self):
        # c K overflows while k^2/2 - tail underflows to 0: inf * 0 was a NaN
        with pytest.raises(DomainError):
            excess_infinity_closed(Hyperbola(7.45e-122, 1.7e308))

    def test_series_example(self):
        val = excess_infinity_series(Hyperbola(0.1, 1.0), 3)
        assert val == pytest.approx(
            0.5 * math.pi * 0.01 * (0.5 - 3.0 * 0.01 / 16.0 + 15.0 * 1e-4 / 128.0),
            rel=1e-14,
        )
        closed = excess_infinity_closed(Hyperbola(0.1, 1.0))
        assert abs(val - closed) <= series_remainder_bound(Hyperbola(0.1, 1.0))

    def test_series_vanishes_with_a(self):
        assert excess_infinity_series(Hyperbola(1e-8, 1.0), 3) < 1e-15

    def test_series_fails_outside_regime(self):
        H = Hyperbola(0.5, 1.0)
        assert abs(excess_infinity_series(H, 3) - excess_infinity_closed(H)) > 1e-4

    def test_series_domain(self):
        H = Hyperbola(0.1, 1.0)
        for terms in (4, 0, 1.0, 2.0):
            with pytest.raises(DomainError):
                excess_infinity_series(H, terms)

    def test_series_overflow_is_a_domain_error(self):
        # (a/b)^2 raised OverflowError, an overflowing prefactor gave -inf, and
        # (a/b)^4 overflows though the prefactor and ratio are finite
        for H, terms in (
            (Hyperbola(3e-42, 2e-290), 2),
            (Hyperbola(1.7e308, 1e300), 2),
            (Hyperbola(1e-100, 1e-200), 3),
        ):
            with pytest.raises(DomainError, match="overflows"):
                excess_infinity_series(H, terms)

    def test_landen_form_values(self):
        val = excess_infinity_landen(LandenPair(2.0, 1.0))
        assert val == pytest.approx(
            4.0 * complete_E(math.sqrt(3.0) / 2.0) - 3.0 * complete_E(1.0 / 3.0),
            rel=1e-15,
        )
        assert val == pytest.approx(0.2655964076372758, abs=1e-13)

    def test_landen_equals_closed(self):
        for m, n in ((2.0, 1.0), (1.0, 0.5), (7.0, 0.4)):
            pair = LandenPair(m, n)
            assert excess_infinity_landen(pair) == pytest.approx(
                excess_infinity_closed(pair.hyperbola), abs=1e-10
            )


class TestLandenTheorem:
    def test_small_tangent_limit(self):
        _, rep = landen_theorem_check(LandenPair(2.0, 1.0), 1e-6)
        assert rep.lhs < 1e-5
        assert rep.residual < 1e-9

    def test_reference_point(self):
        breakdown, rep = landen_theorem_check(LandenPair(2.0, 1.0), 0.5)
        assert rep.residual < 1e-9
        assert breakdown.hyp_arc > 0.0 and breakdown.eta1 > 0.0 and breakdown.eta2 > 0.0

    def test_near_maximum(self):
        _, rep = landen_theorem_check(LandenPair(2.0, 1.0), 0.999)
        assert rep.residual < 1e-8
        breakdown, _ = landen_theorem_check(LandenPair(2.0, 1.0), 0.9999)
        # the finite excess approaches the quadrant combination as t -> m - n
        finite_piece = breakdown.t_hyp - breakdown.hyp_arc
        assert finite_piece == pytest.approx(excess_infinity_landen(LandenPair(2.0, 1.0)), abs=5e-3)

    def test_grid_sample(self):
        for ratio in (1.2, 5.0):
            pair = LandenPair(ratio, 1.0)
            span = pair.m - pair.n
            for frac in (0.1, 0.5, 0.9):
                _, rep = landen_theorem_check(pair, frac * span)
                assert rep.residual < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            landen_theorem_check(LandenPair(2.0, 1.0), 1.0)

    @pytest.mark.parametrize(
        "m,n,t",
        [
            (1e-300, 5e-301, 1e-301),  # the inner ellipse's a^2 underflows to 0
            (1.6120967570397818e-162, 4.995760828732668e-163, 4.0930296280814964e-163),  # to a subnormal
        ],
    )
    def test_underflowing_denominator_is_a_domain_error(self, m, n, t):
        # each divided by zero; fagnano_check takes the same angles
        for check in (landen_theorem_check, fagnano_check):
            with pytest.raises(DomainError):
                check(LandenPair(m, n), t)


class TestFagnano:
    def test_reference_point(self):
        rep = fagnano_check(LandenPair(2.0, 1.0), 0.5)
        assert rep.residual < 1e-9

    def test_coincident_point(self):
        rep = fagnano_check(LandenPair(2.0, 1.0), 1.0 - 1e-7)
        assert rep.residual < 1e-9

    def test_grid_sample(self):
        for ratio in (1.2, 10.0):
            pair = LandenPair(ratio, 1.0)
            span = pair.m - pair.n
            for frac in (0.1, 0.5, 0.9):
                assert fagnano_check(pair, frac * span).residual < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            fagnano_check(LandenPair(2.0, 1.0), 0.0)


# simpson_arc from u0 to a u1 just short of the vertex, on Hyperbola(1, b):
# (u1, b, u0, arc).  The arcs are the integral of sqrt(sinh^2 + b^2 cosh^2)
# over the hyperbolic parameter between acosh(1/u1) and acosh(1/u0), taken
# with mpmath at 50 digits and written to 40.
NEAR_VERTEX_REFERENCE = [
    (1.0 - 1e-13, 0.01, 0.0001, 9999.500262055177071319821126370903168948),
    (1.0 - 1e-13, 0.01, 0.5, 1.000347093191748903359787203375460520033),
    (1.0 - 1e-13, 1.0, 0.0001, 14141.53651781095973219687537282372010831),
    (1.0 - 1e-13, 1.0, 0.5, 2.037621912574559935131901668473647245303),
    (1.0 - 1e-13, 2.0, 0.0001, 22360.31892599667241211084614197069524121),
    (1.0 - 1e-13, 2.0, 0.5, 3.629818325340916363173439421683767557715),
    (1.0 - 1e-13, 100.0, 0.0001, 1000049.985851896976896678453053742647872),
    (1.0 - 1e-13, 100.0, 0.5, 173.2084602476389603281255588702019555943),
    (1.0 - 1e-12, 0.01, 0.0001, 9999.500262045507923271014980194010879524),
    (1.0 - 1e-12, 0.01, 0.5, 1.000347083522600854553641026483171095718),
    (1.0 - 1e-12, 1.0, 0.0001, 14141.53651684404493188055233759571184969),
    (1.0 - 1e-12, 1.0, 0.5, 2.037620945659759618808866440465388629163),
    (1.0 - 1e-12, 2.0, 0.0001, 22360.31892406284281147888478372236370723),
    (1.0 - 1e-12, 2.0, 0.5, 3.629816391511315731212081173352233580958),
    (1.0 - 1e-12, 100.0, 0.0001, 1000049.985755205496865091792446706106516),
    (1.0 - 1e-12, 100.0, 0.5, 173.2083635561589287414649518336606001809),
    (1.0 - 1e-10, 0.01, 0.0001, 9999.50026191822849327785970457263358639),
    (1.0 - 1e-10, 0.01, 0.5, 1.000346956243170861398365405105877961727),
    (1.0 - 1e-10, 1.0, 0.0001, 14141.5365041161066414245823347342190981),
    (1.0 - 1e-10, 1.0, 0.5, 2.0376082177214691628388635789726370382),
    (1.0 - 1e-10, 2.0, 0.0001, 22360.31889860696623127334456367538405331),
    (1.0 - 1e-10, 2.0, 0.5, 3.629790935634735525671861126372579659119),
    (1.0 - 1e-10, 100.0, 0.0001, 1000049.984482411667866583401874072754436),
    (1.0 - 1e-10, 100.0, 0.5, 173.2070907623299302330743792003085203275),
]


class TestSimpsonArc:
    def test_empty(self):
        assert simpson_arc(Hyperbola(1.0, 1.0), 0.5, 0.5) == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, SQRT8)])
    def test_matches_pedal_parameterization(self, a, b):
        H = Hyperbola(a, b)
        u0, u1 = 0.5, 1.0
        # u = a/x maps to pedal distance p = ab/sqrt(c^2 s + b^2), s = 1/u^2 - 1
        c2 = a * a + b * b
        s = (1.0 - u0 * u0) / (u0 * u0)
        p0 = a * b / math.sqrt(c2 * s + b * b)
        assert simpson_arc(H, u0, u1) == pytest.approx(
            hyperbola_arc(H, p0), abs=1e-9
        )

    def test_interior_segment(self):
        H = Hyperbola(1.0, 1.0)
        c2 = 2.0

        def pedal_of(u):
            s = (1.0 - u * u) / (u * u)
            return 1.0 / math.sqrt(c2 * s + 1.0)

        seg = simpson_arc(H, 0.4, 0.8)
        via_vertex = hyperbola_arc(H, pedal_of(0.4)) - hyperbola_arc(H, pedal_of(0.8))
        assert seg == pytest.approx(via_vertex, abs=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            simpson_arc(Hyperbola(1.0, 1.0), 0.0, 1.0)

    def test_overflowing_arc_is_a_domain_error(self):
        # the arc, about sqrt(a^2 + b^2)/u0, overflows; this raised IntegrandError
        with pytest.raises(DomainError, match="overflows: integrand returned inf"):
            simpson_arc(Hyperbola(1e100, 1.14e46), 6.3e-245, 1 - 1.4e-13)

    @pytest.mark.parametrize("u1,b,u0,arc", NEAR_VERTEX_REFERENCE)
    def test_near_vertex_against_references(self, u1, b, u0, arc):
        assert abs(simpson_arc(Hyperbola(1.0, b), u0, u1) - arc) <= 1e-14 * arc


class TestMaclaurinIntegrand:
    def test_is_derivative_of_finite_excess(self):
        H = Hyperbola(1.0, 2.0)
        for p in (0.3, 0.6, 0.9):
            h = 1e-6
            fd = (excess_finite(H, p + h) - excess_finite(H, p - h)) / (2.0 * h)
            assert fd == pytest.approx(
                maclaurin_integrand(H, p), rel=1e-5
            )

    def test_integral_recovers_limit_excess(self):
        for a, b in ((1.0, 1.0), (1.0, SQRT8)):
            H = Hyperbola(a, b)
            # p = a - v^2 smooths the inverse-square-root end at p = a
            total = integrate(
                lambda v: -2.0 * v * maclaurin_integrand(H, a - v * v),
                0.0,
                math.sqrt(a),
            ).value
            assert total == pytest.approx(excess_infinity_closed(H), abs=1e-10)


def test_cross_parameterization_triangle():
    # pedal form, reciprocal-abscissa form, and rotated frame pairwise agree
    H = Hyperbola(1.0, 1.0)
    u0 = 0.5
    s = (1.0 - u0 * u0) / (u0 * u0)
    p0 = 1.0 / math.sqrt(2.0 * s + 1.0)
    rotated = hyperbola_arc(H, p0)
    pedal = pedal_form_arc(H, p0)
    simpson = simpson_arc(H, u0, 1.0)
    assert abs(rotated - pedal) < 1e-9
    assert abs(rotated - simpson) < 1e-9
    assert abs(pedal - simpson) < 1e-9


# Hyperbola(1, b) at pedal distance p, from mpmath at 40 digits: the excess
# as c E(theta, 1/c) - (b^2/c) F(theta, 1/c) with c^2 = 1 + b^2 and
# theta = acos(p), the arc as the tangent length minus that excess; then the
# oracle evaluations of excess_finite and of hyperbola_arc.
FINITE_REFERENCE = [
    (0.01, 1e-10, 0.99972543597482916747, 99999999.000274567463, 225, 255),
    (0.01, 1e-06, 0.99972543597482913413, 9999.0003245590257065, 225, 285),
    (0.01, 1 - 1e-6, 0.0014141425034352757989, 1.4141443889610649588e-7, 15, 15),
    (2.0, 1e-10, 0.36075866393790280584, 19999999999.639240607, 45, 135),
    (2.0, 1e-06, 0.36075866393790280567, 1999999.6392405861526, 45, 105),
    (2.0, 1 - 1e-6, 0.00063245520527410341371, 0.0025298241941945073133, 15, 15),
    (100.0, 1e-10, 0.0078536871280696363802, 999999999999.99210988, 15, 135),
    (100.0, 1e-06, 0.0078536871280696363768, 99999999.992096322397, 15, 105),
    (100.0, 1 - 1e-6, 0.000014141420321488022888, 0.14141439176734603004, 15, 15),
]

# Hyperbola(1, b), limit excess c E(1/c) - (b^2/c) K(1/c), mpmath at 40 digits.
LIMIT_REFERENCE = [
    (1e8, 7.8539816339744828016e-9),
    (1e5, 7.8539816336799587849e-6),
    (1e3, 0.00078539786887332111313),
    (2.0, 0.36075866393790280584),
    (1.0, 0.59907011736779610372),
    (1e-3, 0.99999610297653195746),
    (1e-6, 0.99999999999264909754),
]


class TestReferenceValues:
    @pytest.mark.parametrize("b,p,excess,arc,n_excess,n_arc", FINITE_REFERENCE)
    def test_finite_excess_and_arc(self, oracle_evaluations, b, p, excess, arc, n_excess, n_arc):
        counts = oracle_evaluations(conics)
        H = Hyperbola(1.0, b)
        assert excess_finite(H, p) == pytest.approx(excess, rel=1e-13, abs=0.0)
        assert counts == [n_excess]
        counts.clear()
        assert hyperbola_arc(H, p) == pytest.approx(arc, rel=1e-13, abs=0.0)
        assert counts == [n_arc]

    @pytest.mark.parametrize("b,excess", LIMIT_REFERENCE)
    def test_limit_excess(self, b, excess):
        assert excess_infinity_closed(Hyperbola(1.0, b)) == pytest.approx(excess, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("b", [0.01, 0.5, 1.0, 2.0, SQRT8])
    def test_excess_is_tangent_minus_arc(self, b):
        # the paper's route; for p/a >= 0.01 and these b/a the subtraction
        # loses at most about three digits
        H = Hyperbola(1.0, b)
        for i in range(21):
            p = 10.0 ** (-2.0 + i / 10.0)
            route = hyperbola_tangent_length(H, p) - hyperbola_arc(H, p)
            assert excess_finite(H, p) == pytest.approx(route, rel=1e-12, abs=0.0)

    def test_arc_at_tiny_pedal_distance(self):
        H = Hyperbola(1.0, 2.0)
        p = 1e-300
        route = hyperbola_tangent_length(H, p) - excess_finite(H, p)
        assert hyperbola_arc(H, p) == pytest.approx(route, rel=1e-12, abs=0.0)
        assert excess_finite(H, 5e-324) == pytest.approx(0.36075866393790280584, rel=1e-13, abs=0.0)


# Every bit of the two integrands that are written for speed, recorded before
# they were: repr of simpson_arc(Hyperbola(a, b), u0, u1) and of
# landen_theorem_check(LandenPair(m, n), t)[0].eta1, on the first draws of
# the benchmark's rectify stream at seed 2 (its Simpson corner first).
SIMPSON_BITS = [
    ((1.0, 2.0, 0.0001, 1.0), "22360.318926891196"),
    ((0.8802610845348113, 9.641527269185701, 0.000361081037630254, 1.0), "26812.82861600192"),
    ((0.13399062594633684, 6.919916747184421, 0.04529757590223316, 1.0), "152.63553800784678"),
    ((2.0054498295536867, 67.9213244509347, 0.10003262183586366, 0.2647880555496892), "428.4114239173701"),
    ((0.1521937696284709, 1.7565157639027378, 0.039970709483052064, 0.3276397061419911), "38.9883627115192"),
    ((0.746437326002691, 0.07072976634685402, 0.0006095399014378521, 0.46933969550441457), "1228.4809695891724"),
]
ETA1_BITS = [
    ((1.3906239379962388, 0.08358042261945095, 0.8230389678361819), "0.945513684562542"),
    ((0.9649445272258302, 0.019821886258714425, 0.7478082871788478), "0.79001331958602"),
    ((1.9536945999868633, 1.4934776116665516, 0.24348308142524785), "1.9201100044920314"),
    ((0.8130476119347064, 0.0026966009337085492, 0.1679788203594303), "0.16911316793768186"),
]

# repr of hyperbola_arc(Hyperbola(a, b), p) and of excess_finite(Hyperbola(a,
# b), p), recorded before the oracle left after a first panel that meets its
# contract: the first draws of each on the benchmark's rectify stream at seed 2.
HYPERBOLA_ARC_BITS = [
    ((0.22321861279406285, 0.22857523732738194, 4.8459085349779474e-05), "1052.761485742372"),
    ((0.22789428822771723, 0.02557169344651413, 1.4571449572167564e-09), "3999356.771084854"),
    ((5.610440826876499, 77.22013655436731, 1.3291662313669724e-05), "32594794.56440159"),
    ((0.7662729509505938, 0.0350040497130245, 1.314107591796152e-05), "2040.3679713041904"),
    ((7.347632123073211, 24.98808518306868, 1.5749545074767646), "112.45576588740761"),
    ((8.166798399018322, 103.57546215969006, 0.00034730526187438655), "2435551.186227421"),
]
EXCESS_FINITE_BITS = [
    ((1.9869357281798372, 4.608381282052129, 0.19994177617321574), "0.6304446896142818"),
    ((3.06927842928339, 3.2063194609223946, 1.3040819552028991e-06), "1.7908396597179572"),
    ((2.724413687529228, 1.0481226965011903, 5.219998789988371e-08), "2.36613885388752"),
    ((5.413275803900439, 294.57038235187497, 0.010422529353101593), "0.07812069887237827"),
    ((1.7791174706913153, 0.16305019825198278, 0.0004366900717435378), "1.754703060968189"),
    ((1.1602770055627454, 0.03663726666843202, 6.520583670696422e-09), "1.1577664605940647"),
]


class TestIntegrandBits:
    @pytest.mark.parametrize("args,expected", HYPERBOLA_ARC_BITS)
    def test_hyperbola_arc(self, args, expected):
        a, b, p = args
        assert repr(hyperbola_arc(Hyperbola(a, b), p)) == expected

    @pytest.mark.parametrize("args,expected", EXCESS_FINITE_BITS)
    def test_excess_finite(self, args, expected):
        a, b, p = args
        assert repr(excess_finite(Hyperbola(a, b), p)) == expected

    @pytest.mark.parametrize("args,expected", SIMPSON_BITS)
    def test_simpson_arc(self, args, expected):
        a, b, u0, u1 = args
        assert repr(simpson_arc(Hyperbola(a, b), u0, u1)) == expected

    @pytest.mark.parametrize("args,expected", ETA1_BITS)
    def test_eta1(self, args, expected):
        m, n, t = args
        assert repr(landen_theorem_check(LandenPair(m, n), t)[0].eta1) == expected


def _false_convergence(route, args, reference, seed, note=""):
    reason = (
        f"{route.__name__} returns an oracle value that reports converged=True "
        f"but misses the 1e-12 contract (ROADMAP item 4){note}"
    )
    return pytest.param(
        route, args, reference,
        id=f"{route.__name__}-seed{seed}",
        marks=pytest.mark.xfail(strict=True, reason=reason),
    )


# Oracle routes that report converged=True but miss the 1e-12 contract.  Each
# seed names the benchmark's rectify stream, of 4 or 6 s, that drew the call;
# each reference is the benchmark's (benchmarks/reference.py), checked at 80
# digits and written to 40.
FALSE_CONVERGENCE = [
    _false_convergence(
        hyperbola_arc,
        (Hyperbola(0.16899101099756303, 0.05503140562680542), 1.3088437142090918e-06),
        7105.213951291648002185477562593063106052,
        1009,
        "; its error estimate is 2.3e-14 of the value, the error 1.5e-11",
    ),
    _false_convergence(
        hyperbola_arc,
        (Hyperbola(0.25621098536340825, 0.41633611254543296), 0.0010341516425684107),
        103.0371932767311025825617594277914231921,
        902,
        "; on one panel",
    ),
    _false_convergence(
        simpson_arc,
        (Hyperbola(0.4216286351956634, 0.02496436368457983), 0.00010021135093759845, 1.0),
        4214.343678627180213099258439483306450605,
        1000,
    ),
    _false_convergence(
        simpson_arc,
        (Hyperbola(4.556901994006051, 0.12736936608851926), 0.0002655458780084864, 1.0),
        17162.66042421648764531853673544007923432,
        704,
    ),
    _false_convergence(
        excess_finite,
        (Hyperbola(2.2177503658155837, 0.04212377223701469), 0.00022758764199913364),
        2.215810392653328348658540634312496229838,
        908,
    ),
]


@pytest.mark.parametrize("route,args,reference", FALSE_CONVERGENCE)
def test_oracle_meets_its_contract(route, args, reference):
    assert abs(route(*args) - reference) <= 1e-12 * reference
