"""AGM iteration and elliptic integral kernels against the quadrature oracle."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrect import (
    ConvergenceError,
    DomainError,
    Ellipse,
    Hyperbola,
    agm,
    amplitude_inverse,
    check_borwein,
    check_gleichung,
    complete_E,
    complete_K,
    ellipse_arc,
    excess_infinity_closed,
    excess_infinity_landen,
    incomplete_E,
    incomplete_F,
    integrate,
    lemniscate,
    semiaxes_to_pair,
    series_KE,
)
from conicrect import quadrature
from conicrect.agm import complement

HALF_PI = 0.5 * math.pi


def oracle_K(k):
    return integrate(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, HALF_PI
    ).value


def oracle_E(k):
    return integrate(
        lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, HALF_PI
    ).value


def oracle_F(phi, k):
    return integrate(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi
    ).value


def series_truncation_bound(kind, k, terms):
    """Bound on the truncation error of series_KE(kind, k, terms): its first
    omitted term, c_N k^(2N), over (1 - 2N) for E, with N = min(terms, 200),
    times (pi/2) / (1 - k^2), by series_KE's own recurrence for c_N."""
    m = k * k
    coeff = 1.0
    for n in range(1, min(terms, 200) + 1):
        ratio = (2.0 * n - 1.0) / (2.0 * n)
        coeff *= ratio * ratio * m
    first_omitted = coeff if kind == "K" else coeff / (1.0 - 2.0 * n)
    return HALF_PI * abs(first_omitted) / (1.0 - k * k)


class TestAgm:
    def test_fixed_point(self):
        seq = agm(2.5, 2.5)
        assert seq.iterations == 0
        assert seq.limit == 2.5

    def test_gauss_example(self):
        # p3 and q3 differ only from the 12th digit on
        seq = agm(1.0, 0.8)
        p1, q1 = seq.iterates[1]
        assert p1 == 0.9
        assert q1 == pytest.approx(math.sqrt(0.8), abs=1e-15)
        p3, q3 = seq.iterates[3]
        assert abs(p3 - q3) < 1e-11

    def test_one_sqrt2_limit(self):
        # independent oracle: M(1, sqrt 2) = 2 pi / (4 * quarter-lemniscate integral)
        # t = 1 - v^2 takes the inverse-square-root end off the oracle's hands
        quarter = integrate(
            lambda v: 2.0 * v / math.sqrt(1.0 - (1.0 - v * v) ** 4), 0.0, 1.0
        ).value
        expected = 2.0 * math.pi / (4.0 * quarter)
        seq = agm(1.0, math.sqrt(2.0))
        assert seq.swapped
        assert abs(seq.limit - expected) < 1e-12
        assert abs(seq.limit - 1.1981402347355922) < 1e-12

    def test_bracketing_history(self):
        seq = agm(7.0, 0.03)
        for (p0, q0), (p1, q1) in zip(seq.iterates, seq.iterates[1:]):
            assert q0 <= q1 <= p1 <= p0
        for pn, qn in seq.iterates:
            assert qn <= seq.limit <= pn or (pn, qn) == seq.iterates[-1]

    def test_quadratic_convergence(self):
        seq = agm(3.0, 1.0)
        c = 1.0 / (8.0 * seq.q0)
        for (p0, q0), (p1, q1) in zip(seq.iterates, seq.iterates[1:]):
            assert p1 - q1 <= c * (p0 - q0) ** 2 + 4.0 * math.ulp(p0)

    def test_swap_recorded(self):
        seq = agm(0.5, 2.0)
        assert seq.swapped and seq.p0 == 2.0 and seq.q0 == 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            agm(-1.0, 1.0)
        with pytest.raises(DomainError):
            agm(1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                agm(bad, 1.0)
            with pytest.raises(DomainError):
                agm(1.0, bad)
        # q0/p0 below the normal range
        for p, q in ((1e300, 1e-300), (1e-300, 1e300)):
            with pytest.raises(DomainError):
                agm(p, q)

    def test_max_iter_reported(self, monkeypatch):
        # conicrect.agm is the function; its module holds the step bound as
        # the walk's weight 2^n at pair n, here two steps
        monkeypatch.setattr(sys.modules["conicrect.agm"], "_MAX_WEIGHT", 4.0)
        with pytest.raises(ConvergenceError):
            agm(1.0, 0.8)

    def test_extreme_scales(self):
        # mpmath 1.3.0, 40 digits: agm(p, q)
        for p, q, expected in (
            (1e200, 1e100, 6.781055745575450678538716e197),
            (1e300, 1e-6, 2.224995412425526277821605e297),
            (1.7e308, 1e308, 1.326819871701979857853879e308),
            (1e-20, 1e-21, 4.250407094932274585823801e-21),
            (1e-300, 1e-310, 6.434487047601331642288061e-302),
        ):
            assert abs(agm(p, q).limit - expected) <= 1e-15 * expected

    def test_power_of_two_scaling_is_exact(self):
        rng = random.Random(5)
        for _ in range(50):
            p, q = rng.uniform(1e-3, 1e3), rng.uniform(1e-3, 1e3)
            base = agm(p, q)
            for j in range(-1000, 1001, 125):
                seq = agm(math.ldexp(p, j), math.ldexp(q, j))
                assert seq.limit == math.ldexp(base.limit, j)
                assert seq.iterations == base.iterations

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=1e-3, max_value=1e3),
        q=st.floats(min_value=1e-3, max_value=1e3),
        c=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_homogeneity(self, p, q, c):
        lhs = agm(c * p, c * q).limit
        rhs = c * agm(p, q).limit
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


class TestCompleteK:
    def test_zero(self):
        assert complete_K(0.0) == HALF_PI

    def test_one_sqrt2(self):
        # oracle: adaptive quadrature of the defining integral
        k = 1.0 / math.sqrt(2.0)
        assert abs(complete_K(k) - oracle_K(k)) < 1e-12
        assert abs(complete_K(k) - 1.8540746773013719) < 1e-12

    def test_diverges_at_one(self):
        with pytest.raises(DomainError):
            complete_K(1.0)

    def test_oracle_triangle_attainable(self):
        # AGM vs quadrature at 1e-10 everywhere; series vs AGM within its own
        # truncation bound (test_acceptance carries the literal criterion)
        rng = random.Random(20260810)
        for _ in range(100):
            k = rng.uniform(0.0, 0.95)
            K = complete_K(k)
            assert abs(K - oracle_K(k)) < 1e-10
            assert abs(K - series_KE("K", k, 60)) <= series_truncation_bound(
                "K", k, 60
            ) + 1e-12

    def test_series_agreement_k_half(self):
        assert abs(series_KE("K", 0.5, 40) - complete_K(0.5)) < 1e-12


class TestCompleteE:
    def test_endpoints(self):
        assert complete_E(0.0) == HALF_PI
        assert complete_E(1.0) == 1.0

    def test_sqrt3_over_2(self):
        k = math.sqrt(3.0) / 2.0
        assert abs(complete_E(k) - oracle_E(k)) < 1e-12
        assert abs(complete_E(k) - 1.2110560275684595) < 1e-12

    def test_oracle_grid(self):
        for k in [0.05 * i for i in range(20)] + [0.999, 0.9999999]:
            assert abs(complete_E(k) - oracle_E(k)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_E(1.0 + 1e-12)

    def test_legendre_relation(self):
        # E K' + E' K - K K' = pi/2 (DLMF 19.7.1) holds the walks of (1, k')
        # and (1, k) to each other; moduli clustered at both ends as the
        # kernels workload draws them, kept where K(k') is finite
        rng = random.Random(1)
        checked = 0
        for _ in range(20000):
            if rng.random() < 0.5:
                k = 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
            else:
                k = 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)
            kp = complement(k)
            if not kp < 1.0:
                continue
            checked += 1
            K, E, Kp, Ep = complete_K(k), complete_E(k), complete_K(kp), complete_E(kp)
            terms = E * Kp + Ep * K + K * Kp
            assert abs(E * Kp + Ep * K - K * Kp - HALF_PI) <= 1e-15 * terms, k
        assert checked > 15000


class TestIncompleteF:
    def test_trivial(self):
        assert incomplete_F(0.0, 0.7) == 0.0
        assert incomplete_F(1.1, 0.0) == pytest.approx(1.1, abs=1e-15)

    def test_quarter_pi_08_oracle(self):
        v = incomplete_F(math.pi / 4.0, 0.8)
        assert abs(v - oracle_F(math.pi / 4.0, 0.8)) < 1e-12
        assert abs(v - 0.8396223468040811) < 1e-12

    def test_complete_case_matches_K(self):
        for k in (0.1, 0.5, 0.9, 0.99):
            assert abs(incomplete_F(HALF_PI, k) - complete_K(k)) < 1e-12

    def test_oracle_grid(self):
        for k in (0.15, 0.45, 0.75, 0.95):
            for phi in (0.3, 0.8, 1.2, 1.5):
                assert abs(incomplete_F(phi, k) - oracle_F(phi, k)) < 1e-12

    def test_monotone_in_phi_and_k(self):
        phis = [0.1 * i for i in range(1, 16)]
        vals = [incomplete_F(phi, 0.7) for phi in phis]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        ks = [0.05 * i for i in range(19)]
        vals = [incomplete_F(1.2, k) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_F(-0.1, 0.5)
        with pytest.raises(DomainError):
            incomplete_F(2.0, 0.5)
        with pytest.raises(DomainError):
            incomplete_F(0.5, 1.0)


class TestIncompleteE:
    def test_trivial(self):
        assert incomplete_E(0.0, 0.3) == 0.0
        assert incomplete_E(0.9, 0.0) == 0.9

    def test_complete_consistency(self):
        k = math.sqrt(3.0) / 2.0
        assert abs(incomplete_E(HALF_PI, k) - complete_E(k)) < 1e-12

    def test_oracle_values(self):
        for k, phi in ((0.4, 0.7), (0.9, 1.3), (1.0, HALF_PI)):
            o = integrate(
                lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi
            ).value
            assert abs(incomplete_E(phi, k) - o) < 1e-12

    def test_near_one_modulus_pinned(self):
        # mpmath 1.3.0, 40 digits: ellipe(pi/2, (1 - 1e-12)^2)
        expected = 1.0000000000143549248
        assert abs(incomplete_E(HALF_PI, 1.0 - 1e-12) - expected) <= 1e-14 * expected


class TestSeries:
    def test_zero_modulus(self):
        assert series_KE("K", 0.0, 7) == HALF_PI
        assert series_KE("E", 0.0, 7) == HALF_PI

    def test_truncation_bound_monotone(self):
        # partial sums approach the AGM value within the stated bound
        for k in (0.2, 0.5, 0.8):
            for terms in (5, 15, 45):
                bound = series_truncation_bound("K", k, terms)
                assert abs(series_KE("K", k, terms) - complete_K(k)) <= bound + 1e-14
                bound_e = series_truncation_bound("E", k, terms)
                assert abs(series_KE("E", k, terms) - complete_E(k)) <= bound_e + 1e-14

    def test_domain(self):
        for kind, k, terms in (
            ("K", 1.0, 10), ("X", 0.5, 10), ("K", 0.5, 0), ("E", 0.5, 0), ("K", 0.5, -3),
            # a terms that is not an int
            ("K", 0.5, 2.5), ("E", 0.5, 2.0), ("K", 0.5, None),
        ):
            with pytest.raises(DomainError):
                series_KE(kind, k, terms)


class TestLemniscate:
    def test_unit_radius(self):
        arcs = lemniscate(1.0)
        quarter_oracle = integrate(
            lambda v: 2.0 * v / math.sqrt(1.0 - (1.0 - v * v) ** 4), 0.0, 1.0
        ).value
        assert abs(arcs.quarter_arc - quarter_oracle) < 1e-12
        assert abs(arcs.quarter_arc - 1.3110287771460599) < 1e-12
        assert abs(arcs.full_arc - 4.0 * arcs.quarter_arc) < 1e-12
        assert abs(arcs.full_arc - 2.0 * math.pi / agm(1.0, math.sqrt(2.0)).limit) < 1e-15
        assert abs(arcs.gauss_constant - 0.8346268416740732) < 1e-13

    def test_linear_scaling(self):
        one = lemniscate(1.0)
        two = lemniscate(2.0)
        assert two.quarter_arc == pytest.approx(2.0 * one.quarter_arc, rel=1e-15)
        assert two.gauss_constant == one.gauss_constant

    def test_identity_k_and_agm_routes(self):
        lhs = 4.0 / math.sqrt(2.0) * complete_K(1.0 / math.sqrt(2.0))
        rhs = 2.0 * math.pi / agm(1.0, math.sqrt(2.0)).limit
        assert abs(lhs - rhs) < 1e-12

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                lemniscate(bad)

    def test_overflowing_full_arc_is_a_domain_error(self):
        with pytest.raises(DomainError):
            lemniscate(1e308)
        largest = 3.428019975991033e307  # the last radius whose full arc is finite
        arcs = lemniscate(largest)
        assert arcs.full_arc == 4.0 * arcs.quarter_arc < math.inf
        with pytest.raises(DomainError):
            lemniscate(math.nextafter(largest, math.inf))

    def test_quarter_arc_first_keeps_the_bits(self):
        # pi R / (2M) and a quarter of 2 pi R / M differ only by powers of two
        record = []
        sys.modules["conicrect.agm"]._agm_steps(math.sqrt(2.0), 1.0, record=record)
        *_, (p, q) = record
        limit = 0.5 * (p + q)
        rng = random.Random(308)
        for _ in range(3000):
            radius = 10.0 ** rng.uniform(-3.0, 3.0)
            full_arc = 2.0 * math.pi * radius / limit
            arcs = lemniscate(radius)
            assert (arcs.quarter_arc, arcs.full_arc) == (0.25 * full_arc, full_arc)


class OracleCalled(Exception):
    pass


def test_kernels_never_reach_the_oracle(monkeypatch):
    # integrate looks _gauss_kronrod up at call time, so this catches any route
    def refuse(*args, **kwargs):
        raise OracleCalled

    monkeypatch.setattr(quadrature, "_gauss_kronrod", refuse)
    with pytest.raises(OracleCalled):
        integrate(math.sin, 0.0, 1.0)
    for k in (0.0, 1e-8, 0.7, 1.0 - 1e-12):
        complete_K(k)
        complete_E(k)
        series_KE("K", k, 20)
        series_KE("E", k, 20)
        check_borwein(k)
        for phi in (0.3, HALF_PI):
            incomplete_F(phi, k)
            incomplete_E(phi, k)
            check_gleichung(phi, k)
            amplitude_inverse(phi, k)
        if k > 0.0:
            H = Hyperbola(k, complement(k))  # modulus a / sqrt(a^2 + b^2) = k
            excess_infinity_closed(H)
            excess_infinity_landen(semiaxes_to_pair(H.a, H.b))
            E = Ellipse(1.0, complement(k))  # eccentricity k
            ellipse_arc(E, 0.0, 0.5)
            ellipse_arc(E, 0.25, 1.0)
    complete_E(1.0)
    incomplete_E(HALF_PI, 1.0)
    lemniscate(1.0)
    agm(1.0, 1e-12)
    agm(0.5, 2.0)
