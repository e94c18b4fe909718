"""Modulus/amplitude transformation layer and its residual checks."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrect import (
    DomainError,
    LagrangeParams,
    amplitude_inverse,
    check_agm_invariance,
    check_borwein,
    check_gleichung,
    complete_E,
    complete_K,
    incomplete_F,
    integrate,
    lagrange_substitution,
    modulus_ascend,
    upper_limit,
)
from conicrect import landen
from test_kernel_bits import amplitude_map  # the walk's amplitude step, held test-side

HALF_PI = 0.5 * math.pi


def descend(k_hat):
    """The inverse of the ascending map, k = (k_hat / (1 + k_hat'))^2: the
    reference the ascending map is held against."""
    r = k_hat / (1.0 + math.sqrt((1.0 - k_hat) * (1.0 + k_hat)))
    return r * r


# (p, q, K(q/p)/p from mpmath at 40 digits, oracle evaluations of the check
# at x = 1/p): both sides of the invariance equal K(q/p)/p there.
SNAPPED_REFERENCE = [
    (1.0, 0.5, 1.6857503548125960429, 90),
    (1.0, 0.01, 1.570835598912152236, 30),
    (2.0, 1.9, 1.2950056154372504058, 210),
    (0.7, 0.3, 2.3592635547450068571, 90),
    (1.5, 0.001, 1.0471976675519103013, 30),
]


class TestModulusMaps:
    def test_fixed_points(self):
        assert modulus_ascend(0.0) == 0.0
        assert modulus_ascend(1.0) == 1.0

    def test_exact_rationals(self):
        assert modulus_ascend(1.0 / 9.0) == pytest.approx(0.6, abs=1e-16)

    def test_descend_of_ascend_06(self):
        k_hat = modulus_ascend(0.6)
        assert abs(k_hat - 0.9682458365518542) < 1e-15
        assert abs(descend(k_hat) - 0.6) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(k=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, k):
        # the ascending map compresses a neighbourhood of 1 quadratically, so
        # inverting through a double amplifies its rounding by ~2/k_hat';
        # away from 1 the round trip is tight
        k_hat = modulus_ascend(k)
        amp = 2.0 / math.sqrt((1.0 - k_hat) * (1.0 + k_hat)) if k_hat < 1.0 else 1.0
        tol = max(1e-14, 8.0 * 2.0**-52 * amp)
        assert abs(descend(k_hat) - k) <= tol
        assert abs(modulus_ascend(descend(k)) - k) <= 1e-14

    def test_round_trip_grid_tight(self):
        for j in range(96):
            k = j / 100.0
            assert abs(descend(modulus_ascend(k)) - k) <= 1e-14
            assert abs(modulus_ascend(descend(k)) - k) <= 1e-14

    def test_ascend_dominates(self):
        for k in [0.01 * i for i in range(1, 100)]:
            assert k < modulus_ascend(k) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            modulus_ascend(-0.1)
        with pytest.raises(DomainError):
            modulus_ascend(1.1)


class TestAmplitudeMap:
    def test_zero(self):
        assert amplitude_map(0.0, 0.7) == 0.0

    def test_direct_substitution(self):
        # phi_hat = pi/4: sin(2 phi_hat) = 1, cos = 0
        assert amplitude_map(math.pi / 4.0, 0.5) == pytest.approx(
            math.atan(2.0), abs=1e-15
        )

    def test_defining_relation_residual(self):
        for k in (0.0, 0.2, 0.5, 0.8, 0.99):
            for i in range(9):
                phi_hat = HALF_PI * i / 8.0
                phi = amplitude_map(phi_hat, k)
                assert abs(math.sin(2.0 * phi_hat - phi) - k * math.sin(phi)) < 1e-13

    def test_complete_case_inverse(self):
        # the phi_hat mapping onto pi/2 is pi/4 + arcsin(k)/2
        for k in (0.1, 0.5, 0.9):
            phi_hat = math.pi / 4.0 + 0.5 * math.asin(k)
            assert abs(amplitude_map(phi_hat, k) - HALF_PI) < 1e-13

    def test_strictly_increasing_in_phi_hat(self):
        for k in (0.1, 0.6, 0.95):
            vals = [amplitude_map(HALF_PI * i / 32.0, k) for i in range(33)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self):
        for k in (0.0, 0.3, 0.7, 0.95):
            for phi in (1e-300, 1e-12, 0.05, 0.6, 1.2, HALF_PI):
                phi_hat = amplitude_inverse(phi, k)
                assert phi / 2.0 <= phi_hat <= (phi + HALF_PI) / 2.0
                assert abs(amplitude_map(phi_hat, k) - phi) <= 1e-15 * phi

    @pytest.mark.parametrize(
        "phi, k, ref",
        [
            # (phi + asin(k sin(phi)))/2 by mpmath at 50 digits
            (1e-300, 0.3, 6.500000000000000107372946e-301),
            (1e-12, 0.3, 6.499999999999999813752058e-13),
            (1.2, 0.95, 1.14371686261750365766365),
            (HALF_PI, 1.0 - 1e-12, 1.570795619695936654418545),
        ],
    )
    def test_inverse_reference_values(self, phi, k, ref):
        assert amplitude_inverse(phi, k) == pytest.approx(ref, rel=2.5e-16, abs=0.0)


class TestLagrangeParams:
    def test_means(self):
        pr = LagrangeParams(4.0, 2.0)
        assert pr.p1 == 3.0
        assert pr.q1 == pytest.approx(math.sqrt(8.0), abs=1e-15)
        assert pr.q1 < pr.p1 < pr.p

    def test_inverse_relations(self):
        pr = LagrangeParams(5.0, 0.7)
        root = math.sqrt(pr.p1**2 - pr.q1**2)
        assert pr.p1 + root == pytest.approx(pr.p, rel=1e-14)
        assert pr.p1 - root == pytest.approx(pr.q, rel=1e-12)

    def test_degenerate_allowed(self):
        pr = LagrangeParams(2.0, 2.0)
        assert pr.p1 == pr.q1 == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            LagrangeParams(1.0, 2.0)
        with pytest.raises(DomainError):
            LagrangeParams(1.0, 0.0)
        for p, q in ((math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan), (math.inf, math.inf)):
            with pytest.raises(DomainError):
                LagrangeParams(p, q)
        # finite p, q whose sum or product overflows, or whose product is
        # below the smallest normal double: zero, or subnormal
        for p, q in ((1.7e308, 1e308), (1e200, 1e150), (1e-200, 1e-201), (1e-160, 1e-160)):
            with pytest.raises(DomainError):
                LagrangeParams(p, q)
        assert LagrangeParams(1e-150, 1e-150).q1 == pytest.approx(1e-150, rel=1e-15)


class TestSubstitution:
    def test_zero(self):
        assert lagrange_substitution(0.0, LagrangeParams(3.0, 1.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.2, max_value=50.0),
        ratio=st.floats(min_value=0.05, max_value=0.99),
    )
    def test_peak_value_is_one_over_p(self, p, ratio):
        # q < p strictly: at q = p the peak parameter sits on the excluded
        # domain boundary |y1| = 1/p1
        q = p * ratio
        pr = LagrangeParams(p, q)
        s = math.sqrt(2.0 / (p * (p + q)))
        assert abs(lagrange_substitution(s, pr) - 1.0 / p) <= 1e-13 / p

    def test_peak_is_global_max(self):
        pr = LagrangeParams(3.0, 1.0)
        top = 1.0 / pr.p1
        best = max(
            lagrange_substitution(y1, pr)
            for y1 in [top * i / 2000.0 for i in range(2000)]
        )
        assert best <= 1.0 / pr.p + 1e-12

    def test_degenerate_identity(self):
        pr = LagrangeParams(2.0, 2.0)
        assert lagrange_substitution(0.3, pr) == pytest.approx(0.3, abs=1e-15)

    def test_domain(self):
        for bad in (0.5, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                lagrange_substitution(bad, LagrangeParams(3.0, 1.0))
        with pytest.raises(DomainError):
            lagrange_substitution(math.nan, LagrangeParams(1.0, 0.5))


class TestUpperLimit:
    def test_zero(self):
        assert upper_limit(0.0, LagrangeParams(2.0, 1.0)) == 0.0

    def test_closed_form_at_one_over_p(self):
        pr = LagrangeParams(4.0, 2.0)
        assert upper_limit(0.25, pr) == pytest.approx(math.sqrt(2.0 / 24.0), abs=1e-15)

    def test_degenerate(self):
        pr = LagrangeParams(1.0, 1.0)
        assert upper_limit(1.0, pr) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.2, max_value=20.0),
        ratio=st.floats(min_value=0.05, max_value=0.999),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounded_by_one_over_p1(self, p, ratio, frac):
        pr = LagrangeParams(p, p * ratio)
        s = upper_limit(frac / p, pr)
        assert s <= 1.0 / pr.p1 * (1.0 + 1e-14)

    def test_domain(self):
        for bad in (-0.1, 0.6, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                upper_limit(bad, LagrangeParams(2.0, 1.0))

    def test_small_x_stability(self):
        pr = LagrangeParams(2.0, 1.0)
        x = 1e-9
        # s ~ x for x -> 0 since p1 s ~ p x / (2/(1+k)) ... nonzero and smooth
        s = upper_limit(x, pr)
        assert s == pytest.approx(x * math.sqrt(2.0) / math.sqrt(2.0), rel=1e-6)


class TestGleichung:
    def test_trivial_zero_amplitude(self):
        rep = check_gleichung(0.0, 0.5)
        assert rep.lhs == rep.rhs == 0.0

    def test_zero_modulus(self):
        rep = check_gleichung(0.8, 0.0)
        assert rep.residual < 1e-15

    def test_complete_case_06(self):
        rep = check_gleichung(HALF_PI, 0.6)
        assert rep.lhs == pytest.approx(complete_K(0.6), abs=1e-14)
        assert rep.rhs == pytest.approx(
            2.0 / 1.6 * incomplete_F(math.pi / 4.0 + 0.5 * math.asin(0.6), 0.9682458365518542),
            abs=1e-13,
        )
        assert rep.residual < 1e-12

    def test_grid(self):
        for i in range(5):
            phi = HALF_PI * i / 4.0
            for k in [0.1 * j for j in range(1, 10)]:
                assert check_gleichung(phi, k).residual < 1e-12

    def test_ascended_modulus_near_one(self):
        # k_hat = 2 sqrt(k)/(1+k) rounds to 1 for most of these k; the right
        # side runs on its exact complement (1-k)/(1+k) instead.  Past the
        # 1e-12 budget only the rounding of phi_hat may show: half an ulp of
        # phi_hat times the slope 2/(1+k) dF(phi_hat, k_hat)/dphi_hat
        rng = random.Random(6021)
        for _ in range(3000):
            phi, k = rng.uniform(0.0, HALF_PI), 1.0 - 10.0 ** -rng.uniform(6.0, 12.0)
            phi_hat = amplitude_inverse(phi, k)
            kc = (1.0 - k) / (1.0 + k)
            slope = 2.0 / (1.0 + k) / math.hypot(kc, math.sqrt(1.0 - kc * kc) * math.cos(phi_hat))
            assert check_gleichung(phi, k).residual <= 1e-12 + 0.5 * math.ulp(phi_hat) * slope
        # the documented corner: half an ulp of phi_hat ~ pi/2 - 7e-7 times ~1.4e6
        assert check_gleichung(HALF_PI, 1.0 - 1e-12).residual <= 2e-10


class TestBorwein:
    def test_zero(self):
        rep = check_borwein(0.0)
        assert rep.residual < 1e-15

    def test_exact_hat(self):
        rep = check_borwein(1.0 / 9.0)
        assert rep.residual < 1e-12

    def test_stress_near_one(self):
        assert check_borwein(0.95).residual < 1e-11
        assert check_borwein(0.99).residual < 1e-11

    def test_grid(self):
        for k in [0.1 * j for j in range(10)]:
            assert check_borwein(k).residual < 1e-12

    def test_one_walk_gives_E_and_K(self, monkeypatch):
        # E(k) and K(k) share one walk over (1, k'), E(k_hat) takes a second
        # unless k_hat rounds to 1; both sides keep the bits of the separate
        # kernels
        rng = random.Random(5)
        moduli = [0.0, 1.0 / 9.0, 1.0 - 1e-12] + [10.0 ** -rng.uniform(0.0, 12.0) for _ in range(100)]
        moduli += [1.0 - 10.0 ** -rng.uniform(0.3, 12.0) for _ in range(100)]
        agm_module = sys.modules["conicrect.agm"]
        walk = agm_module._legendre
        walks = []
        monkeypatch.setattr(agm_module, "_legendre", lambda *args: walks.append(args) or walk(*args))
        reports = [check_borwein(k) for k in moduli]
        assert len(walks) == sum(1 + (modulus_ascend(k) < 1.0) for k in moduli)
        monkeypatch.undo()
        for k, rep in zip(moduli, reports):
            assert rep.lhs == complete_E(k)
            assert rep.rhs == 0.5 * (1.0 + k) * complete_E(modulus_ascend(k)) + 0.5 * (1.0 - k * k) * complete_K(k)

# repr of both sides of check_agm_invariance(x, p, q), recorded before the
# oracle left after a first panel that meets its contract: the first draws on
# the benchmark's rectify stream at seed 2, four at x = 1/p, where x p >=
# 1 - 1e-12 takes the singular end, then four below it.
INVARIANCE_BITS = [
    ((1.4804506080170685, 0.6754700187798975, 0.48294675643950613), ("2.759081711189559", "2.75908171118956")),
    ((0.773244955575648, 1.293251243075414, 0.22658155367610755), ("1.2240957421581344", "1.2240957421581349")),
    ((1.741400704816011, 0.5742503705404528, 0.06144520450438439), ("2.7432661217868692", "2.7432661217868697")),
    ((0.8992977225581451, 1.111978797361342, 0.1624111160126005), ("1.4202389076071686", "1.4202389076071684")),
    ((0.21743700702608912, 1.7522630521916562, 1.0286704045363266), ("0.2250176238816332", "0.22501762388163327")),
    ((1.0807806046754374, 0.8467563933494353, 0.6141307218191192), ("1.524987377854732", "1.5249873778547332")),
    ((0.7674537258677158, 1.205978199601267, 0.5661279472856735), ("1.0225619167911695", "1.0225619167911697")),
    ((0.617981214939712, 1.1050626210438201, 0.8589988669721916), ("0.7203446404085155", "0.7203446404085156")),
]


class TestAgmInvariance:
    @pytest.mark.parametrize("args,expected", INVARIANCE_BITS)
    def test_bits(self, args, expected):
        rep = check_agm_invariance(*args)
        assert (repr(rep.lhs), repr(rep.rhs)) == expected

    def test_zero_x(self):
        rep = check_agm_invariance(0.0, 1.0, 0.5)
        assert rep.lhs == rep.rhs == 0.0

    def test_full_range_with_singularity(self):
        rep = check_agm_invariance(1.0, 1.0, 0.5)
        assert rep.residual < 1e-10

    def test_interior(self):
        rep = check_agm_invariance(0.25, 2.0, 1.0)
        assert rep.residual < 1e-10

    def test_random_triples(self):
        rng = random.Random(4207)
        for _ in range(50):
            p = rng.uniform(0.5, 5.0)
            q = p * rng.uniform(0.05, 0.95)
            x = rng.uniform(0.05, 0.999) / p
            assert check_agm_invariance(x, p, q).residual < 1e-10

    def test_chained_two_steps(self):
        # the substituted integral is itself substitutable: p,q -> p1,q1 -> p2,q2
        p, q, x = 2.0, 0.6, 0.4
        first = LagrangeParams(p, q)
        s1 = upper_limit(x, first)
        second = LagrangeParams(first.p1, first.q1)
        s2 = upper_limit(s1, second)
        assert check_agm_invariance(x, p, q).residual < 1e-10
        assert check_agm_invariance(s1, first.p1, first.q1).residual < 1e-10

        def integrand(a, b):
            return lambda y: 1.0 / math.sqrt((1.0 - (a * y) ** 2) * (1.0 - (b * y) ** 2))

        start = integrate(integrand(p, q), 0.0, x).value
        end = integrate(integrand(second.p1, second.q1), 0.0, s2).value
        assert abs(start - end) < 1e-10

    @pytest.mark.parametrize("p,q,value,evaluations", SNAPPED_REFERENCE)
    def test_singular_end(self, oracle_evaluations, p, q, value, evaluations):
        counts = oracle_evaluations(landen)
        rep = check_agm_invariance(1.0 / p, p, q)
        assert rep.residual <= 1e-12
        assert rep.lhs == pytest.approx(value, rel=1e-14, abs=0.0)
        assert rep.rhs == pytest.approx(value, rel=1e-14, abs=0.0)
        assert sum(counts) == evaluations
        # the documented band around x = 1/p is taken as exactly 1/p
        for x in ((1.0 - 5e-13) / p, (1.0 + 5e-13) / p):
            band = check_agm_invariance(x, p, q)
            assert (band.lhs, band.rhs) == (rep.lhs, rep.rhs)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_agm_invariance(0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            check_agm_invariance(2.1, 0.5, 0.2)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                check_agm_invariance(bad, 1.0, 0.5)
        # p q overflows, or underflows (q1 = 0.0 left a 2e-3 relative residual)
        for x, p, q in ((1e-309, 1.7e308, 1e308), (1e-201, 1e200, 1e150), (5e199, 1e-200, 1e-201)):
            with pytest.raises(DomainError):
                check_agm_invariance(x, p, q)


def test_residual_report_fields():
    rep = check_borwein(0.3)
    assert rep.name == "borwein"
    assert rep.inputs == {"k": 0.3}
    assert rep.residual == abs(rep.lhs - rep.rhs)
    assert rep.within(1e-10) and not rep.within(0.0)
    for bad in (-1e-10, math.nan, math.inf):
        with pytest.raises(DomainError):
            rep.within(bad)
