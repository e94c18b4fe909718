"""40-digit mpmath references for every benchmark operation.

Nothing here imports conicrect: each reference is derived from the
defining integral in closed form and evaluated with mpmath, so a defect the
two double-precision routes share cannot hide in the check.

Each ``ref_<op>(*args)`` takes the exact float inputs the program receives
and returns a tuple of mpf values, one per value the operation reports.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

mp.dps = 40


def _fe(phi: float, k: float):
    """Incomplete F(phi, k) and E(phi, k) by the AGM with amplitudes.

    Abramowitz & Stegun 17.6.7-17.6.9: phi_{n+1} = phi_n + delta_n with
    tan(delta_n) = (b_n/a_n) tan(phi_n) in the quadrant of phi_n,
    F = phi_N / (2^N a_N) and E = F (1 - sum 2^(n-1) c_n^2) + sum_{n>=1}
    c_n sin(phi_n).  The amplitude is carried as (cos, sin) and rotated by
    delta_n, so the loop needs no trigonometry; a float copy of the angle
    picks the final turn.  All loop quantities lie in [-1, 1], so the loop
    runs in fixed point on Python integers with 16 guard bits over the
    working precision, more than ten times faster than mpf arithmetic.
    ``phi = mp.pi / 2`` gives the complete pair (K, E).  Checked against
    mpmath's ellipf/ellipe/ellipk by the benchmark's self-tests.
    """
    bits = mp.prec + 16
    one = 1 << bits

    def fix(x) -> int:
        return int(mp.ldexp(mpf(x), bits))

    kf = fix(k)
    cos_ph, sin_ph = fix(mp.cos(phi)), fix(mp.sin(phi))
    turns = float(phi)
    a, b, c = one, math.isqrt((one - kf) * (one + kf)), kf
    two_n = 1
    c_sum = (c * c) >> bits
    sin_sum = 0
    for _ in range(100):
        if c == 0:
            break
        x, y = (a * cos_ph) >> bits, (b * sin_ph) >> bits
        r = math.isqrt(x * x + y * y)
        delta = math.atan2(y, x)
        turns += delta + 2 * math.pi * round((turns - delta) / (2 * math.pi))
        cos_ph, sin_ph = (cos_ph * x - sin_ph * y) // r, (sin_ph * x + cos_ph * y) // r
        a, b, c = (a + b) >> 1, math.isqrt(a * b), (a - b) >> 1
        two_n <<= 1
        c_sum += (two_n * c * c) >> bits
        sin_sum += (c * sin_ph) >> bits
    else:
        raise ArithmeticError(f"AGM did not converge for phi={phi!r}, k={k!r}")
    ph = mp.atan2(sin_ph, cos_ph)
    ph += 2 * mp.pi * round((turns - float(ph)) / (2 * math.pi))
    f = ph / (two_n * mp.ldexp(a, -bits))
    return f, f * (1 - mp.ldexp(c_sum, -bits - 1)) + mp.ldexp(sin_sum, -bits)


def _excess_parts(a: float, b: float, p: float):
    """(tangent length, finite excess) of Hyperbola(a, b) at pedal distance p.

    The excess is the integral of q^2 / sqrt((a^2 - q^2)(b^2 + q^2)) from p
    to a; q = a cos(theta) turns it into c E(theta, a/c) - (b^2/c) F(theta, a/c)
    with c^2 = a^2 + b^2 and theta = acos(p/a).
    """
    with mp.workdps(60):
        a, b, p = mpf(a), mpf(b), mpf(p)
        c = mp.sqrt(a * a + b * b)
        f, e = _fe(mp.acos(p / a), a / c)
        tangent = mp.sqrt((a - p) * (a + p) * (b * b + p * p)) / p
        return tangent, c * e - b * b / c * f


def _limit_excess(a, b):
    # cancels like (a/b)^2 as a/b -> 0, so 60 digits leave 40 at a/b = 1e-10
    with mp.workdps(60):
        a, b = mpf(a), mpf(b)
        c = mp.sqrt(a * a + b * b)
        k_int, e_int = _fe(mp.pi / 2, a / c)
        return c * e_int - b * b / c * k_int


def ref_agm(p, q):
    return (mp.agm(mpf(p), mpf(q)),)


def ref_complete_K(k):
    return (mp.ellipk(mpf(k) ** 2),)


def ref_complete_E(k):
    return (_fe(mp.pi / 2, k)[1],)


def ref_incomplete_F(phi, k):
    return (_fe(phi, k)[0],)


def ref_incomplete_E(phi, k):
    return (_fe(phi, k)[1],)


_GAUSS = 1 / mp.agm(1, mp.sqrt(2))
_LEMNISCATE_QUARTER = mp.ellipk(mpf(1) / 2) / mp.sqrt(2)


def ref_lemniscate(radius):
    r = mpf(radius)
    return (r * _LEMNISCATE_QUARTER, 2 * mp.pi * r * _GAUSS, _GAUSS)


def ref_excess_infinity_closed(a, b):
    return (_limit_excess(a, b),)


def ref_excess_infinity_landen(m, n):
    with mp.workdps(60):
        m, n = mpf(m), mpf(n)
        return (_limit_excess(m - n, 2 * mp.sqrt(m * n)),)


def ref_excess_series(a, b, terms):
    r = (mpf(a) / mpf(b)) ** 2
    coeffs = (mpf(1) / 2, mpf(-3) / 16, mpf(15) / 128)
    return (mp.pi * mpf(a) ** 2 / (2 * mpf(b)) * sum(c * r**j for j, c in enumerate(coeffs[:terms])),)


def ref_excess_finite(a, b, p):
    return (_excess_parts(a, b, p)[1],)


def ref_hyperbola_arc(a, b, p):
    tangent, excess = _excess_parts(a, b, p)
    return (tangent - excess,)


def ref_simpson_arc(a, b, u0, u1):
    """Arc between u = a/x = u0 and u1: the vertex-to-point arcs at the
    pedal distances p(u) = a b u / sqrt(c^2 - a^2 u^2), subtracted."""

    def arc(u):
        if u == 1.0:
            return mpf(0)
        with mp.workdps(60):
            A, B, U = mpf(a), mpf(b), mpf(u)
            p = A * B * U / mp.sqrt(A * A + B * B - (A * U) ** 2)
            tangent, excess = _excess_parts(A, B, p)
            return tangent - excess

    return (arc(u0) - arc(u1),)


def ref_hyperbola_point(m, n, t):
    """Point F of the construction: the branch point of Hyperbola(m - n,
    2 sqrt(mn)) whose tangent line lies at distance p = sqrt((m-n)^2 - t^2)."""
    m, n, t = mpf(m), mpf(n), mpf(t)
    a, b = m - n, 2 * mp.sqrt(m * n)
    p2 = (a - t) * (a + t)
    s = b * b * (a * a - p2) / (p2 * (a * a + b * b))
    return (a * mp.sqrt(1 + s), b * mp.sqrt(s))


def rel_err(value: float, ref) -> float:
    """Relative error of a finite float against an mpf reference, capped at 1.

    At 1 no digit is right; past it the size of a wrong answer says nothing
    more, and an uncapped maximum would swing with the seed.
    """
    if ref == 0:
        return 0.0 if value == 0.0 else 1.0
    return min(1.0, float(abs((mpf(value) - ref) / ref)))
