"""Every kernel value, bit for bit, against a copy of the generator walk it
replaced, and one AGM walk per kernel call.

The copy below is the walk as it stood before the walk returned its
iterates, limit and Gauss tail in one pass: a generator of the AGM iterates,
an amplitude step per call, and a Legendre loop that tested phi on every
step.  It runs on the same libm as the package, so equality holds on any
platform.  The draws follow the ``kernels`` workload of
``benchmarks/inproc.py``.

``amplitude_map`` is that amplitude step over the one pair (1 + k, 1 - k),
the forward map of ``amplitude_inverse``; tests/test_landen.py and
tests/test_golden.py hold it to its defining relation and golden rows.
"""

import inspect
import math
import random
import sys

from conicrect import (
    Hyperbola,
    LandenPair,
    agm,
    amplitude_inverse,
    check_borwein,
    check_gleichung,
    complete_E,
    complete_K,
    excess_infinity_closed,
    excess_infinity_landen,
    incomplete_E,
    incomplete_F,
    lemniscate,
    modulus_ascend,
)
from conicrect.agm import complement

HALF_PI = 0.5 * math.pi
K_EDGE = 1.0 - 1e-12
DRAWS = 2000


def _steps(p, q):
    prev_diff = math.inf
    for _ in range(61):
        yield p, q
        diff = p - q
        if diff <= 1e-15 or diff <= 1e-15 * p or diff >= prev_diff:
            return
        prev_diff = diff
        p, q = 0.5 * (p + q), math.sqrt(p * q)
        if q > p:
            q = p
    raise AssertionError("the reference walk did not stop")


def _amplitude_step(phi, a, b):
    s, c = math.sin(phi), math.cos(phi)
    return 2.0 * phi - math.atan2((a - b) * s * c, a * c * c + b * s * s)


def amplitude_map(phi_hat, k):
    """phi_hat + arctan(((1 - k)/(1 + k)) tan(phi_hat)), the amplitude step
    of the AGM (1 + k, 1 - k) on its continuous branch."""
    return _amplitude_step(phi_hat, 1.0 + k, 1.0 - k)


def _legendre(kp, phi=None):
    weight = 0.5
    tail = sines = 0.0
    for a, b in _steps(1.0, kp):
        c = 0.5 * (a - b)
        weight *= 2.0
        tail += weight * c * c
        if phi is not None:
            phi = _amplitude_step(phi, a, b)
            sines += c * math.sin(phi)
    limit = 0.5 * (a + b)
    if phi is None:
        return 0.5 * math.pi / limit, tail, sines
    return phi / (2.0 * weight * limit), tail, sines


def _second_kind(k, phi=None):
    F, tail, sines = _legendre(complement(k), phi)
    return F * (1.0 - (0.5 * k * k + tail)) + sines, F


def ref_complete_K(k):
    return _legendre(complement(k))[0]


def ref_complete_E(k):
    return 1.0 if k == 1.0 else _second_kind(k)[0]


def ref_incomplete_F(phi, k):
    return _legendre(complement(k), phi)[0]


def ref_incomplete_E(phi, k):
    return math.sin(phi) if k == 1.0 else _second_kind(k, phi)[0]


def ref_agm(p0, q0):
    swapped = p0 < q0
    if swapped:
        p0, q0 = q0, p0
    e = math.frexp(p0)[1]
    scaled = tuple(_steps(math.ldexp(p0, -e), math.ldexp(q0, -e)))
    p, q = scaled[-1]
    iterates = tuple((math.ldexp(pn, e), math.ldexp(qn, e)) for pn, qn in scaled)
    return (p0, q0, iterates, math.ldexp(0.5 * (p + q), e), len(scaled) - 1, swapped)


def ref_lemniscate(radius):
    *_, (p, q) = _steps(math.sqrt(2.0), 1.0)
    limit = 0.5 * (p + q)
    quarter_arc = 0.5 * math.pi * radius / limit
    return (quarter_arc, 4.0 * quarter_arc, 1.0 / limit)


def ref_excess_infinity_closed(a, b):
    H = Hyperbola(a, b)
    c = H.focal_distance
    K, tail, _ = _legendre(H.b / c)
    return c * K * (0.5 * H.modulus * H.modulus - tail)


def ref_excess_infinity_landen(m, n):
    s2 = m * ref_complete_E(math.sqrt((m - n) * (m + n)) / m)
    s1 = (m + n) * ref_complete_E((m - n) / (m + n))
    return 2.0 * s2 - s1


def ref_gleichung(phi, k):
    rhs = 2.0 / (1.0 + k) * _legendre((1.0 - k) / (1.0 + k), amplitude_inverse(phi, k))[0]
    return (ref_incomplete_F(phi, k), rhs)


def ref_borwein(k):
    lhs, K = _second_kind(k)
    return (lhs, 0.5 * (1.0 + k) * ref_complete_E(modulus_ascend(k)) + 0.5 * (1.0 - k * k) * K)


# the draws of benchmarks/inproc.py
def _logu(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _modulus(rng):
    if rng.random() < 0.5:
        return 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
    return 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)


def _limit_semiaxes(rng):
    a = _logu(rng, 0.1, 10.0)
    return a, a / _logu(rng, 1e-8, 1e6)


def _pair(a, b):
    m = 0.5 * (math.hypot(a, b) + a)
    return m, b * b / (4.0 * m)


def _moduli(rng):
    return [0.0, K_EDGE] + [_modulus(rng) for _ in range(DRAWS)]


def _amplitudes_and_moduli(rng):
    corners = [(phi, k) for phi in (0.0, HALF_PI) for k in (0.0, K_EDGE)]
    return corners + [(rng.uniform(0.0, HALF_PI), _modulus(rng)) for _ in range(DRAWS)]


def _cases():
    rng = random.Random("kernel-bits")
    semiaxes = [(1.0, 1e8), (1e6, 1.0)] + [_limit_semiaxes(rng) for _ in range(DRAWS)]
    return [
        ("agm", lambda p, q: tuple(agm(p, q)), ref_agm,
         [(1.0, 1e-12)] + [(_logu(rng, 1e-3, 1e3), _logu(rng, 1e-3, 1e3)) for _ in range(DRAWS)]),
        ("complete_K", complete_K, ref_complete_K, [(k,) for k in _moduli(rng)]),
        ("complete_E", complete_E, ref_complete_E, [(1.0,)] + [(k,) for k in _moduli(rng)]),
        ("incomplete_F", incomplete_F, ref_incomplete_F, _amplitudes_and_moduli(rng)),
        ("incomplete_E", incomplete_E, ref_incomplete_E, [(1.0, 1.0)] + _amplitudes_and_moduli(rng)),
        ("lemniscate", lambda r: tuple(lemniscate(r)), ref_lemniscate,
         [(_logu(rng, 1e-3, 1e3),) for _ in range(DRAWS)]),
        ("excess_infinity_closed", lambda a, b: excess_infinity_closed(Hyperbola(a, b)),
         ref_excess_infinity_closed, semiaxes),
        ("excess_infinity_landen", lambda m, n: excess_infinity_landen(LandenPair(m, n)),
         ref_excess_infinity_landen, [_pair(a, b) for a, b in semiaxes]),
        ("check_gleichung", lambda phi, k: check_gleichung(phi, k)[2:], ref_gleichung,
         _amplitudes_and_moduli(rng)),
        ("check_borwein", lambda k: check_borwein(k)[2:], ref_borwein, [(k,) for k in _moduli(rng)]),
    ]


def test_every_kernel_value_keeps_its_bits():
    differ = [
        (name, args)
        for name, call, ref, draws in _cases()
        for args in draws
        if call(*args) != ref(*args)
    ]
    assert differ == []


def patch_walk(monkeypatch, replacement):
    """Put ``replacement`` in place of ``_agm_steps`` under every name a
    conicrect module binds the walk to; the names of those modules."""
    walk = sys.modules["conicrect.agm"]._agm_steps
    bound = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("conicrect."):
            continue
        for attr, value in list(vars(module).items()):
            if value is walk:
                monkeypatch.setattr(module, attr, replacement)
                bound.append(name)
    return bound


def test_one_agm_walk_per_kernel_call(monkeypatch):
    # a second copy of the AGM step anywhere would walk without _agm_steps;
    # lemniscate's M(1, sqrt(2)) is walked once, at import; only agm() asks
    # the walk for a record of its pairs.  The walk is counted under every
    # name a conicrect module binds it to.
    walk = sys.modules["conicrect.agm"]._agm_steps
    signature = inspect.signature(walk)
    walks = []

    def counted(*args, **kwargs):
        walks.append(signature.bind(*args, **kwargs).arguments.get("record") is not None)
        return walk(*args, **kwargs)

    assert patch_walk(monkeypatch, counted) == ["conicrect.agm", "conicrect.conics", "conicrect.landen"]
    cases = [
        (complete_K, [(0.0,), (0.5,), (K_EDGE,)], 1),
        (complete_E, [(0.0,), (0.5,), (K_EDGE,)], 1),
        (incomplete_F, [(0.0, 0.5), (1.0, 0.0), (HALF_PI, K_EDGE)], 1),
        (incomplete_E, [(0.0, 0.5), (1.0, 0.0), (HALF_PI, K_EDGE)], 1),
        (agm, [(1.0, 0.5), (1e-3, 1e3), (1.0, 1e-12)], 1),
        (lambda a, b: excess_infinity_closed(Hyperbola(a, b)), [(1.0, 2.0), (1.0, 1e8), (1e6, 1.0)], 1),
        # both quadrants walk while neither modulus rounds to 1
        (lambda m, n: excess_infinity_landen(LandenPair(m, n)), [(2.0, 1.0), (1.0 + 1e-9, 1.0), (10.0, 1e-3)], 2),
        (check_gleichung, [(0.0, 0.0), (1.0, 0.5), (HALF_PI, K_EDGE)], 2),
        # E(k) and K(k) from one walk, E(k_hat) from a second while k_hat < 1
        (check_borwein, [(0.0,), (0.5,), (0.9,)], 2),
        (lemniscate, [(1e-3,), (1.0,), (1e3,)], 0),
    ]
    counted_walks = []
    for call, draws, _ in cases:
        for args in draws:
            walks.clear()
            call(*args)
            counted_walks.append((len(walks), sum(walks)))
    assert counted_walks == [
        (expected, expected if call is agm else 0) for call, draws, expected in cases for _ in draws
    ]
