"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line (visible under
``pytest -s``) and then asserts.  Criterion 11 is marked xfail(strict): as
stated it requires a 60-term modulus series to agree with the AGM value to
1e-10 up to k = 0.95, where the series truncation error is ~1.6e-4; the
test body is implemented faithfully and the attainable two-leg agreement is
covered in test_agm.
"""

import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from conicrect import (
    Hyperbola,
    LandenPair,
    agm,
    amplitude_inverse,
    check_agm_invariance,
    check_borwein,
    check_gleichung,
    complete_K,
    ellipse_tangent_length,
    excess_finite,
    excess_infinity_closed,
    excess_infinity_landen,
    excess_infinity_series,
    fagnano_check,
    incomplete_F,
    integrate,
    landen_theorem_check,
    modulus_ascend,
    semiaxes_to_pair,
    series_KE,
)
from conicrect.cli import main as cli_main

EPS = 2.0**-52


def report(num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_agm_convergence():
    agm(1.0, 0.8)  # warm-up outside the timed region
    start = time.perf_counter()
    seq = agm(1.0, 0.8)
    elapsed = time.perf_counter() - start
    p3, q3 = seq.iterates[3]
    gap = abs(p3 - q3)
    report(
        1,
        "agm(1, 0.8) third-step gap",
        gap < 1e-11 and elapsed < 1e-3,
        f"|p3-q3|={gap:.3e}, {elapsed * 1e6:.0f}us",
    )


def test_02_lemniscate_identity():
    start = time.perf_counter()
    lhs = 4.0 / math.sqrt(2.0) * complete_K(1.0 / math.sqrt(2.0))
    rhs = 2.0 * math.pi / agm(1.0, math.sqrt(2.0)).limit
    elapsed = time.perf_counter() - start
    diff = abs(lhs - rhs)
    report(
        2,
        "lemniscate via K(1/sqrt2) vs AGM",
        diff < 1e-12 and elapsed < 1e-2,
        f"diff={diff:.3e}, {elapsed * 1e3:.2f}ms",
    )


def test_03_excess_equivalence():
    rng = random.Random(8812)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        b = rng.uniform(0.5, 2.0)
        ratio = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        a = ratio * b
        closed = excess_infinity_closed(Hyperbola(a, b))
        via_pair = excess_infinity_landen(semiaxes_to_pair(a, b))
        worst = max(worst, abs(closed - via_pair))
    elapsed = time.perf_counter() - start
    report(
        3,
        "closed vs two-ellipse excess, 50 pairs",
        worst < 1e-10 and elapsed < 1.0,
        f"worst={worst:.3e}, {elapsed:.3f}s",
    )


def test_04_series_regime():
    worst_margin = math.inf
    ok = True
    for ratio in (0.01, 0.05, 0.1):
        H = Hyperbola(ratio, 1.0)
        err = abs(excess_infinity_series(H, 3) - excess_infinity_closed(H))
        # the first omitted term, (pi a^2 / 2b) (175/2048) (a/b)^6
        bound = 0.5 * math.pi * H.a * H.a / H.b * (175.0 / 2048.0) * ((H.a / H.b) ** 2) ** 3
        # the closed form does not cancel, so the comparison carries only a
        # few ulps of the excess itself
        noise = 8.0 * EPS * excess_infinity_closed(H)
        ok = ok and err <= bound + noise
        worst_margin = min(worst_margin, (bound + noise) - err)
    H_bad = Hyperbola(0.5, 1.0)
    visible = abs(excess_infinity_series(H_bad, 3) - excess_infinity_closed(H_bad))
    ok = ok and visible > 1e-4
    report(
        4,
        "flat-hyperbola series bound + visible failure at a/b=0.5",
        ok,
        f"margin={worst_margin:.2e}, err(0.5)={visible:.2e}",
    )


def test_05_landen_theorem_grid():
    start = time.perf_counter()
    worst = 0.0
    for ratio in (1.2, 2.0, 5.0, 10.0):
        pair = LandenPair(ratio, 1.0)
        span = pair.m - pair.n
        for i in range(1, 10):
            _, rep = landen_theorem_check(pair, 0.1 * i * span)
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    report(
        5,
        "two-ellipse rectification residual, 4x9 grid",
        worst < 1e-9 and elapsed < 30.0,
        f"worst={worst:.3e}, {elapsed:.2f}s",
    )


def test_06_limit_consistency():
    worst = 0.0
    for a, b in ((1.0, 1.0), (1.0, 2.0 * math.sqrt(2.0)), (2.0, 3.0)):
        H = Hyperbola(a, b)
        diff = abs(excess_finite(H, 1e-4 * a) - excess_infinity_closed(H))
        worst = max(worst, diff)
    report(6, "finite excess at p = 1e-4 a vs limit", worst < 1e-6, f"worst={worst:.3e}")


def test_07_gleichung_grid_and_chain():
    worst = 0.0
    for i in range(5):
        phi = 0.5 * math.pi * i / 4.0
        for j in range(1, 10):
            worst = max(worst, check_gleichung(phi, 0.1 * j).residual)
    worst_chain = 0.0
    for phi in (0.4, 1.0, 0.5 * math.pi):
        for k in (0.2, 0.5, 0.8):
            k1 = modulus_ascend(k)
            k2 = modulus_ascend(k1)
            phi1 = amplitude_inverse(phi, k)
            phi2 = amplitude_inverse(phi1, k1)
            lhs = incomplete_F(phi, k)
            rhs = 2.0 / (1.0 + k) * 2.0 / (1.0 + k1) * incomplete_F(phi2, k2)
            worst_chain = max(worst_chain, abs(lhs - rhs))
    report(
        7,
        "modulus-amplitude invariance, grid + two-step chain",
        worst < 1e-12 and worst_chain < 1e-11,
        f"grid={worst:.3e}, chain={worst_chain:.3e}",
    )


def test_08_borwein_identity():
    worst = max(check_borwein(0.1 * j).residual for j in range(1, 10))
    stress = check_borwein(0.99).residual
    report(
        8,
        "second-kind two-ellipse identity",
        worst < 1e-12 and stress < 1e-11,
        f"grid={worst:.3e}, k=0.99: {stress:.3e}",
    )


def test_09_integral_invariance():
    rng = random.Random(4207)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.5, 5.0)
        q = p * rng.uniform(0.05, 0.95)
        x = rng.uniform(0.05, 0.999) / p
        worst = max(worst, check_agm_invariance(x, p, q).residual)
    report(9, "AGM substitution integral invariance, 50 random", worst < 1e-10, f"worst={worst:.3e}")


def test_10_fagnano_grid():
    worst = 0.0
    for ratio in (1.2, 2.0, 5.0, 10.0):
        pair = LandenPair(ratio, 1.0)
        span = pair.m - pair.n
        for i in range(1, 10):
            worst = max(worst, fagnano_check(pair, 0.1 * i * span).residual)
    report(10, "equal-tangent arc pairs, 4x9 grid", worst < 1e-9, f"worst={worst:.3e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the 60-term modulus series truncates with "
        "error ~k^120/(120(1-k^2)), which reaches ~1.6e-4 at k=0.95, far above "
        "the 1e-10 pairwise requirement; the AGM-vs-quadrature leg passes at "
        "~1e-15 and is asserted separately in test_agm"
    ),
)
def test_11_oracle_triangle():
    rng = random.Random(20260810)
    worst_as = 0.0
    worst_aq = 0.0
    for _ in range(100):
        k = rng.uniform(0.0, 0.95)
        K_agm = complete_K(k)
        K_series = series_KE("K", k, 60)
        K_quad = integrate(
            lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, 0.5 * math.pi
        ).value
        worst_as = max(worst_as, abs(K_agm - K_series))
        worst_aq = max(worst_aq, abs(K_agm - K_quad))
    ok = worst_as < 1e-10 and worst_aq < 1e-10
    report(
        11,
        "three-route agreement for K (60-term series leg)",
        ok,
        f"agm-series={worst_as:.3e}, agm-quad={worst_aq:.3e}",
    )


def test_12_cli_end_to_end(tmp_path):
    checks = [
        ["check", "gleichung", "--phi", "1.0471975511965976", "--k", "0.6"],
        ["check", "borwein", "--k", "0.5"],
        ["check", "agm-invariance", "--x", "0.9", "--p", "1", "--q", "0.4"],
        ["check", "landen-theorem", "--m", "2", "--n", "1", "--t", "0.5"],
        ["check", "fagnano", "--m", "2", "--n", "1", "--t", "0.5"],
    ]
    codes = [cli_main(argv) for argv in checks]

    out = tmp_path / "construct.svg"
    construct_code = cli_main(
        ["construct", "--m", "2", "--n", "1", "--t", "0.5", "--out", str(out)]
    )
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(out.read_text())
    pts = {
        c.get("id")[3:]: (float(c.get("cx")), -float(c.get("cy")))
        for c in root.iter(ns + "circle")
        if (c.get("id") or "").startswith("pt-")
    }
    m, n, t = 2.0, 1.0, 0.5
    a, b = m - n, 2.0 * math.sqrt(m * n)
    p = math.sqrt((m - n) ** 2 - t * t)
    fx, fy = pts["F"]
    residuals = [
        abs(fx * fx / (a * a) - fy * fy / (b * b) - 1.0),
        abs(1.0 / math.sqrt(fx**2 / a**4 + fy**2 / b**4) - p),
        abs(ellipse_tangent_length(LandenPair(m, n).ellipse_inner, pts["E"][0]) - t),
        abs(math.hypot(*pts["K"]) - p),
        abs(math.hypot(pts["K"][0] - a, pts["K"][1]) - t),
        abs(pts["N"][1] - b),
        abs(math.hypot(pts["P"][0] - pts["E"][0], pts["P"][1] - pts["E"][1]) - t),
    ]
    ok = all(c == 0 for c in codes) and construct_code == 0 and max(residuals) < 1e-9
    report(
        12,
        "CLI checks exit 0, construct SVG re-validates",
        ok,
        f"exit codes={codes + [construct_code]}, worst point residual={max(residuals):.2e}",
    )
