"""Construction figure: point solving, validation, and SVG emission."""

import math
import xml.etree.ElementTree as ET

import pytest

from conicrect import (
    DomainError,
    LandenPair,
    construction_points,
    render_svg,
    validate_points,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_points(svg_text):
    root = ET.fromstring(svg_text)
    pts = {}
    for circle in root.iter(SVG_NS + "circle"):
        cid = circle.get("id", "")
        if cid.startswith("pt-"):
            pts[cid[3:]] = (float(circle.get("cx")), -float(circle.get("cy")))
    return pts


def test_points_satisfy_equations():
    pair = LandenPair(2.0, 1.0)
    points = construction_points(pair, 0.5)
    residuals = validate_points(points, pair, 0.5)
    assert set(residuals) == {"S", "A", "N", "Z", "E", "P", "H", "K", "F"}
    assert max(residuals.values()) < 1e-9


def test_pedal_radius_definition():
    points = construction_points(LandenPair(2.0, 1.0), 0.5)
    assert points.pedal_radius == pytest.approx(math.sqrt(1.0 - 0.25), rel=1e-15)


def test_f_approaches_vertex_as_t_vanishes():
    pair = LandenPair(2.0, 1.0)
    points = construction_points(pair, 1e-7)
    assert points.F[0] == pytest.approx(points.A[0], abs=1e-9)
    assert points.F[1] == pytest.approx(0.0, abs=1e-3)


def test_svg_reparse_consistency():
    pair = LandenPair(2.0, 1.0)
    svg = render_svg(pair, 0.5)
    pts = svg_points(svg)
    a, b = 1.0, 2.0 * math.sqrt(2.0)
    p = math.sqrt(1.0 - 0.25)
    fx, fy = pts["F"]
    assert abs(fx * fx / (a * a) - fy * fy / (b * b) - 1.0) < 1e-9
    pedal = 1.0 / math.sqrt(fx**2 / a**4 + fy**2 / b**4)
    assert abs(pedal - p) < 1e-9
    assert pts["A"] == (1.0, 0.0)
    assert pts["N"][1] == pytest.approx(b, abs=1e-12)


def test_svg_structure_and_determinism():
    pair = LandenPair(2.0, 1.0)
    s1 = render_svg(pair, 0.5)
    s2 = render_svg(pair, 0.5)
    assert s1 == s2
    root = ET.fromstring(s1)
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    for required in (
        "hyperbola",
        "ellipse1",
        "ellipse2",
        "asymptote",
        "vert-tan",
        "t-line",
        "half-circle",
        "pedal-circle",
        "tangent-F",
    ):
        assert required in ids
    # viewBox is 1.2x the outer-ellipse bounding box
    a1, b1 = 3.0, 2.0 * math.sqrt(2.0)
    vb = [float(v) for v in root.get("viewBox").split()]
    assert vb[0] == pytest.approx(-1.2 * a1, rel=1e-15)
    assert vb[3] == pytest.approx(2.4 * b1, rel=1e-15)


def test_guard_band_rejected():
    # no guard band below m - n: the figure renders and validates there
    pair = LandenPair(2.0, 1.0)
    t = 1.0 - 1e-12
    render_svg(pair, t)
    residuals = validate_points(construction_points(pair, t), pair, t)
    assert max(residuals.values()) <= 1e-9
    with pytest.raises(DomainError):
        render_svg(pair, 1.5)


def test_renders_up_to_m_minus_n():
    # residuals are scale-relative, so F validates however far it recedes
    for m, n in ((2.0, 1.0), (1.0, 0.01), (0.7, 0.5), (1.5, 0.3), (1e3, 999.0)):
        pair = LandenPair(m, n)
        span = m - n
        for t in [span * (1.0 - 10.0**-j) for j in range(6, 15)] + [math.nextafter(span, 0.0)]:
            render_svg(pair, t)
            residuals = validate_points(construction_points(pair, t), pair, t)
            assert max(residuals.values()) <= 1e-9, (m, n, t)
        for t in (span, math.nextafter(span, math.inf)):
            with pytest.raises(DomainError):
                render_svg(pair, t)
