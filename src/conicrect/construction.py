"""Straightedge-and-compass figure of the two-ellipse rectification, as SVG.

Renders, for a coefficient pair (m, n) and tangent length t: the hyperbola
branch (m-n, 2 sqrt(mn)) with its asymptote and vertical vertex tangent,
both auxiliary ellipse quadrants, the transfer line x = ((m+n)/(m-n)) t, the
Thales half-circle over the center-vertex segment, the pedal circle, and
the tangent line at the hyperbola point F.  Every point is validated
against its defining equation before the document is emitted, and the
output is byte-stable for identical inputs.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .conics import LandenPair, _tangent_point, ellipse_tangent_length, hyperbola_point_from_pedal
from .errors import DomainError

__all__ = ["ConstructionPoints", "construction_points", "validate_points", "render_svg"]

POINT_TOLERANCE = 1e-9


class ConstructionPoints(NamedTuple):
    """Named points of the figure, in the hyperbola-centered frame."""

    S: tuple[float, float]
    A: tuple[float, float]
    N: tuple[float, float]
    Z: tuple[float, float]
    E: tuple[float, float]
    P: tuple[float, float]
    H: tuple[float, float]
    K: tuple[float, float]
    F: tuple[float, float]
    pedal_radius: float

    def as_dict(self) -> dict[str, tuple[float, float]]:
        """The points by name, in field order."""
        return {name: value for name, value in zip(self._fields, self) if name != "pedal_radius"}


def _normal(pair: LandenPair, pt: tuple[float, float]) -> tuple[float, float]:
    """(x/m^2, y/n^2), the inner ellipse's normal at pt, scaled so that the
    tangent line there is nu . X = 1.  An n^2 that is not a normal double is
    a DomainError; m > n, so m^2 underflows only where n^2 does."""
    m, n = pair.m, pair.n
    n2 = n * n
    if not sys.float_info.min <= n2 < math.inf:
        raise DomainError(f"n^2 is out of range, got m={m!r}, n={n!r}")
    return pt[0] / (m * m), pt[1] / n2


def construction_points(pair: LandenPair, t: float) -> ConstructionPoints:
    """Solve every point of the figure from (m, n, t) alone."""
    p, x_e, _, _ = _tangent_point(pair, t)
    m, n = pair.m, pair.n
    hyp = pair.hyperbola
    a, b = hyp.a, hyp.b
    # inner-ellipse point sharing the tangent length, and the foot of the
    # center perpendicular onto its tangent line
    y_e = n * math.sqrt(max(1.0 - (x_e / m) ** 2, 0.0))
    nu = _normal(pair, (x_e, y_e))
    nu2 = nu[0] * nu[0] + nu[1] * nu[1]
    foot = (nu[0] / nu2, nu[1] / nu2)
    # right triangle over the diameter SA: |AK| = t forces |SK| = p
    k_pt = (p * p / a, p * t / a)
    f_pt = hyperbola_point_from_pedal(hyp, p)
    return ConstructionPoints(
        S=(0.0, 0.0),
        A=(a, 0.0),
        N=(a, b),
        Z=(m + n, -(m - n)),
        E=(x_e, y_e),
        P=foot,
        H=(a, t),
        K=k_pt,
        F=f_pt,
        pedal_radius=p,
    )


def validate_points(points: ConstructionPoints, pair: LandenPair, t: float) -> dict[str, float]:
    """Residual of each point against its defining equation.

    The on-hyperbola residual is relative to x^2/a^2 and F's pedal distance
    is relative to p, so neither cancels as F recedes while t -> m - n.
    """
    m, n = pair.m, pair.n
    hyp = pair.hyperbola
    a, b = hyp.a, hyp.b
    p = points.pedal_radius

    def on_hyperbola(pt: tuple[float, float]) -> float:
        u = (pt[0] / a) ** 2
        return abs(u - (pt[1] / b) ** 2 - 1.0) / u

    def on_inner_ellipse(pt: tuple[float, float]) -> float:
        return abs((pt[0] / m) ** 2 + (pt[1] / n) ** 2 - 1.0)

    x_e, y_e = points.E
    nu = _normal(pair, points.E)
    px, py = points.P
    kx, ky = points.K
    fx, fy = points.F
    pedal_of_f = 1.0 / math.hypot(fx / (a * a), fy / (b * b))
    residuals = {
        "S": math.hypot(*points.S),
        "A": on_hyperbola(points.A) + abs(points.A[1]),
        "N": abs(points.N[0] - a) + abs(points.N[1] - b / a * points.N[0]),
        "Z": abs(points.Z[0] - (m + n)) + abs(points.Z[1] + (m - n)),
        "E": on_inner_ellipse(points.E)
        + abs(ellipse_tangent_length(pair.ellipse_inner, x_e) - t),
        "P": abs(px * nu[0] + py * nu[1] - 1.0)
        + abs(math.hypot(px - x_e, py - y_e) - t),
        "H": abs(points.H[0] - a) + abs(points.H[1] - t),
        "K": abs(math.hypot(kx, ky) - p) + abs(math.hypot(kx - a, ky) - t),
        "F": on_hyperbola(points.F) + abs(pedal_of_f - p) / p,
    }
    return residuals


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _xy(pt: tuple[float, float]) -> str:
    # mathematical y-up to SVG y-down
    return f"{_fmt(pt[0])},{_fmt(-pt[1])}"


def _polyline(points: list[tuple[float, float]]) -> str:
    return "M " + " L ".join(_xy(pt) for pt in points)


def render_svg(pair: LandenPair, t: float) -> str:
    """Emit the full construction as an SVG 1.1 document.

    Raises DomainError if any solved point misses its defining equation by
    more than 1e-9.
    """
    points = construction_points(pair, t)
    residuals = validate_points(points, pair, t)
    worst = max(residuals.values())
    if worst > POINT_TOLERANCE:
        bad = max(residuals, key=residuals.get)  # type: ignore[arg-type]
        raise DomainError(
            f"construction point {bad} misses its defining equation by {residuals[bad]:.3e}"
        )

    m, n = pair.m, pair.n
    hyp = pair.hyperbola
    a, b = hyp.a, hyp.b
    outer = pair.ellipse_outer
    a1, b1 = outer.a, outer.b
    half_w = 1.2 * a1
    half_h = 1.2 * b1
    stroke = 0.008 * a1
    samples = 160

    def hyperbola_path() -> str:
        u_max = math.acosh(half_w / a)
        pts = [
            (a * math.cosh(i * u_max / samples), b * math.sinh(i * u_max / samples))
            for i in range(samples + 1)
        ]
        return _polyline(pts)

    def ellipse_quadrant_path(sa: float, sb: float) -> str:
        pts = [
            (sa * math.cos(0.5 * math.pi * i / samples), sb * math.sin(0.5 * math.pi * i / samples))
            for i in range(samples + 1)
        ]
        return _polyline(pts)

    fx, fy = points.F
    tangent_dir = (fy / (b * b), fx / (a * a))
    norm = math.hypot(*tangent_dir)
    tangent_dir = (tangent_dir[0] / norm, tangent_dir[1] / norm)
    reach = 1.2 * a1
    tan_lo = (fx - reach * tangent_dir[0], fy - reach * tangent_dir[1])
    tan_hi = (fx + reach * tangent_dir[0], fy + reach * tangent_dir[1])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(-half_w)} {_fmt(-half_h)} {_fmt(2 * half_w)} {_fmt(2 * half_h)}">',
        f'<g fill="none" stroke-width="{_fmt(stroke)}">',
        f'<path id="hyperbola" stroke="#1b3a6b" d="{hyperbola_path()}"/>',
        f'<path id="ellipse1" stroke="#bd4b1f" d="{ellipse_quadrant_path(a1, b1)}"/>',
        f'<path id="ellipse2" stroke="#1f7a3d" d="{ellipse_quadrant_path(m, n)}"/>',
        f'<path id="asymptote" stroke="#777777" stroke-dasharray="{_fmt(4 * stroke)}" '
        f'd="{_polyline([(0.0, 0.0), (half_w, b / a * half_w)])}"/>',
        f'<path id="vert-tan" stroke="#777777" stroke-dasharray="{_fmt(4 * stroke)}" '
        f'd="{_polyline([(a, 0.0), (a, half_h)])}"/>',
        f'<path id="t-line" stroke="#9355b0" d="{_polyline([(0.0, 0.0), points.Z])}"/>',
        f'<circle id="half-circle" stroke="#777777" cx="{_fmt(0.5 * a)}" cy="0" r="{_fmt(0.5 * a)}"/>',
        f'<circle id="pedal-circle" stroke="#b0355b" cx="0" cy="0" r="{_fmt(points.pedal_radius)}"/>',
        f'<path id="tangent-F" stroke="#b0355b" d="{_polyline([tan_lo, tan_hi])}"/>',
        "</g>",
        f'<g fill="#000000" stroke="none" font-size="{_fmt(0.06 * a1)}">',
    ]
    offset = 0.02 * a1
    for name, pt in points.as_dict().items():
        lines.append(
            f'<circle id="pt-{name}" cx="{_fmt(pt[0])}" cy="{_fmt(-pt[1])}" r="{_fmt(1.5 * stroke)}"/>'
        )
        lines.append(
            f'<text x="{_fmt(pt[0] + offset)}" y="{_fmt(-(pt[1] + offset))}">{name}</text>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
