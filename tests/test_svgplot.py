import re
from xml.etree import ElementTree

import numpy as np
import pytest

from minicar import svgplot
from minicar.svgplot import Series, render_plot


def _scalar_marks(s, color, px, py):
    """The reference: each finite point mapped by scalar ``px``/``py``
    calls and written on its own, in integer hundredths of a pixel."""
    x = np.asarray(s.x, dtype=float).ravel()
    y = np.asarray(s.y, dtype=float).ravel()
    ok = np.isfinite(x) & np.isfinite(y)
    points = [(round(px(xi) * 100), round(py(yi) * 100)) for xi, yi in zip(x[ok], y[ok])]
    if s.kind == "points":
        return [f'<g fill="{color}" fill-opacity="0.45" transform="scale(0.01)">',
                *[f'<circle cx="{cx}" cy="{cy}" r="180"/>' for cx, cy in points], "</g>"]
    pts = " ".join(f"{cx},{cy}" for cx, cy in points)
    return [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="160" '
            f'transform="scale(0.01)"/>']


def _plots():
    rng = np.random.default_rng(11602)
    slip = rng.normal(0.0, 0.08, 11602)
    force = 3.0 * np.sin(1.5 * np.arctan(12.0 * slip)) + rng.normal(0.0, 0.1, slip.size)
    grid = np.linspace(-0.3, 0.3, 200)
    with_gaps = np.array([0.0, np.nan, 1.0, np.inf, 2.0, -np.inf, 3.0])
    return {
        "both-kinds": [Series(slip[:500], force[:500], "data", "points"),
                       Series(grid, 3.0 * np.sin(1.5 * np.arctan(12.0 * grid)), "fit")],
        "non-finite": [Series(with_gaps, with_gaps[::-1] ** 2, "points", "points"),
                       Series(np.arange(7.0), with_gaps, "line")],
        "single-point": [Series(np.array([0.25]), np.array([-1.5]), "one", "points"),
                         Series(np.array([0.25]), np.array([-1.5]), "one line")],
        "constant": [Series(np.linspace(0.0, 1.0, 50), np.full(50, 0.7), "flat"),
                     Series(np.full(20, 0.5), np.full(20, 0.7), "", "points")],
        "slip-11602": [Series(slip, force, "front", "points"),
                       Series(np.sort(slip), np.sort(force), "sorted")],
    }


@pytest.mark.parametrize("name", list(_plots()))
def test_render_plot_equals_the_scalar_reference_byte_for_byte(monkeypatch, name):
    series = _plots()[name]
    fast = render_plot(series, title=name, x_label="x", y_label="y")
    monkeypatch.setattr(svgplot, "_marks", _scalar_marks)
    assert fast == render_plot(series, title=name, x_label="x", y_label="y")


def test_points_that_map_to_no_finite_position_are_left_out():
    """Data spanning more than the largest float has an infinite range,
    so its x maps to NaN: such points are left out, without a cast
    warning (the suite raises on warnings) or a wrapped-around integer."""
    wide = np.array([-1e308, 0.0, 1e308])
    svg = render_plot([Series(wide, np.array([1.0, 2.0, 3.0]), "points", "points"),
                       Series(wide, np.array([3.0, 2.0, 1.0]), "line")])
    root = ElementTree.fromstring(svg)
    assert root.findall(".//{*}circle") == []
    (line,) = root.findall(".//{*}polyline")
    assert line.get("points") == ""
    assert "-9223372036854775808" not in svg and re.search(r"\bnan\b", svg) is None
