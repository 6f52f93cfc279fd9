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


def _unscaled_axis(values, pad):
    """The reference for a finite span: the padded range in data units."""
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 1.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = pad * (hi - lo)
    return lo - pad, hi + pad, 1.0


@pytest.mark.parametrize("name", [*_plots(), "span-8e307"])
def test_a_plot_whose_span_is_finite_is_drawn_in_data_units(monkeypatch, name):
    """Ranges that stay finite, up to ±8e307 padded, are not scaled, so
    their plots keep every byte."""
    wide = np.array([-8e307, 0.0, 8e307])
    series = _plots().get(name, [Series(wide, wide, "points", "points"), Series(wide, -wide)])
    plot = render_plot(series, title=name, x_label="x", y_label="y")
    monkeypatch.setattr(svgplot, "_axis", _unscaled_axis)
    assert plot == render_plot(series, title=name, x_label="x", y_label="y")


def test_data_spanning_more_than_the_largest_float_is_placed():
    """Data spanning ±1e308 has a range that overflows a float, so it is
    drawn scaled by 1/4, a power of two: its points land where those of
    the data over 4 land, and its ticks read 4 times theirs, with no
    warning (the suite raises on warnings)."""
    wide = np.array([-1e308, 0.0, 1e308])

    def drawn(x):
        svg = render_plot([Series(x, np.array([1.0, 2.0, 3.0]), "points", "points"),
                           Series(x, np.array([3.0, 2.0, 1.0]), "line")])
        assert re.search(r"\b(nan|inf)\b", svg) is None
        root = ElementTree.fromstring(svg)
        marks = [(c.get("cx"), c.get("cy")) for c in root.findall(".//{*}circle")]
        x_ticks = [float(t.text) for t in root.findall(".//{*}text[@text-anchor='middle']")]
        return marks, root.find(".//{*}polyline").get("points"), x_ticks

    marks, line, x_ticks = drawn(wide)
    quarter_marks, quarter_line, quarter_ticks = drawn(wide / 4)
    assert len(marks) == 3 and (marks, line) == (quarter_marks, quarter_line)
    assert x_ticks == [4 * v for v in quarter_ticks] and len(x_ticks) >= 3
