"""Minimal deterministic SVG line/scatter plots.

Plots are derived artifacts that must regenerate byte-identically from
the same data, so this module emits plain SVG text itself: no plotting
backend, no timestamps, no environment-dependent metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46
_TICKS = 6  # about this many ticks per axis


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    kind: str = "line"  # "line" | "points"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else float(v))
        v += step
    return ticks


def _marks(s: Series, color: str, px, py) -> list[str]:
    """The SVG elements of one series' points that map to finite positions,
    in integer hundredths of a pixel under scale(0.01). ``px`` and ``py``
    map whole arrays, by the same IEEE operations as on one point."""
    cx = np.rint(100 * px(np.asarray(s.x, dtype=float).ravel()))
    cy = np.rint(100 * py(np.asarray(s.y, dtype=float).ravel()))
    ok = np.isfinite(cx) & np.isfinite(cy)
    points = zip(cx[ok].astype(np.int64).tolist(), cy[ok].astype(np.int64).tolist())
    if s.kind == "points":
        return [f'<g fill="{color}" fill-opacity="0.45" transform="scale(0.01)">',
                *[f'<circle cx="{x}" cy="{y}" r="180"/>' for x, y in points], "</g>"]
    pts = " ".join([f"{x},{y}" for x, y in points])
    return [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="160" '
            f'transform="scale(0.01)"/>']


def _axis(values: np.ndarray, pad: float, k: float = 1.0) -> tuple[float, float, float]:
    """``(lo, hi, k)``: the padded range of the finite ``values`` scaled by ``k``, a power
    of two: 1 unless the span would overflow a float, so other plots keep every bit."""
    lo, hi = (float(values.min()) * k, float(values.max()) * k) if values.size else (0.0, 1.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    lo, hi = lo - pad * (hi - lo), hi + pad * (hi - lo)
    return (lo, hi, k) if hi - lo < np.inf else _axis(values, pad, k / 4)


def _text(text: str) -> str:
    """``text`` as SVG character data, its ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_plot(series_list, title: str = "", x_label: str = "", y_label: str = "") -> str:
    xs = np.concatenate([np.asarray(s.x, dtype=float).ravel() for s in series_list])
    ys = np.concatenate([np.asarray(s.y, dtype=float).ravel() for s in series_list])
    x_lo, x_hi, kx = _axis(xs[np.isfinite(xs)], 0.04)
    y_lo, y_hi, ky = _axis(ys[np.isfinite(ys)], 0.06)

    def px(x):
        return _ML + (x * kx - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y * ky - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # grid and ticks
    for tx in (t / kx for t in _nice_ticks(x_lo, x_hi)):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{_MT}" x2="{px(tx):.2f}" y2="{_H - _MB}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 16}" font-size="11" '
            f'text-anchor="middle" fill="#444">{tx:.6g}</text>'
        )
    for ty in (t / ky for t in _nice_ticks(y_lo, y_hi)):
        out.append(
            f'<line x1="{_ML}" y1="{py(ty):.2f}" x2="{_W - _MR}" y2="{py(ty):.2f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{py(ty):.2f}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle" fill="#444">{ty:.6g}</text>'
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#888" stroke-width="1"/>'
    )

    for i, s in enumerate(series_list):
        out += _marks(s, PALETTE[i % len(PALETTE)], px, py)

    # labels and legend
    if title:
        out.append(
            f'<text x="{_W / 2:.0f}" y="20" font-size="14" text-anchor="middle" '
            f'fill="#111">{_text(title)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" font-size="12" '
            f'text-anchor="middle" fill="#111">{_text(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" font-size="12" '
            f'text-anchor="middle" fill="#111" '
            f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})">{_text(y_label)}</text>'
        )
    ly = _MT + 14
    for i, s in enumerate(series_list):
        if not s.label:
            continue
        color = PALETTE[i % len(PALETTE)]
        out.append(
            f'<rect x="{_ML + 8}" y="{ly - 8}" width="14" height="4" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_ML + 27}" y="{ly - 2}" font-size="11" fill="#222">{_text(s.label)}</text>'
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_plot(path: str | Path, series_list, title: str = "", x_label: str = "",
              y_label: str = "") -> None:
    Path(path).write_text(render_plot(series_list, title, x_label, y_label), encoding="utf-8")
