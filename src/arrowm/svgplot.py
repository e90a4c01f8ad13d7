"""Minimal self-contained SVG line plots (no plotting dependency).

CSV is the canonical output format; these plots are a convenience for eyeball
checks.  Output is a plain polyline per series inside a fixed-size frame with
a handful of tick labels, formatted deterministically.
"""
from __future__ import annotations

import numpy as np

__all__ = ["write_line_plot"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, size, body, before=' text-anchor="middle"', after="") -> str:
    """A sans-serif ``<text>`` of the escaped ``body``; ``before``/``after`` wrap its font."""
    return (f'<text x="{x}" y="{y}"{before} font-family="sans-serif" '
            f'font-size="{size}"{after}>{_escape(body)}</text>')


def _line(x1, y1, x2, y2) -> str:
    """A tick mark from (x1, y1) to (x2, y2)."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#444"/>'


def _range(v: np.ndarray) -> tuple:
    """(min, max) of ``v``; [lo, lo + 1] where v is constant, [0, 1] where empty."""
    lo, hi = (float(np.min(v)), float(np.max(v))) if v.size else (0.0, 0.0)
    return lo, (hi if hi != lo else lo + 1.0)


def write_line_plot(path, x, series: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write one SVG with a polyline per entry of ``series`` (label -> y array).

    With no points, the frame and ticks span [0, 1] and each polyline is empty.
    """
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    x0, x1 = _range(x)
    y0, y1 = _range(np.concatenate([v for v in ys.values()]))
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + pw * (v - x0) / (x1 - x0)

    def sy(v):
        return _MT + ph * (1.0 - (v - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(_text(_W // 2, 18, 13, title))
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        out.append(_line(_fmt(sx(xv)), _MT + ph, _fmt(sx(xv)), _MT + ph + 4))
        out.append(_text(_fmt(sx(xv)), _MT + ph + 17, 10, _fmt(xv)))
        out.append(_line(_ML - 4, _fmt(sy(yv)), _ML, _fmt(sy(yv))))
        out.append(_text(_ML - 7, _fmt(sy(yv) + 3), 10, _fmt(yv), ' text-anchor="end"'))
    if xlabel:
        out.append(_text(_W // 2, _H - 8, 11, xlabel))
    if ylabel:
        out.append(_text(14, _MT + ph // 2, 11, ylabel,
                         after=f' transform="rotate(-90 14 {_MT + ph // 2})"'))
    # sx and sy act elementwise in the scalar operation order, so each point
    # equals sx(x[i]), sy(y[i]) bit for bit, as the tick marks compute them
    px = sx(x)
    point_fmt = " ".join(["%.6g,%.6g"] * x.size)
    for idx, (label, y) in enumerate(ys.items()):
        pts = point_fmt % tuple(np.stack([px, sy(y)], axis=1).ravel().tolist())
        color = _COLORS[idx % len(_COLORS)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if len(ys) > 1:
            out.append(_text(_ML + 8, _MT + 14 + 13 * idx, 11, label, f' fill="{color}"'))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
