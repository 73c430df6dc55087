"""Minimal static SVG plots: log-log curves and scatter with a covariance
ellipse.  Plots are batch artifacts written next to the CSV outputs; axes,
polylines, and points are emitted as raw SVG primitives.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 680, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 24, 44, 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class _Frame:
    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x0, self.x1 = map(float, x_range)
        self.y0, self.y1 = map(float, y_range)
        # Widen an empty range, also one whose ends are too large for + 1 to move.
        if self.x1 <= self.x0:
            self.x1 = self.x0 + max(1.0, abs(self.x0))
        if self.y1 <= self.y0:
            self.y1 = self.y0 + max(1.0, abs(self.y0))

    def px(self, x: float) -> float:
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * w

    def py(self, y: float) -> float:
        h = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * h


def _polyline(frame: _Frame, xs, ys, color: str, dashed: bool = False) -> str:
    pts = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>'


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" '
        f'text-anchor="{anchor}">{s}</text>'
    )


def _document(path: str | Path, body: list[str], title: str, xlabel: str, ylabel: str) -> Path:
    """Write the plot ``body`` to ``path`` with its title and axis labels."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, MARGIN_T - 18, title, size=14, anchor="middle"),
    ]
    labels = [
        _text(WIDTH / 2, HEIGHT - 14, xlabel, anchor="middle"),
        f'<text x="18" y="{HEIGHT / 2:.1f}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 18 {HEIGHT / 2:.1f})">{ylabel}</text>',
    ]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(head + body + labels + ["</svg>"]) + "\n")
    return out


def _axes_box(frame: _Frame) -> str:
    return (
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black" stroke-width="1"/>'
    )


def _decade_ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def loglog_plot(
    path: str | Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float], bool]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> Path:
    """Log-log curves; each series is (label, xs, ys, dashed). Non-positive
    values are dropped (log scale)."""
    cleaned = []
    for label, xs, ys, dashed in series:
        pts = [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
        if pts:
            cleaned.append((label, [p[0] for p in pts], [p[1] for p in pts], dashed))
    if not cleaned:
        raise ValueError("nothing to plot: no positive points")
    all_x = [v for _, xs, _, _ in cleaned for v in xs]
    all_y = [v for _, _, ys, _ in cleaned for v in ys]
    frame = _Frame(
        (min(all_x) - 0.05, max(all_x) + 0.05),
        (min(all_y) - 0.2, max(all_y) + 0.2),
    )
    body = [_axes_box(frame)]
    for d in _decade_ticks(frame.x0, frame.x1):
        x = frame.px(d)
        body.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" y2="{HEIGHT - MARGIN_B}" '
            'stroke="#dddddd" stroke-width="0.7"/>'
        )
        body.append(_text(x, HEIGHT - MARGIN_B + 16, f"1e{d}", anchor="middle"))
    for d in _decade_ticks(frame.y0, frame.y1):
        y = frame.py(d)
        body.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{WIDTH - MARGIN_R}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="0.7"/>'
        )
        body.append(_text(MARGIN_L - 6, y + 4, f"1e{d}", anchor="end"))
    for i, (label, xs, ys, dashed) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        body.append(_polyline(frame, xs, ys, color, dashed))
        ly = MARGIN_T + 16 + 16 * i
        lx = WIDTH - MARGIN_R - 180
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        body.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        body.append(_text(lx + 30, ly, label))
    return _document(path, body, title, xlabel, ylabel)


def _linear_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    # At most n + 1 ticks fit; the cap ends the loop where step is below the
    # float spacing of t, so that t += step does not move it.
    while t <= hi + 1e-12 * step and len(ticks) <= n:
        ticks.append(t)
        t += step
    return ticks


def scatter_plot(
    path: str | Path,
    points: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
    ellipse_cov: np.ndarray | None = None,
) -> Path:
    """Scatter of an (R, 2) array; optionally overlays the 1-standard-deviation
    ellipse of a 2x2 covariance centered at the origin."""
    pts = np.asarray(points, dtype=float)
    xs, ys = pts[:, 0], pts[:, 1]
    pad_x = 0.05 * (xs.max() - xs.min() + 1e-12)
    pad_y = 0.05 * (ys.max() - ys.min() + 1e-12)
    frame = _Frame((xs.min() - pad_x, xs.max() + pad_x), (ys.min() - pad_y, ys.max() + pad_y))
    body = [_axes_box(frame)]
    for t in _linear_ticks(frame.x0, frame.x1):
        body.append(_text(frame.px(t), HEIGHT - MARGIN_B + 16, f"{t:.3g}", anchor="middle"))
    for t in _linear_ticks(frame.y0, frame.y1):
        body.append(_text(MARGIN_L - 6, frame.py(t) + 4, f"{t:.3g}", anchor="end"))
    for x, y in zip(xs, ys):
        body.append(
            f'<circle cx="{frame.px(x):.2f}" cy="{frame.py(y):.2f}" r="1.8" '
            'fill="#1f77b4" fill-opacity="0.45"/>'
        )
    if ellipse_cov is not None:
        chol = np.linalg.cholesky(np.asarray(ellipse_cov, dtype=float))
        angles = np.linspace(0.0, 2.0 * math.pi, 121)
        circle = np.stack([np.cos(angles), np.sin(angles)])
        boundary = (chol @ circle).T
        body.append(_polyline(frame, boundary[:, 0], boundary[:, 1], "#d62728"))
        body.append(_text(WIDTH - MARGIN_R - 180, MARGIN_T + 16, "theory 1-sd ellipse"))
    return _document(path, body, title, xlabel, ylabel)
